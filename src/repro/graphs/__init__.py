"""Graph substrate: dense adjacency kernel, bit-packed word-parallel
kernel, the distance backend, properties and generators."""

from . import adjacency, bitkernel, incremental, properties  # noqa: F401
from .incremental import (  # noqa: F401
    DistanceBackend,
    IncrementalAPSP,
    IncrementalBackend,
)

__all__ = [
    "adjacency",
    "bitkernel",
    "incremental",
    "properties",
    "generators",
    "DistanceBackend",
    "IncrementalBackend",
    "IncrementalAPSP",
]


def __getattr__(name):  # lazily import generators (needs core types? no, keep cheap)
    if name == "generators":
        from . import generators

        return generators
    raise AttributeError(name)
