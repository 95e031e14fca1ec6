"""Graph substrate: dense adjacency kernel, bit-packed word-parallel
kernel, distance backends, properties and generators."""

from . import adjacency, bitkernel, incremental, properties  # noqa: F401
from .incremental import (  # noqa: F401
    DenseBackend,
    DistanceBackend,
    IncrementalAPSP,
    IncrementalBackend,
    make_backend,
)

__all__ = [
    "adjacency",
    "bitkernel",
    "incremental",
    "properties",
    "generators",
    "DistanceBackend",
    "DenseBackend",
    "IncrementalBackend",
    "IncrementalAPSP",
    "make_backend",
]


def __getattr__(name):  # lazily import generators (needs core types? no, keep cheap)
    if name == "generators":
        from . import generators

        return generators
    raise AttributeError(name)
