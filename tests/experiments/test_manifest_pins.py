"""Byte pins of the campaign manifests of the seven ``repro campaign``
grids.

A manifest records every cell's key (the seed digest), series name and
canonical config string, so these hashes fail on any change to how the
paper's grids are described, seeded or labelled.  The literals were
recorded from the stored bytes — do NOT regenerate them from code.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.asg_budget import figure7_spec, figure8_spec
from repro.experiments.campaign import CampaignStore, run_campaign
from repro.experiments.frontier import tree_conjecture_spec
from repro.experiments.gbg import figure11_spec, figure13_spec
from repro.experiments.topology import figure12_spec, figure14_spec

PINNED = {
    figure7_spec: "f352acfbc325f6813753888c988526b21ee8745b957a1a64a4cbb5d6dfb7d1dd",
    figure8_spec: "33801b3c5ead16bf8930c47172701272290cdd2c420a8d1e98316d4d086c9a10",
    figure11_spec: "8260965002511d494681ceef52ebb12e6d9faeacc2a24bf8b65b629ba585bcde",
    figure12_spec: "b6e0f90966c597b8246b434fa399b14483591743c1453d443c525986a20fe11a",
    figure13_spec: "2ced621319d627d15a357eb0fdfbff8e95917696cef987165dabf0da639ba7af",
    figure14_spec: "a3fa2282147f733d122c3ab96f091b91fb329a6992952224f54dfe76c02cfbc3",
    tree_conjecture_spec: "03cfeea500a8b75e0bbc4e973a826fa46929783a3d77bb5d361c5c5f6c53d1a7",
}


@pytest.mark.parametrize("spec_fn", list(PINNED), ids=lambda fn: fn.__name__)
def test_manifest_bytes_pinned(spec_fn, tmp_path):
    run_campaign(spec_fn(), tmp_path, max_new_trials=0)
    data = (tmp_path / CampaignStore.MANIFEST).read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED[spec_fn]
