"""The contraction hierarchy is a pure function of its graph.

``tests/golden/ch_hierarchy.json`` pins a sha256 over everything a build
keeps (ranks, contraction order, upward adjacency) and over every node's
forward and backward label from the reference upward sweep
(``tests/ch_reference.py``) -- on three cities.  A change to the build loops
that moves a single shortcut or label entry fails here.  ``REGEN_GOLDEN=1`` rewrites the file; do that only for a
change that is meant to produce a different hierarchy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from pathlib import Path

import pytest

from repro.network.generators import make_city, ring_radial_city
from repro.network.routing.contraction import ContractionHierarchy
from repro.network.routing.csr import CSRGraph
from repro.network.routing.hub_labels import HubLabeling

from ch_reference import upward_label

GOLDEN = Path(__file__).parent / "golden" / "ch_hierarchy.json"

CITIES = {
    "nyc_1.0": lambda: make_city("nyc", scale=1.0),
    "chd_1.2": lambda: make_city("chd", scale=1.2),
    "ring_radial_8_24": lambda: ring_radial_city(8, 24),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def hierarchy_digest(ch: ContractionHierarchy) -> str:
    """sha256 over everything the build keeps (dict order too)."""
    return _sha((
        ch.rank,
        ch._contract_order,
        [list(d.items()) for d in ch._stored_fwd],
        [list(d.items()) for d in ch._stored_bwd],
    ))


def labels_digest(ch: ContractionHierarchy) -> str:
    """sha256 over every node's forward and backward label, in settle order,
    each from one reference upward sweep."""
    nodes = range(ch.csr.num_nodes)
    return _sha(tuple(
        [list(upward_label(ch, index, backward=backward).items()) for index in nodes]
        for backward in (False, True)
    ))


def close_burst(network, *, count: int = 12, seed: int = 0) -> list[tuple[int, int]]:
    """Close ``count`` edges, never an endpoint's last way out or in."""
    rng = random.Random(seed)
    closed: list[tuple[int, int]] = []
    for u, v, _ in rng.sample(sorted(network.edges()), 4 * count):
        if len(closed) == count:
            break
        if network.out_degree(u) <= 1 or sum(1 for _ in network.predecessors(v)) <= 1:
            continue
        network.remove_edge(u, v)
        closed.append((u, v))
    return closed


@pytest.fixture(scope="module", params=sorted(CITIES))
def built(request):
    """``(name, hierarchy)`` of one city."""
    return request.param, ContractionHierarchy(CSRGraph.from_network(CITIES[request.param]()))


def test_hierarchy_matches_golden(built):
    name, ch = built
    got = {"build": hierarchy_digest(ch), "labels": labels_digest(ch)}
    if os.environ.get("REGEN_GOLDEN"):
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        golden[name] = got
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    assert json.loads(GOLDEN.read_text())[name] == got


def test_search_scratch_is_all_inf_between_searches():
    network = ring_radial_city(4, 9, seed=3)
    ch = ContractionHierarchy(CSRGraph.from_network(network))
    n = ch.csr.num_nodes
    assert ch._dist == [math.inf] * n
    close_burst(network, count=4)
    mutated = ContractionHierarchy(CSRGraph.from_network(network))
    assert mutated._dist is not ch._dist
    assert mutated._dist == [math.inf] * n == ch._dist
    for hierarchy in (ch, mutated):
        labeling = HubLabeling(hierarchy)
        for i in range(n):
            assert labeling.forward[i][i] == 0.0 == labeling.backward[i][i]
