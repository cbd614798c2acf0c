"""Routing backends: CSR graph, contraction hierarchies and hub labels.

This package is everything below the cache and the counters of
:class:`~repro.network.shortest_path.DistanceOracle`: the backends
(``dijkstra`` | ``ch`` | ``hub_label``, see :data:`BACKEND_NAMES`),
which all implement :class:`~repro.network.routing.backends.RoutingBackend`,
and the compiled structures they search:

* :class:`~repro.network.routing.csr.CSRGraph` -- flat-array adjacency
  compiled once from the dict-based :class:`~repro.network.road_network.RoadNetwork`.
* :class:`~repro.network.routing.contraction.ContractionHierarchy` --
  shortcut overlay the hub labels are computed from.
* :class:`~repro.network.routing.hub_labels.HubLabeling` -- the label store
  and the join that answers a pair for ``ch`` and ``hub_label``.
"""

from .backends import (
    BACKEND_NAMES,
    CHBackend,
    GraphSearchBackend,
    HubLabelBackend,
    RoutingData,
    make_backend,
    routing_data,
)
from .contraction import ContractionHierarchy
from .csr import CSRGraph
from .hub_labels import HubLabeling

__all__ = [
    "BACKEND_NAMES",
    "CSRGraph",
    "CHBackend",
    "ContractionHierarchy",
    "GraphSearchBackend",
    "HubLabelBackend",
    "HubLabeling",
    "RoutingData",
    "make_backend",
    "routing_data",
]
