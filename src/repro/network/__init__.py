"""Road-network substrate: graph model, shortest paths and spatial indexing.

The paper evaluates StructRide on the Chengdu and New York road networks
retrieved from OpenStreetMap and answers shortest-path queries with hub
labeling plus an LRU cache.  This package provides the same interfaces built
from scratch:

* :class:`~repro.network.road_network.RoadNetwork` -- directed, weighted
  road graph with planar node coordinates.
* :class:`~repro.network.shortest_path.DistanceOracle` -- cached
  shortest-path (travel-time) oracle with query statistics, a facade over
  the pluggable routing backends of :mod:`repro.network.routing`
  (Dijkstra on a CSR graph, contraction hierarchies, hub labels).
* :class:`~repro.network.grid_index.GridIndex` -- the n x n grid spatial
  index used to retrieve nearby vehicles and requests in constant time.
* :mod:`~repro.network.generators` -- synthetic city generators standing in
  for the OSM road networks.
"""

from .grid_index import GridIndex
from .road_network import RoadNetwork
from .routing import (
    BACKEND_NAMES,
    CSRGraph,
    ContractionHierarchy,
    HubLabeling,
    routing_data,
)
from .shortest_path import DistanceOracle, QueryStatistics
from .generators import (
    grid_city,
    ring_radial_city,
    make_city,
    CityPreset,
)

__all__ = [
    "BACKEND_NAMES",
    "RoadNetwork",
    "DistanceOracle",
    "QueryStatistics",
    "CSRGraph",
    "ContractionHierarchy",
    "HubLabeling",
    "routing_data",
    "GridIndex",
    "grid_city",
    "ring_radial_city",
    "make_city",
    "CityPreset",
]
