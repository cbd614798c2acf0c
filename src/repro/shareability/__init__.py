"""Shareability graph: construction, structure analysis and shareability loss.

This package implements Section III and the structural measurements of
Section IV of the paper:

* :class:`~repro.shareability.graph.ShareabilityGraph` -- the undirected
  graph whose nodes are pending requests and whose edges connect shareable
  pairs (Definition 5).
* :class:`~repro.shareability.builder.DynamicShareabilityGraphBuilder` --
  Algorithm 1: incremental construction per batch using the grid index,
  deadline filtering and the angle pruning rule (Theorem III.1).
* :mod:`~repro.shareability.angle_pruning` -- geometric predicates and the
  expected-sharing-probability analysis under a log-normal trip-length model.
* :mod:`~repro.shareability.loss` -- shareability loss (Definition 6).
* :mod:`~repro.shareability.cliques` -- clique-partition bounds
  (Equations 6-8) supporting Theorem IV.1.
"""

from .graph import ShareabilityGraph
from .builder import DynamicShareabilityGraphBuilder, BuilderStatistics
from .angle_pruning import (
    direction_angle,
    passes_angle_filter,
    expected_sharing_probability,
    fit_lognormal,
)
from .loss import (
    residual_shareability_loss,
    shareability_loss,
    sharing_ratio,
)
from .cliques import (
    clique_partition_upper_bound,
    largest_clique_estimate,
    bounded_clique_partition_upper_bound,
    greedy_clique_partition,
)

__all__ = [
    "ShareabilityGraph",
    "DynamicShareabilityGraphBuilder",
    "BuilderStatistics",
    "direction_angle",
    "passes_angle_filter",
    "expected_sharing_probability",
    "fit_lognormal",
    "shareability_loss",
    "residual_shareability_loss",
    "sharing_ratio",
    "clique_partition_upper_bound",
    "largest_clique_estimate",
    "bounded_clique_partition_upper_bound",
    "greedy_clique_partition",
]
