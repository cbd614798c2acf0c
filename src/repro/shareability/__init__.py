"""Shareability graph: construction, structure analysis and shareability loss.

This package implements Section III and the shareability loss of Section IV
of the paper:

* :class:`~repro.shareability.graph.ShareabilityGraph` -- the undirected
  graph whose nodes are pending requests and whose edges connect shareable
  pairs (Definition 5).
* :class:`~repro.shareability.builder.DynamicShareabilityGraphBuilder` --
  Algorithm 1: incremental construction per batch using the grid index,
  deadline filtering and the angle pruning rule (Theorem III.1).
* :mod:`~repro.shareability.angle_pruning` -- geometric predicates and the
  expected-sharing-probability analysis under a log-normal trip-length model.
* :mod:`~repro.shareability.loss` -- shareability loss (Definition 6).
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
]
