"""Schedule maintenance operators.

* :mod:`~repro.insertion.linear_insertion` -- the linear insertion operator
  of Tong et al. [37] that the paper adopts (Section IV-A): insert a
  request's pick-up and drop-off into the current schedule without
  reordering existing stops, minimising the added travel cost.
* :mod:`~repro.insertion.pair_schedules` -- the two-request feasibility test
  that defines edges of the shareability graph.
"""

from .linear_insertion import InsertionOutcome, best_insertion, insert_sequence
from .pair_schedules import are_shareable, best_pair_schedule, pair_orderings

__all__ = [
    "InsertionOutcome",
    "best_insertion",
    "insert_sequence",
    "are_shareable",
    "best_pair_schedule",
    "pair_orderings",
]
