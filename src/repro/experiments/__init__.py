"""Experiment harness reproducing every table and figure of the paper.

* :mod:`~repro.experiments.harness` -- the one way a simulation is launched:
  :func:`~repro.experiments.harness.run` over one typed
  :class:`~repro.experiments.harness.RunSpec` (whose fields add a scenario,
  chaos, tracing or the service to the run); a grid is a list of specs.
* :mod:`~repro.experiments.figures` -- the paper's artefacts in paper units
  (Figures 8-17 as one table of sweeps, Tables V-VI, the insertion-order
  study), built on grids of plain specs.

A run's numbers are its ``MetricsCollector`` under the ``METRICS`` field
names; figure, ablation, scenario and chaos rows are cell coordinates
followed by some of those fields (``harness.metric_row``).
"""

from .harness import RunResult, RunSpec, run
from . import figures

__all__ = [
    "RunResult",
    "RunSpec",
    "run",
    "figures",
]
