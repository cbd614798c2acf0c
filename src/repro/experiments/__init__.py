"""Experiment harness reproducing every table and figure of the paper.

* :mod:`~repro.experiments.harness` -- the one way a simulation is launched:
  :func:`~repro.experiments.harness.run` over one typed
  :class:`~repro.experiments.harness.RunSpec` (whose fields add a scenario,
  chaos, tracing or the service to the run),
  :func:`~repro.experiments.harness.run_grid` over many.
* :mod:`~repro.experiments.figures` -- the paper's artefacts in paper units
  (Figures 8-17 as one table of sweeps, Tables V-VI, the insertion-order
  study), built on grids of plain specs.
* :mod:`~repro.experiments.reporting` -- turns result rows into the text /
  CSV tables printed by the benchmark harness.
"""

from .harness import RunResult, RunSpec, run, run_grid
from .figures import ResultRow, SweepResult
from .reporting import format_rows, rows_to_csv
from . import figures

__all__ = [
    "ResultRow",
    "RunResult",
    "RunSpec",
    "SweepResult",
    "run",
    "run_grid",
    "format_rows",
    "rows_to_csv",
    "figures",
]
