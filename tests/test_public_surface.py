"""The top-level namespace holds the front door and the names read from outside.

``repro.__all__`` is exactly the names the README, the examples and the
performance ledger under ``benchmarks/ledger/`` use, plus ``RunResult``
and ``__version__``; everything else is imported from its subpackage.  The
ledger is frozen between benchmark changes, so a later trim of any
namespace it imports from must not break it: its sources are parsed (never
imported) and every ``repro`` name they read is looked up.
"""

from __future__ import annotations

import ast
import importlib
from collections.abc import Iterator
from pathlib import Path

import repro

FRONT_DOOR = {
    "__version__",
    # the front door
    "RunSpec", "RunResult", "run",
    "DispatchService", "RideRequest", "ServiceResult", "AssignmentEventKind",
    "RejectionReason", "ServiceConfig",
    # building a run by hand
    "make_workload", "make_scenario_workload", "ScenarioConfig",
    "make_refresh_policy", "Simulator", "SARDDispatcher", "DISPATCHER_REGISTRY",
    "make_dispatcher", "make_chaos_config", "ResilienceManager",
    # tracing
    "tracing", "SpanTracer", "use_tracer",
    # the layers the ledger times
    "Vehicle", "Schedule", "DistanceOracle", "GridIndex",
    "DynamicShareabilityGraphBuilder", "shareability_loss", "build_groups",
    "best_insertion", "best_pair_schedule",
}

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"


def test_all_is_the_front_door_and_every_name_resolves():
    assert len(repro.__all__) == len(set(repro.__all__))
    assert set(repro.__all__) == FRONT_DOOR
    for name in repro.__all__:
        assert hasattr(repro, name), name


def _ledger_reads() -> Iterator[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro... import name`` and
    every ``repro.name`` attribute in the ledger's sources."""
    for path in sorted(LEDGER.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module is not None
                and node.module.split(".")[0] == "repro"
            ):
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "repro"
            ):
                yield path.name, "repro", node.attr


def test_every_repro_name_the_ledger_reads_exists():
    reads = list(_ledger_reads())
    assert any(module == "repro" for _, module, _ in reads)
    missing = [
        (file, module, name)
        for file, module, name in reads
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"the ledger reads names that are gone: {missing}"
