"""Smoke tests of the ledger itself: ``pytest benchmarks/ledger``.

Outside the tier-1 ``testpaths``.  Every workload runs at 5 % of its
requests (``run.py --smoke``), twice, in child processes; the probe test
replays in-process.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory) -> list[dict]:
    """Two smoke ledgers of the same seed."""
    documents = []
    for index in range(2):
        out = tmp_path_factory.mktemp(f"ledger{index}")
        assert run.main(["--smoke", "--out", str(out)]) == 0
        documents.append(json.loads((out / "ledger.json").read_text()))
    return documents


def test_every_metric_is_reported_with_its_unit(ledgers):
    for name, document in ledgers[0]["workloads"].items():
        assert NAME.fullmatch(name)
        assert document["correct"], document["failures"]
        for group, catalogue in (
            ("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)
        ):
            assert list(document[group]) == [metric.name for metric in catalogue]
            for metric in catalogue:
                reported = document[group][metric.name]
                assert NAME.fullmatch(metric.name) and UNIT.fullmatch(metric.unit)
                assert reported["unit"] == metric.unit
                assert isinstance(reported["value"], (int, float))
    assert set(ledgers[0]["workloads"]) == set(workloads.WORKLOADS_BY_NAME)


def test_trace_covers_the_replay(ledgers):
    for document in ledgers[0]["workloads"].values():
        coverage = document["per_layer"]["trace.coverage"]["value"]
        assert coverage >= metrics.MIN_COVERAGE


def test_exact_metrics_repeat(ledgers):
    first, second = (ledger["workloads"] for ledger in ledgers)
    for name in first:
        assert first[name]["digest"] == second[name]["digest"]
        for key in ("ops_attempted", "ops_unserved", "ops_failed"):
            assert first[name][key] == second[name][key]
        for metric in metrics.END_TO_END:
            if metric.exact:
                assert (
                    first[name]["end_to_end"][metric.name]["value"]
                    == second[name]["end_to_end"][metric.name]["value"]
                )
        assert (
            first[name]["per_layer"]["mem.estimate_peak_mb"]
            == second[name]["per_layer"]["mem.estimate_peak_mb"]
        )


def test_compare_flags_only_real_regressions(ledgers, tmp_path):
    assert not [row for row in compare.compare(ledgers[0], ledgers[0]) if row[-1] != "same"]
    slower = copy.deepcopy(ledgers[0])
    for document in slower["workloads"].values():
        rate = document["end_to_end"]["requests_per_s"]
        rate["value"] *= 0.5
        rate["raw"] = [value * 0.5 for value in rate["raw"]]
        document["end_to_end"]["service_rate"]["value"] *= 0.99
    verdicts = {
        (workload, metric): result
        for workload, metric, _, _, result in compare.compare(ledgers[0], slower)
    }
    for name in workloads.WORKLOADS_BY_NAME:
        assert verdicts[name, "requests_per_s"] == "worse"
        assert verdicts[name, "service_rate"] == "worse"
        assert verdicts[name, "unified_cost"] == "same"
    paths = []
    for index, ledger in enumerate((ledgers[0], slower)):
        paths.append(tmp_path / f"{index}.json")
        paths[-1].write_text(json.dumps(ledger))
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert compare.main([str(paths[0]), str(paths[1])]) == 1


def test_benchmark_json_repeats_the_catalogue():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark["paths"] == [str(HERE.relative_to(ROOT))]
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS_BY_NAME)
    for entry in benchmark["workloads"]:
        assert entry["why"] == workloads.WORKLOADS_BY_NAME[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert benchmark["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert benchmark["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert all(m.bound <= 0.25 for m in metrics.END_TO_END)


def _driver_run(directory: Path, *arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *arguments],
        cwd=directory, capture_output=True, text=True, check=False,
    )


@pytest.mark.parametrize("trace", ("0", "1"))
def test_last_line_is_the_contract_result(trace):
    finished = _driver_run(
        ROOT, "--smoke", "--workload", "nyc_greedy", "--seed", "3",
        "--seconds", "1", "--trace", trace,
    )
    assert finished.returncode == 0, finished.stderr
    result = json.loads(finished.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    catalogue = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert list(result["metrics"]) == [metric.name for metric in catalogue]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    finished = _driver_run(tmp_path, "--workload", "nyc_sard", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
    assert finished.returncode != 0
    assert "correct" not in finished.stdout


def test_probe_restores_what_it_wrapped():
    import build
    from probe import LayerProbe, replay_sites
    from replay import exact_metrics, replay

    built = build.build(workloads.WORKLOADS_BY_NAME["nyc_sard"], seed=0, fraction=0.05)

    def digest() -> str:
        return exact_metrics(
            built.trace, replay(build.make_service(built), built.trace).result
        )["digest"]

    before = digest()
    with LayerProbe(replay_sites()) as probe:
        assert digest() == before
        assert probe.calls("insertion.best_insertion") > 0
        assert not probe.restored()
    assert probe.patched and probe.restored()
    assert digest() == before
