"""Tests for the repro-lint static-analysis pass (repro.analysis).

Each rule is exercised against a violating/clean fixture pair from
``tests/lint_fixtures/`` with exact line-number assertions, followed by
waiver semantics and the CLI exit codes (including the synthetic-violation
gate the CI job relies on).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, rule_catalog
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import (
    EXCLUDED_DIRS,
    FileReport,
    analyze_source,
    iter_python_files,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: Virtual paths used to lint fixture sources in and out of rule scope.
IN_SCOPE = "src/repro/fake/fixture.py"
TEST_SCOPE = "tests/fixture.py"


def lint_fixture(name: str, virtual_path: str = IN_SCOPE) -> FileReport:
    source = (FIXTURES / name).read_text(encoding="utf-8")
    return analyze_source(virtual_path, source)


def hits(report: FileReport) -> list[tuple[str, int]]:
    return [(v.code, v.line) for v in report.violations]


# ---------------------------------------------------------------------------
# Rule-by-rule: exact codes and line numbers.
# ---------------------------------------------------------------------------


class TestDET001:
    def test_flags_wall_clock_calls(self) -> None:
        report = lint_fixture("det001_violating.py")
        assert hits(report) == [("DET001", 9), ("DET001", 13), ("DET001", 17)]

    def test_perf_counter_is_clean(self) -> None:
        assert hits(lint_fixture("det001_clean.py")) == []

    def test_out_of_scope_paths_are_exempt(self) -> None:
        # The rule only covers simulation code under src/repro/.
        assert hits(lint_fixture("det001_violating.py", TEST_SCOPE)) == []


class TestDET002:
    def test_flags_module_global_rng(self) -> None:
        report = lint_fixture("det002_violating.py")
        assert hits(report) == [("DET002", 6), ("DET002", 10), ("DET002", 11)]

    def test_applies_outside_src_too(self) -> None:
        report = lint_fixture("det002_violating.py", TEST_SCOPE)
        assert [code for code, _ in hits(report)] == ["DET002"] * 3

    def test_seeded_stream_is_clean(self) -> None:
        assert hits(lint_fixture("det002_clean.py")) == []


class TestDET003:
    def test_flags_ordered_iteration_over_sets(self) -> None:
        report = lint_fixture("det003_violating.py")
        assert hits(report) == [("DET003", 7), ("DET003", 9), ("DET003", 10)]

    def test_sorted_and_reductions_are_clean(self) -> None:
        assert hits(lint_fixture("det003_clean.py")) == []


class TestDET003RebindRegression:
    def _det003_lines(self, source: str) -> list[int]:
        report = analyze_source(IN_SCOPE, textwrap.dedent(source))
        return [v.line for v in report.violations if v.code == "DET003"]

    def test_frozenset_named_constant_not_flagged(self) -> None:
        assert (
            self._det003_lines(
                """
                KINDS = frozenset({"a", "b"})
                for kind in KINDS:
                    print(kind)
                """
            )
            == []
        )

    def test_rebound_to_sorted_not_flagged(self) -> None:
        assert (
            self._det003_lines(
                """
                def order(items: list) -> list:
                    pending = set(items)
                    pending = sorted(pending)
                    return [x for x in pending]
                """
            )
            == []
        )

    def test_iteration_before_rebind_still_flagged(self) -> None:
        lines = self._det003_lines(
            """
            def order(items: list) -> list:
                pending = set(items)
                out = [x for x in pending]
                pending = sorted(pending)
                return out
            """
        )
        assert lines == [4]

    def test_direct_frozenset_iteration_still_flagged(self) -> None:
        lines = self._det003_lines(
            """
            for kind in frozenset({"a", "b"}):
                print(kind)
            """
        )
        assert lines == [2]

    def test_plain_set_still_flagged(self) -> None:
        lines = self._det003_lines(
            """
            def order(items: list) -> list:
                pending = set(items)
                return [x for x in pending]
            """
        )
        assert lines == [4]


class TestSTY001:
    def test_flags_swallowing_handlers(self) -> None:
        report = lint_fixture("sty001_violating.py")
        assert hits(report) == [("STY001", 7), ("STY001", 14)]

    def test_reraise_and_narrow_types_are_clean(self) -> None:
        assert hits(lint_fixture("sty001_clean.py")) == []


# ---------------------------------------------------------------------------
# Waiver semantics.
# ---------------------------------------------------------------------------


class TestWaivers:
    def test_reasoned_waiver_suppresses_matching_code_only(self) -> None:
        report = lint_fixture("waivers.py")
        # Line 5: suppressed with a reason.  Line 6: suppressed but
        # reasonless -> WVR001.  Line 7: waiver names the wrong code, so
        # the DET002 violation survives (the waiver itself has a reason).
        assert hits(report) == [("WVR001", 6), ("DET002", 7)]

    def test_waivers_are_recorded_for_statistics(self) -> None:
        report = lint_fixture("waivers.py")
        assert [w.line for w in report.waivers] == [5, 6, 7]
        assert report.waivers[0].reason

    def test_wvr001_itself_cannot_be_waived(self) -> None:
        source = "x = 1  # repro-lint: disable=WVR001\n"
        report = analyze_source(IN_SCOPE, source)
        assert hits(report) == [("WVR001", 1)]


# ---------------------------------------------------------------------------
# Catalog, discovery and CLI.
# ---------------------------------------------------------------------------


class TestCatalogAndDiscovery:
    def test_catalog_codes_are_unique_and_documented(self) -> None:
        codes = [code for code, _summary in rule_catalog()]
        assert codes == ["DET001", "DET002", "DET003", "STY001", "WVR001"]
        for rule in RULES:
            assert rule.__doc__, f"{rule.code} has no docstring"

    def test_fixture_dir_is_excluded_from_walks(self, tmp_path: Path) -> None:
        assert "lint_fixtures" in EXCLUDED_DIRS
        nested = tmp_path / "lint_fixtures"
        nested.mkdir()
        (nested / "skipme.py").write_text("import random\n")
        (tmp_path / "seen.py").write_text("x = 1\n")
        walked = iter_python_files([tmp_path])
        assert [p.name for p in walked] == ["seen.py"]
        # Explicitly named files are linted even inside excluded dirs.
        explicit = iter_python_files([nested / "skipme.py"])
        assert [p.name for p in explicit] == ["skipme.py"]


def _make_repo(tmp_path: Path, body: str) -> Path:
    pkg = tmp_path / "src" / "repro" / "fake"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(body, encoding="utf-8")
    return tmp_path


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path: Path, capsys) -> None:
        root = _make_repo(tmp_path, "x = 1\n")
        assert lint_main(["--root", str(root)]) == 0

    def test_synthetic_violation_fails_the_gate(self, tmp_path: Path, capsys) -> None:
        # The same seeded violation the CI static-analysis job plants to
        # prove the gate actually fails: a wall-clock read in src/repro/.
        root = _make_repo(tmp_path, "import time\n_BOOT = time.time()\n")
        assert lint_main(["--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_missing_path_exits_two(self, tmp_path: Path, capsys) -> None:
        assert lint_main(["--root", str(tmp_path), str(tmp_path / "nope")]) == 2

    def test_list_rules(self, capsys) -> None:
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            code for code, _summary in rule_catalog()
        ]

    def test_summary_table_is_written(self, tmp_path: Path, capsys) -> None:
        root = _make_repo(tmp_path, "import time\n_BOOT = time.time()\n")
        summary = tmp_path / "summary.md"
        assert lint_main(["--root", str(root), "--summary", str(summary)]) == 1
        text = summary.read_text()
        assert "## repro-lint" in text
        assert "| DET001 | 1 |" in text
        assert "### Violations" in text


# ---------------------------------------------------------------------------
# The real tree is clean, and mypy (when available) agrees.
# ---------------------------------------------------------------------------


REPO_ROOT = Path(__file__).parent.parent


class TestRealTree:
    def test_repo_has_no_new_violations(self, capsys) -> None:
        code = lint_main(
            [
                "--root",
                str(REPO_ROOT),
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, f"repro-lint found violations:\n{out}"

    def test_every_waiver_in_src_has_a_reason(self) -> None:
        from repro.analysis.engine import analyze_paths

        reports = analyze_paths([REPO_ROOT / "src"], REPO_ROOT)
        reasonless = [
            f"{report.path}:{waiver.line}"
            for report in reports
            for waiver in report.waivers
            if not waiver.reason
        ]
        assert reasonless == []


def test_mypy_strict_tiers() -> None:
    """Strict-tier modules typecheck; skipped when mypy is absent locally."""
    api = pytest.importorskip("mypy.api")
    stdout, stderr, status = api.run(
        ["--config-file", str(REPO_ROOT / "pyproject.toml"), "-p", "repro"]
    )
    assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
