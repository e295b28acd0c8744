"""Tests for the nomadlint static-analysis subsystem (rule registry,
fixture suite, suppressions, baseline ratchet, reporters, and the CLI
surfaces)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.baseline import load_baseline, ratchet, write_baseline
from repro.analysis.context import ModuleContext
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import (
    HYGIENE_TIER,
    INVARIANT_TIER,
    META_CODE_MALFORMED_SUPPRESSION,
    RULES,
    Rule,
    ensure_rules_loaded,
    register_rule,
    rules_table,
)
from repro.analysis.runner import analyze_paths, iter_python_files
from repro.analysis.runner import main as analysis_main
from repro.analysis.suppressions import (
    apply_suppressions,
    collect_suppressions,
)
from repro.cli import main as cli_main
from repro.errors import AnalysisError, ReproError

FIXTURES = Path(__file__).parent / "analysis_fixtures"

ALL_CODES = (
    "NMD001",
    "NMD002",
    "NMD003",
    "NMD004",
    "NMD005",
    "NMD006",
    "NMD101",
    "NMD102",
    "NMD103",
    "NMD104",
)

#: rule code -> (flagged fixture, expected finding count, clean fixture)
FIXTURE_PAIRS = {
    "NMD001": ("runtime/nmd001_flagged.py", 3, "runtime/nmd001_clean.py"),
    "NMD002": ("nmd002_flagged.py", 1, "nmd002_clean.py"),
    "NMD003": ("nmd003_flagged.py", 2, "nmd003_clean.py"),
    "NMD004": ("nmd004_flagged.py", 2, "nmd004_clean.py"),
    "NMD005": ("runtime/nmd005_flagged.py", 2, "runtime/nmd005_clean.py"),
    "NMD006": ("runtime/nmd006_flagged.py", 2, "runtime/nmd006_clean.py"),
    "NMD101": ("nmd101_flagged.py", 2, "nmd101_clean.py"),
    "NMD102": ("nmd102_flagged.py", 3, "nmd102_clean.py"),
    "NMD103": ("nmd103_flagged.py", 3, "nmd103_clean.py"),
    "NMD104": ("runtime/nmd104_flagged.py", 2, "runtime/multiprocess.py"),
}


def codes_of(report):
    return sorted(f.code for f in report.ratchet.new)


def analyze_fixture(name):
    return analyze_paths([str(FIXTURES / name)])


# ---------------------------------------------------------------------------
# Rule registry


class TestRegistry:
    def test_all_rules_registered(self):
        ensure_rules_loaded()
        assert set(ALL_CODES) <= set(RULES)

    def test_tiers_match_code_ranges(self):
        ensure_rules_loaded()
        for code, rule in RULES.items():
            number = int(code[3:])
            expected = INVARIANT_TIER if number < 100 else HYGIENE_TIER
            assert rule.tier == expected, code

    def test_duplicate_code_rejected(self):
        ensure_rules_loaded()

        with pytest.raises(AnalysisError, match="already registered"):

            @register_rule
            class Clash(Rule):
                code = "NMD001"
                name = "clash"
                description = "duplicate code"

    def test_malformed_code_rejected(self):
        with pytest.raises(AnalysisError, match="malformed code"):

            @register_rule
            class Bad(Rule):
                code = "NMD1"
                name = "bad"
                description = "short code"

    def test_meta_code_reserved(self):
        with pytest.raises(AnalysisError, match="reserved"):

            @register_rule
            class Meta(Rule):
                code = META_CODE_MALFORMED_SUPPRESSION
                name = "meta"
                description = "framework-only code"

    def test_name_and_description_required(self):
        with pytest.raises(AnalysisError, match="name and a description"):

            @register_rule
            class Nameless(Rule):
                code = "NMD999"

    def test_rules_table_lists_every_rule(self):
        rows = list(rules_table())
        assert [row[0] for row in rows] == sorted(RULES)
        for code, name, tier, description in rows:
            assert name and description
            assert tier in (INVARIANT_TIER, HYGIENE_TIER)


# ---------------------------------------------------------------------------
# Fixture suite: one flagged + one clean fixture per rule


class TestFixtures:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_flagged_fixture_fires(self, code):
        flagged, count, _ = FIXTURE_PAIRS[code]
        report = analyze_fixture(flagged)
        assert codes_of(report) == [code] * count

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_clean_fixture_is_silent(self, code):
        _, _, clean = FIXTURE_PAIRS[code]
        report = analyze_fixture(clean)
        assert codes_of(report) == []
        assert report.exit_code == 0


class TestHttpServerAcquisition:
    """NMD004 extension for repro.serve: an HTTP server binds its
    listening socket at construction, so acquiring one without a close
    path leaks the socket like any raw ``socket.create_server``."""

    def test_flagged_http_fixture_fires(self):
        report = analyze_fixture("nmd004_http_flagged.py")
        assert codes_of(report) == ["NMD004", "NMD004"]
        symbols = {f.symbol for f in report.ratchet.new}
        assert symbols == {"LeakyService.__init__", "serve_once"}

    def test_clean_http_fixture_is_silent(self):
        report = analyze_fixture("nmd004_http_clean.py")
        assert codes_of(report) == []
        assert report.exit_code == 0


class TestAcceptanceCriteria:
    """The two regressions the checker exists to make unrepresentable."""

    def test_nmd003_catches_the_shared_memory_leak(self):
        # nmd003_flagged.py reproduces the MultiprocessNomad leak fixed
        # in PR 4: blocks closed in the finally but never unlinked.
        report = analyze_fixture("nmd003_flagged.py")
        assert codes_of(report) == ["NMD003", "NMD003"]
        assert report.exit_code == 1

    def test_nmd001_catches_non_owner_factor_write(self):
        report = analyze_fixture("runtime/nmd001_flagged.py")
        symbols = {f.symbol for f in report.ratchet.new}
        assert symbols == {"rebalance", "sneaky_update", "sneaky_batch"}
        # The owner-guarded write in worker() is not flagged.
        assert "worker" not in symbols

    def test_nmd001_covers_shard_indexed_kernel(self):
        flagged = analyze_fixture("runtime/nmd001_items_flagged.py")
        assert codes_of(flagged) == ["NMD001"]
        assert {f.symbol for f in flagged.ratchet.new} == {"replay_burst"}
        clean = analyze_fixture("runtime/nmd001_items_clean.py")
        assert codes_of(clean) == []

    def test_nmd001_respects_owner_declaration(self, tmp_path):
        # Without a __nomad_owner_contexts__ declaration every factor
        # write in a substrate module is flagged — new substrates must
        # declare their owner contexts to write at all.
        runtime = tmp_path / "runtime"
        runtime.mkdir()
        mod = runtime / "undeclared.py"
        mod.write_text(
            "def worker(h, token, payload):\n"
            "    h[token.item] = payload\n"
        )
        report = analyze_paths([str(mod)])
        assert codes_of(report) == ["NMD001"]


# ---------------------------------------------------------------------------
# Suppressions


def module_from(tmp_path, source, name="scratch.py"):
    path = tmp_path / name
    path.write_text(source)
    return ModuleContext(str(path), source)


class TestSuppressions:
    def test_reasoned_suppressions_silence_findings(self):
        report = analyze_fixture("suppressed_ok.py")
        assert codes_of(report) == []
        assert report.exit_code == 0
        silenced = sorted(f.code for f, _ in report.suppressed)
        assert silenced == ["NMD101", "NMD102", "NMD102", "NMD102"]
        for _, suppression in report.suppressed:
            assert suppression.reason

    def test_reasonless_suppression_is_nmd000_and_does_not_silence(self):
        report = analyze_fixture("suppressed_no_reason.py")
        codes = codes_of(report)
        # Both malformed markers surface, and the underlying findings
        # stay live.
        assert codes.count("NMD000") == 2
        assert "NMD101" in codes
        assert "NMD102" in codes
        assert report.suppressed == []

    def test_multi_code_comment_parses_every_code(self, tmp_path):
        module = module_from(
            tmp_path,
            "x = 1  # nomadlint: ignore[NMD101, NMD102]: two codes, one"
            " comment\n",
        )
        suppressions, malformed = collect_suppressions(module)
        assert malformed == []
        (sup,) = suppressions
        assert sup.codes == frozenset({"NMD101", "NMD102"})
        assert sup.reason == "two codes, one comment"
        assert sup.target_line == 1

    def test_standalone_comment_targets_next_statement(self, tmp_path):
        module = module_from(
            tmp_path,
            "# nomadlint: ignore[NMD005]: scratch harness, not a runtime\n"
            "\n"
            "# an unrelated comment\n"
            "import time\n",
        )
        (sup,) = collect_suppressions(module)[0]
        assert sup.line == 1
        assert sup.target_line == 4

    def test_invalid_code_is_malformed(self, tmp_path):
        module = module_from(
            tmp_path, "x = 1  # nomadlint: ignore[BOGUS]: nope\n"
        )
        suppressions, malformed = collect_suppressions(module)
        assert suppressions == []
        (finding,) = malformed
        assert finding.code == "NMD000"
        assert "invalid rule code" in finding.message

    def test_nmd000_itself_cannot_be_suppressed(self, tmp_path):
        module = module_from(
            tmp_path, "x = 1  # nomadlint: ignore[NMD000]: silence the cop\n"
        )
        suppressions, malformed = collect_suppressions(module)
        assert suppressions == []
        (finding,) = malformed
        assert "cannot be suppressed" in finding.message

    def test_suppression_only_matches_its_line_and_codes(self, tmp_path):
        module = module_from(
            tmp_path,
            "def f(b=[]):  # nomadlint: ignore[NMD101]: wrong code on"
            " purpose\n"
            "    return b\n",
        )
        ensure_rules_loaded()
        from repro.analysis.rules import run_rules

        findings = run_rules(module)
        suppressions, _ = collect_suppressions(module)
        live, silenced = apply_suppressions(findings, suppressions)
        assert [f.code for f in live] == ["NMD102"]
        assert silenced == []

    def test_docstring_mention_is_not_a_suppression(self, tmp_path):
        module = module_from(
            tmp_path,
            '"""Docs showing # nomadlint: ignore[NMD001] syntax."""\n'
            "x = 1\n",
        )
        suppressions, malformed = collect_suppressions(module)
        assert suppressions == []
        assert malformed == []


# ---------------------------------------------------------------------------
# Baseline ratchet


VIOLATION = "def collect(item, bucket=[]):\n    return bucket\n"


class TestBaselineRatchet:
    def test_baselined_finding_passes(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        baseline_path = tmp_path / "baseline.json"
        first = analyze_paths([str(mod)])
        write_baseline(str(baseline_path), first.ratchet.new)

        report = analyze_paths(
            [str(mod)], baseline=load_baseline(str(baseline_path))
        )
        assert report.exit_code == 0
        assert [f.code for f in report.ratchet.baselined] == ["NMD102"]
        assert report.ratchet.stale == []

    def test_new_finding_fails(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(
            str(baseline_path), analyze_paths([str(mod)]).ratchet.new
        )

        mod.write_text(VIOLATION + "def index(pairs, table={}):\n    return table\n")
        report = analyze_paths(
            [str(mod)], baseline=load_baseline(str(baseline_path))
        )
        assert report.exit_code == 1
        assert len(report.ratchet.new) == 1
        assert report.ratchet.new[0].symbol == "index"
        assert len(report.ratchet.baselined) == 1

    def test_removed_finding_is_stale_and_update_shrinks(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(
            str(baseline_path), analyze_paths([str(mod)]).ratchet.new
        )

        mod.write_text("def collect(item, bucket=None):\n    return bucket\n")
        report = analyze_paths(
            [str(mod)], baseline=load_baseline(str(baseline_path))
        )
        assert report.exit_code == 0
        assert len(report.ratchet.stale) == 1

        # --update-baseline rewrites from current findings: the file
        # shrinks to empty.
        rewritten = write_baseline(str(baseline_path), report.ratchet.new)
        assert rewritten.entries == []
        assert load_baseline(str(baseline_path)).entries == []

    def test_fingerprint_survives_line_drift(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(
            str(baseline_path), analyze_paths([str(mod)]).ratchet.new
        )

        # Push the violation down the file; the fingerprint hashes the
        # line's text, not its number, so it stays baselined.
        mod.write_text('"""A new docstring."""\n\nX = 1\n\n' + VIOLATION)
        report = analyze_paths(
            [str(mod)], baseline=load_baseline(str(baseline_path))
        )
        assert report.exit_code == 0
        assert len(report.ratchet.baselined) == 1

    def test_duplicate_of_baselined_violation_is_new(self, tmp_path):
        # Multiset semantics: a second identical copy of a baselined
        # line is NOT covered by the single baseline entry.
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(
            str(baseline_path), analyze_paths([str(mod)]).ratchet.new
        )

        mod.write_text(
            "def collect(item, bucket=[]):\n"
            "    return bucket\n"
            "def collect2(item, bucket=[]):\n"
            "    return bucket\n"
        )
        report = analyze_paths(
            [str(mod)], baseline=load_baseline(str(baseline_path))
        )
        assert report.exit_code == 1
        assert len(report.ratchet.new) == 1
        assert len(report.ratchet.baselined) == 1

    def test_missing_baseline_is_an_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="--update-baseline"):
            load_baseline(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"tool": "other"}, "not a nomadlint baseline"),
            ({"tool": "nomadlint", "version": 99}, "version"),
            (
                {"tool": "nomadlint", "version": 1, "findings": [{"x": 1}]},
                "malformed",
            ),
        ],
    )
    def test_bad_baseline_rejected(self, tmp_path, payload, match):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(AnalysisError, match=match):
            load_baseline(str(path))

    def test_ratchet_without_baseline_marks_everything_new(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        report = analyze_paths([str(mod)])
        assert report.exit_code == 1
        outcome = ratchet(report.ratchet.new, None)
        assert outcome.baselined == [] and outcome.stale == []


# ---------------------------------------------------------------------------
# Reporters


class TestReporters:
    def make_report(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            VIOLATION
            + "def ok(x, b=[]):  # nomadlint: ignore[NMD102]: demo\n"
            "    return b\n"
        )
        return analyze_paths([str(mod)])

    def test_json_schema_is_stable(self, tmp_path):
        payload = json.loads(render_json(self.make_report(tmp_path)))
        # Pinned key sets: consumers parse this schema, so keys are only
        # ever added (with a version bump), never renamed or dropped.
        assert set(payload) == {
            "tool",
            "version",
            "findings",
            "suppressed",
            "stale_baseline",
            "summary",
        }
        assert payload["tool"] == "nomadlint"
        assert payload["version"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {
            "code",
            "message",
            "path",
            "line",
            "col",
            "symbol",
            "fingerprint",
            "status",
        }
        assert finding["status"] == "new"
        (suppressed,) = payload["suppressed"]
        assert set(suppressed) == set(finding) | {
            "reason",
            "suppression_line",
        }
        assert suppressed["status"] == "suppressed"
        assert set(payload["summary"]) == {
            "files",
            "new",
            "baselined",
            "suppressed",
            "stale_baseline",
        }

    def test_text_report_mentions_code_and_verdict(self, tmp_path):
        text = render_text(self.make_report(tmp_path))
        assert "NMD102" in text
        assert "FAIL" in text
        assert "suppressed — demo" in text

    def test_clean_text_report_says_ok(self):
        report = analyze_fixture("nmd102_clean.py")
        assert render_text(report).strip().endswith("ok")


# ---------------------------------------------------------------------------
# CLI surfaces: repro-nomad analyze and python -m repro.analysis


class TestCli:
    def test_analyze_update_then_pass_then_fail(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        baseline = tmp_path / "baseline.json"

        assert (
            cli_main(
                [
                    "analyze",
                    "--update-baseline",
                    "--baseline",
                    str(baseline),
                    str(mod),
                ]
            )
            == 0
        )
        assert cli_main(
            ["analyze", "--baseline", str(baseline), str(mod)]
        ) == 0

        mod.write_text(VIOLATION + "def g(t={}):\n    return t\n")
        assert cli_main(
            ["analyze", "--baseline", str(baseline), str(mod)]
        ) == 1
        capsys.readouterr()

    def test_analyze_json_format(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        code = cli_main(["analyze", "--format", "json", str(mod)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["tool"] == "nomadlint"
        assert payload["summary"]["new"] == 1

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text("x = 1\n")
        code = cli_main(
            ["analyze", "--baseline", str(tmp_path / "nope.json"), str(mod)]
        )
        assert code == 2
        capsys.readouterr()

    def test_module_entry_point_matches_cli(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(VIOLATION)
        assert analysis_main([str(mod)]) == 1
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ALL_CODES:
            assert code in out

    def test_update_baseline_requires_baseline_path(self, capsys):
        assert analysis_main(["--update-baseline"]) == 2
        assert "requires --baseline" in capsys.readouterr().err

    def test_python_dash_m_entry(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(Path(__file__).parent.parent),
        )
        assert result.returncode == 0
        assert "NMD001" in result.stdout


# ---------------------------------------------------------------------------
# Repo invariants: the committed baseline and the live tree


class TestRepoState:
    def test_src_tree_is_clean_against_committed_baseline(self):
        repo = Path(__file__).parent.parent
        baseline = load_baseline(str(repo / "results" / "analysis_baseline.json"))
        report = analyze_paths([str(repo / "src")], baseline=baseline)
        assert report.exit_code == 0, render_text(report)
        assert report.ratchet.stale == []

    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-310.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        files = iter_python_files([str(tmp_path)])
        assert [Path(f).name for f in files] == ["a.py"]

    def test_missing_path_is_an_error(self):
        with pytest.raises(AnalysisError, match="no such file"):
            iter_python_files(["definitely/not/a/path"])

    def test_analysis_error_is_a_repro_error(self):
        assert issubclass(AnalysisError, ReproError)
