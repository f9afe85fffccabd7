"""`repro check`: the umbrella gate over lint + arch + audit + certify."""

import json

import pytest

from repro.analysis.cli import CHECK_NAMES, run_checks
from repro.cli import main

DIRTY = "def check(a):\n    return a == 0.0\n"


@pytest.fixture
def dirty_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "dirty.py").write_text(DIRTY)
    return pkg


class TestRunChecks:
    def test_static_checks_on_src_pass(self):
        code, report = run_checks(["src"], skip=("audit", "certify"))
        assert code == 0
        assert report["summary"]["ran"] == ["lint", "arch"]
        assert report["summary"]["skipped"] == ["audit", "certify"]
        assert report["checks"]["lint"]["exit_code"] == 0
        assert report["checks"]["arch"]["exit_code"] == 0
        assert report["checks"]["audit"] == {"skipped": True}

    def test_worst_of_exit_code(self, dirty_tree):
        # Lint fails on the fixture; arch is clean there: worst wins.
        code, report = run_checks(
            [str(dirty_tree)], skip=("audit", "certify"),
        )
        assert code == 1
        assert report["checks"]["lint"]["exit_code"] == 1
        assert report["summary"]["exit_code"] == 1

    def test_check_order_is_stable(self):
        assert CHECK_NAMES == ("lint", "arch", "audit", "certify")


class TestCheckCli:
    def test_text_output_and_exit(self, capsys):
        assert main([
            "check", "src", "--skip", "audit", "--skip", "certify",
        ]) == 0
        out = capsys.readouterr().out
        assert "lint" in out and "arch" in out
        assert "skipped" in out
        assert "check: exit 0" in out

    def test_json_report_shape(self, capsys):
        assert main([
            "check", "src", "--skip", "audit", "--skip", "certify",
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["checks"]) == set(CHECK_NAMES)
        assert payload["summary"]["exit_code"] == 0
        arch = payload["checks"]["arch"]
        assert arch["findings"] == []
        assert arch["summary"]["errors"] == 0

    def test_out_file_written(self, tmp_path, capsys):
        out = tmp_path / "check-report.json"
        assert main([
            "check", "src", "--skip", "audit", "--skip", "certify",
            "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["ran"] == ["lint", "arch"]
        capsys.readouterr()

    def test_findings_fail_the_gate(self, dirty_tree, capsys):
        assert main([
            "check", str(dirty_tree),
            "--skip", "audit", "--skip", "certify",
        ]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_certify_slots_exits_two(self, capsys):
        assert main(["check", "--certify-slots", "0"]) == 2
        assert "certify-slots" in capsys.readouterr().err

    def test_lint_findings_count_as_errors(self, tmp_path, capsys):
        # Lint findings carry severity "error"; the summary used to
        # report them as "0 error(s)" with summary.errors == 0.
        bad = tmp_path / "bad.py"
        bad.write_text(DIRTY)
        skips = ["--skip", "arch", "--skip", "audit", "--skip", "certify"]
        assert main(["check", str(bad), *skips]) == 1
        assert "lint     FAIL  1 finding(s): 1 error(s)" in (
            capsys.readouterr().out
        )
        assert main(["check", str(bad), *skips, "--format", "json"]) == 1
        lint = json.loads(capsys.readouterr().out)["checks"]["lint"]
        assert lint["summary"]["errors"] == 1
        assert lint["findings"][0]["severity"] == "error"

    @pytest.mark.parametrize("flags", [
        ["--slot", "24", "--skip", "certify"],
        ["--certify-slots", "25", "--skip", "audit"],
        ["--scenario", "section7", "--slot", "7", "--skip", "certify"],
    ])
    def test_out_of_range_slots_exit_two(self, flags, capsys):
        # The traces would wrap the index silently (slot 24 is slot 0).
        skips = ["--skip", "lint", "--skip", "arch"]
        assert main(["check", *skips, *flags]) == 2
        out = capsys.readouterr().out
        assert "usage error: slot" in out
        assert "trace has" in out and "slot(s)" in out

    def test_solver_checks_run(self, capsys):
        """Smoke the audit + certify legs on the default scenario."""
        assert main([
            "check", "src", "--skip", "lint", "--skip", "arch",
        ]) == 0
        out = capsys.readouterr().out
        assert "audit" in out and "certify" in out
