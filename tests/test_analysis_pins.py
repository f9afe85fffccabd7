"""Pinned output of the analysis subcommands on fixed inputs.

``tests/analysis_pins.json`` holds the text and JSON output of ``repro
lint``, ``arch``, ``audit``, ``certify`` and ``check`` captured from
the per-tool CLI modules before they were folded into one framework.
The current CLI must reproduce it, apart from two documented
differences applied by :func:`expected`:

* every ``RP`` finding record gains ``"severity": "error"``;
* ``repro check`` counts lint findings as errors (its summary used to
  report ``0 error(s)`` for a failing lint leg).

Regenerate the pin file only for a deliberate output change::

    PYTHONPATH=src python tests/test_analysis_pins.py tests/analysis_pins.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

PIN_FILE = Path(__file__).with_name("analysis_pins.json")

LINT_TREE = {
    "pkg/__init__.py": "",
    "pkg/numerics.py": (
        "import numpy as np\n\n\n"
        "def check(a, seen=[]):\n"
        "    seen.append(a)\n"
        "    return a == 0.0\n\n\n"
        "def noise():\n"
        "    return np.random.rand()\n"
    ),
    "pkg/excused.py": (
        "def same(a):\n"
        "    return a == 1.5  # reprolint: disable=RP001\n"
    ),
    "pkg/directive.py": "x = 1  # reprolint: disable=\n",
    "pkg/solvers/__init__.py": "",
    "pkg/solvers/core.py": (
        "def run():\n"
        "    try:\n"
        "        return 1\n"
        "    except:\n"
        "        return 0\n"
    ),
}

# A two-module import cycle (AR011) plus an unreferenced private helper.
ARCH_TREE = {
    "pkg/__init__.py": "",
    "pkg/low/__init__.py": "",
    "pkg/low/impl.py": (
        "from pkg.high.api import top\n\n\n"
        "def base():\n"
        "    return top()\n\n\n"
        "def _unused():\n"
        "    return 2\n"
    ),
    "pkg/high/__init__.py": "",
    "pkg/high/api.py": (
        "from pkg.low.impl import base\n\n\n"
        "def top():\n"
        "    return 1\n"
    ),
}

#: name -> (fixture tree, corrupt the certified solutions, argv)
CASES = {
    "lint_text": (LINT_TREE, False, ["lint", "pkg"]),
    "lint_json": (LINT_TREE, False, ["lint", "pkg", "--format", "json"]),
    "arch_text": (ARCH_TREE, False, ["arch", "pkg"]),
    "arch_json": (ARCH_TREE, False, ["arch", "pkg", "--format", "json"]),
    "audit_text": ({}, False, ["audit", "--scenario", "section7"]),
    "audit_json": (
        {}, False, ["audit", "--scenario", "section7", "--format", "json"],
    ),
    "certify_text": ({}, True, ["certify"]),
    "certify_json": ({}, True, ["certify", "--format", "json"]),
    "check_static_text": (
        LINT_TREE, False,
        ["check", "pkg", "--skip", "audit", "--skip", "certify"],
    ),
    "check_static_json": (
        LINT_TREE, False,
        ["check", "pkg", "--skip", "audit", "--skip", "certify",
         "--format", "json"],
    ),
    "check_solver_json": (
        {}, True,
        ["check", "--skip", "lint", "--skip", "arch",
         "--scenario", "section7", "--format", "json"],
    ),
}


#: Baseline files written by ``--write-baseline`` on the fixture trees.
BASELINES = {
    "lint": (LINT_TREE, ["lint", "pkg"]),
    "arch": (ARCH_TREE, ["arch", "pkg"]),
}


def _write_tree(root: Path, files) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


def _corrupting(certify_solution):
    """Wrap the certifier so every solve arrives with flipped duals."""

    def corrupted(problem, solution, **kwargs):
        if solution.ineq_marginals is not None:
            solution = replace(
                solution,
                ineq_marginals=-np.asarray(solution.ineq_marginals),
            )
        return certify_solution(problem, solution, **kwargs)

    return corrupted


def run_argv(argv, root: Path, files=None, corrupt: bool = False) -> dict:
    """Run ``repro <argv>`` in ``root`` over the fixture ``files``."""
    import repro.analysis.certify as certify_pkg
    from repro.cli import main

    _write_tree(root, files or {})
    original = certify_pkg.certify_solution
    cwd = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(root)
        if corrupt:
            certify_pkg.certify_solution = _corrupting(original)
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        certify_pkg.certify_solution = original
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue()}


def run_case(name: str, root: Path) -> dict:
    """Run one pinned case in the empty directory ``root``."""
    files, corrupt, argv = CASES[name]
    return run_argv(argv, root, files, corrupt)


def write_baseline(tool: str, root: Path) -> str:
    """Run ``repro <tool> --write-baseline`` in ``root``; the file text."""
    from repro.cli import main

    files, argv = BASELINES[tool]
    _write_tree(root, files)
    cwd = os.getcwd()
    try:
        os.chdir(root)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--baseline", "b.json", "--write-baseline"]) == 0
    finally:
        os.chdir(cwd)
    return (root / "b.json").read_text()


def _is_rp(record) -> bool:
    return isinstance(record, dict) and str(record.get("code", "")).startswith("RP")


def _add_rp_severity(payload):
    for record in payload.get("findings", []):
        if _is_rp(record):
            record.setdefault("severity", "error")
    return payload


def _fix_check_summary(check: dict) -> dict:
    for entry in check.get("checks", {}).values():
        findings = entry.get("findings", [])
        if any(_is_rp(record) for record in findings):
            _add_rp_severity(entry)
            entry["summary"]["errors"] = sum(
                1 for record in findings if record.get("severity") == "error"
            )
    return check


def expected(name: str, pinned: dict) -> dict:
    """The pinned parent output with the documented differences applied."""
    stdout = pinned["stdout"]
    if name.endswith("_json"):
        payload = json.loads(stdout)
        if name.startswith("check"):
            payload = _fix_check_summary(payload)
        else:
            payload = _add_rp_severity(payload)
        return {"exit": pinned["exit"], "json": payload}
    if name == "check_static_text":
        # The lint leg's findings are all errors now.
        stdout = re.sub(
            r"^(lint\s+FAIL\s+(\d+) finding\(s\): )0 error\(s\)",
            lambda m: f"{m.group(1)}{m.group(2)} error(s)",
            stdout, flags=re.M,
        )
    return {"exit": pinned["exit"], "stdout": stdout}


def _observed(name: str, result: dict) -> dict:
    if name.endswith("_json"):
        return {"exit": result["exit"], "json": json.loads(result["stdout"])}
    return result


@pytest.fixture(scope="module")
def pins():
    return json.loads(PIN_FILE.read_text())


def test_pin_file_covers_every_case(pins):
    assert sorted(pins["cases"]) == sorted(CASES)
    assert sorted(pins["baselines"]) == sorted(BASELINES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_pin(name, pins, tmp_path):
    assert _observed(name, run_case(name, tmp_path)) == expected(
        name, pins["cases"][name]
    )


@pytest.mark.parametrize("tool", sorted(BASELINES))
def test_pinned_baseline_absorbs_every_finding(
    tool, pins, tmp_path, monkeypatch, capsys
):
    from repro.cli import main

    files, argv = BASELINES[tool]
    _write_tree(tmp_path, files)
    (tmp_path / "pinned.json").write_text(pins["baselines"][tool])
    pinned = json.loads(pins["baselines"][tool])["findings"]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--baseline", "pinned.json"]) == 0
    assert f"{len(pinned)} baselined" in capsys.readouterr().out


#: tool -> (fixture tree, corrupt, arguments ``repro <tool>`` and
#: ``repro check`` share)
ALIASES = {
    "lint": (LINT_TREE, False, ["pkg"]),
    "arch": (ARCH_TREE, False, ["pkg"]),
    "audit": ({}, False, ["--scenario", "section7"]),
    "certify": ({}, True, []),
}


@pytest.mark.parametrize("tool", sorted(ALIASES))
def test_tool_alias_matches_its_check_leg(tool, tmp_path):
    files, corrupt, shared = ALIASES[tool]
    alone = run_argv(
        [tool, *shared, "--format", "json"], tmp_path / "alone", files,
        corrupt,
    )
    skips = [arg for other in ALIASES if other != tool
             for arg in ("--skip", other)]
    umbrella = run_argv(
        ["check", *shared, *skips, "--format", "json"],
        tmp_path / "check", files, corrupt,
    )
    leg = json.loads(umbrella["stdout"])["checks"][tool]
    assert umbrella["exit"] == alone["exit"] == leg["exit_code"]
    assert leg["findings"] == json.loads(alone["stdout"])["findings"]
    assert leg["findings"], "the fixture must be dirty"


if __name__ == "__main__":  # regenerate: see the module docstring
    import tempfile

    captured = {"cases": {}, "baselines": {}}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            captured["cases"][case] = run_case(case, Path(scratch))
    for tool in sorted(BASELINES):
        with tempfile.TemporaryDirectory() as scratch:
            captured["baselines"][tool] = write_baseline(tool, Path(scratch))
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(captured, handle, indent=2, sort_keys=True)
        handle.write("\n")
