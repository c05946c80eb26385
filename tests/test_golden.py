"""Byte-for-byte pins on CLI stdout and on the JSON serializer.

Every file under tests/golden/ holds the exact output of one case below.
A change that alters a single output byte fails here. The files were
written from the release before the single-pass input builder, so they
also pin that the refactor kept every byte. To rewrite them on purpose,
after checking that the new output is intended, run from the repository
root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pnsoft import dumps_pns, load_pns
from pnsoft.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"

# relative to ROOT, so that paths echoed by `validate` are the same everywhere
FIX = "src/pnsoft/fixtures/"
CARS = [FIX + "cars_assessment_a.json", FIX + "cars_assessment_b.json"]
HOUSES = [FIX + "houses_expert_a.json", FIX + "houses_expert_b.json"]
FIXTURES = sorted(str(p.relative_to(ROOT))
                  for p in (ROOT / FIX).rglob("*.json"))
FAMILIES = {
    "min": ["--tnorm", "min", "--tconorm", "max"],
    "product": ["--tnorm", "product", "--tconorm", "probsum"],
    "lukasiewicz": ["--tnorm", "lukasiewicz", "--tconorm", "lukasiewicz"],
}
JSON = ["--format", "json"]


def _cli_cases():
    cases = {
        "decide_houses_table": ["decide", *HOUSES],
        "decide_houses_json": ["decide", *HOUSES, *JSON],
        "decide_houses_separator": ["decide", *HOUSES, "--separator", "/"],
        "select_applicants_table": ["select", FIX + "ideal_candidate.json",
                                    FIX + "applicants"],
        "select_applicants_json": ["select", FIX + "ideal_candidate.json",
                                   FIX + "applicants", *JSON],
        "validate_fixtures_table": ["validate", *FIXTURES],
        "validate_fixtures_json": ["validate", *FIXTURES, *JSON],
    }
    for fmt, extra in (("table", []), ("json", JSON)):
        for product in ("and-product", "or-product"):
            cases[f"{product}_cars_{fmt}"] = [product, *CARS, *extra]
        for p in ("1", "2"):
            cases[f"similarity_cars_p{p}_{fmt}"] = ["similarity", *CARS,
                                                   "-p", p, *extra]
        for family, flags in FAMILIES.items():
            cases[f"union_cars_{family}_{fmt}"] = ["union", *CARS, *flags, *extra]
            cases[f"intersect_cars_{family}_{fmt}"] = ["intersect", *CARS,
                                                      *flags, *extra]
            cases[f"complement_cars_{family}_{fmt}"] = ["complement", CARS[0],
                                                       *flags, *extra]
    return cases


CLI_CASES = _cli_cases()


def _dumps_name(fixture):
    return "dumps_" + Path(fixture).stem


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_stdout_is_byte_identical(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(CLI_CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_python_m_pnsoft_prints_the_golden_bytes():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "pnsoft", *CLI_CASES["decide_houses_table"]],
                         cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (GOLDEN / "decide_houses_table.out").read_bytes()


@pytest.mark.parametrize("fixture", FIXTURES)
def test_serializer_is_byte_identical(fixture):
    text = dumps_pns(load_pns(ROOT / fixture))
    assert text == (GOLDEN / f"{_dumps_name(fixture)}.json").read_text()


def _write_all():
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CLI_CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(argv)
        if status != 0:
            raise SystemExit(f"{name}: exit status {status}")
        (GOLDEN / f"{name}.out").write_text(out.getvalue())
    for fixture in FIXTURES:
        (GOLDEN / f"{_dumps_name(fixture)}.json").write_text(
            dumps_pns(load_pns(fixture)))


if __name__ == "__main__":
    sys.exit(_write_all())
