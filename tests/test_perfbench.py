import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_run_agrees_with_the_benchmark_oracle():
    # the shipped fixtures, through the CLI, against perfbench/oracle.py,
    # which shares no code with the package
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_every_traced_name_still_resolves():
    # traced_cli.py skips a name the package no longer has, so a renamed or
    # fused stage would read 0 in the per-layer metrics without any error
    spec = importlib.util.spec_from_file_location(
        "traced_cli", ROOT / "perfbench" / "traced_cli.py")
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    known_stale = {("pnsoft.jsonio", "validate")}
    missing = set()
    for module_name, attribute, _, _ in traced.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add((module_name, attribute))
    assert missing <= known_stale, missing - known_stale
