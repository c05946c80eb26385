"""End-to-end benchmark of the pnsoft command line interface.

    python3 perfbench/run.py --workload {decide,select,setops} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout; the package is imported from
./src. Each workload is a closed loop with one client: one
`python -m pnsoft.cli ...` subprocess at a time, fed only generated input
files, for S seconds. Every output is then checked against the
brute-force oracle in oracle.py. Times that gate a change are in nominal
seconds: wall time scaled by a reference probe run beside it on the same
CPU (see REFERENCE_NOMINAL_S); wall-clock figures are printed too. With
--trace 1 the same invocations alternate, two at a time, between plain
runs and runs under traced_cli.py, and the spans give the per-layer
metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
A full record of the run, with the environment, every invocation and every
span, goes to .bench_build/perfbench/results/. The exit status is 0 only
when every output was correct; with no ./src/pnsoft it is 2 and nothing is
printed to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen      # noqa: E402
import oracle   # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PROBES = 21                 # import and reference probe pairs per run
REFERENCE_WINDOW_S = 3      # reference probes this close to a call normalise it
# Gated times are wall times scaled by REFERENCE_NOMINAL_S / (reference probe
# time measured beside them): seconds on a host where the probe takes this
# long, as it did on an idle 2-vCPU Xeon VM with Python 3.11. Host speed
# drifts up to 2x within minutes on shared machines; the probe drifts with it.
REFERENCE_NOMINAL_S = 0.12
TRACE_BLOCK = 2          # with --trace 1, invocations alternate in blocks of 2
FAMILIES = {"min": ("min", "max"), "product": ("product", "probsum"),
            "lukasiewicz": ("lukasiewicz", "lukasiewicz")}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pnsoft.cli; "
                "print(time.perf_counter() - t)")
# Fixed work that uses no pnsoft code: exact rationals, JSON and text, in a
# fresh process like each CLI call, so no change to pnsoft can move it. Its
# wall time tracks how fast the host runs such a process at that moment.
REFERENCE_PROBE = """
import json
from fractions import Fraction
cells = [[{"t": Fraction(k % 101, 100), "i": Fraction(k % 7, 10), "mu": Fraction(k % 89, 100)}
          for k in range(j, j + 200)] for j in range(20)]
sum(max(c["t"], c["i"]) * c["mu"] + (c["t"] + c["mu"] - c["t"] * c["mu"])
    for row in cells for c in row)
text = json.dumps([[{k: "%.6f" % float(v) for k, v in c.items()} for c in row] for row in cells])
json.loads(text)
"""


class Invocation:
    """One CLI call: its arguments, how to check its output, and its sizes.

    `kind` names what the call does apart from its input files (command,
    norm family, output format); calls of one kind cost about the same.
    """

    def __init__(self, args, fmt, check, sizes, kind, family=None):
        self.args, self.fmt, self.check, self.sizes = args, fmt, check, sizes
        self.kind, self.family = kind, family
        self.out_path = self.at = None
        self.wall = self.status = self.rss_kb = self.stdout_bytes = None
        self.traced = False
        self.spans = None
        self.problems = []


# ---------------------------------------------------------------------------
# workloads: invocation k of the closed loop, with its oracle

class Workload:
    def invocation(self, k) -> Invocation:
        raise NotImplementedError

    def completed(self, inv):
        """Called after each invocation, before the next is built."""


class Decide(Workload):
    def __init__(self, info):
        self.pairs = []
        for f, g, a, b in info["pairs"]:
            want = oracle.decide(f, g)
            sizes = {"cells": want["cells"], "pair_rows": want["pair_rows"],
                     "input_denominator_bits": max(oracle.denominator_bits(f),
                                                   oracle.denominator_bits(g)),
                     "result_denominator_bits": want["score_denominator_bits"],
                     "row_ties": want["row_ties"]}
            self.pairs.append((a, b, want, sizes))

    def invocation(self, k):
        # the pair changes every 2 * TRACE_BLOCK calls, so plain and traced
        # calls both see every pair
        a, b, want, sizes = self.pairs[(k // (2 * TRACE_BLOCK)) % len(self.pairs)]
        fmt = ("table", "json")[k % 2]
        return Invocation(["decide", str(a), str(b), "--format", fmt], fmt,
                          lambda status, out: oracle.check_decide(want, fmt, status, out),
                          dict(sizes), kind=fmt)


class Select(Workload):
    def __init__(self, info):
        self.model_path, self.directory = info["model_path"], info["candidate_dir"]
        self.expected = oracle.select(info["model"], info["candidates"])
        self.sizes = {"cells": self.expected["cells"],
                      "input_denominator_bits": max(
                          oracle.denominator_bits(s) for s in
                          [info["model"]] + [c for _, c in info["candidates"]])}

    def invocation(self, k):
        fmt = ("json", "table")[k % 2]
        want = self.expected
        return Invocation(["select", str(self.model_path), str(self.directory),
                           "--format", fmt], fmt,
                          lambda status, out: oracle.check_select(want, fmt, status, out),
                          dict(self.sizes), kind=fmt)


class Setops(Workload):
    """A chain: each step reads the last JSON result and a fresh operand.

    Steps cycle through union, intersect and complement, and every three
    steps through the three norm families, so 9 steps cover every pairing;
    the output format alternates, which gives 18 steps per full cycle.
    """

    OPS = ("union", "intersect", "complement")

    def __init__(self, info):
        self.chain = info["start_path"]
        self.operands = info["operands"]
        self.read = {}           # path -> (set, denominator bits); most files feed two steps

    def load(self, path):
        if path not in self.read:
            s = oracle.parse_set_json(path.read_text())
            self.read[path] = s, oracle.denominator_bits(s)
        return self.read[path]

    def invocation(self, k):
        op = self.OPS[k % 3]
        family = tuple(FAMILIES)[(k // 3) % 3]
        fmt = ("json", "table")[k % 2]
        tnorm, tconorm = FAMILIES[family]
        first = self.chain
        second = self.operands[k % len(self.operands)]
        args = [op, str(first)] + ([] if op == "complement" else [str(second)])
        args += ["--tnorm", tnorm, "--tconorm", tconorm, "--format", fmt]
        sizes = {}

        def check(status, out):
            f, bits = self.load(first)
            if op == "complement":
                want = oracle.setop(op, family, f)
            else:
                g, g_bits = self.load(second)
                want = oracle.setop(op, family, f, g)
                bits = max(bits, g_bits)
            sizes.update(cells=len(want["parameters"]) * len(want["universe"]),
                         input_denominator_bits=bits,
                         result_denominator_bits=oracle.denominator_bits(want))
            return oracle.check_setop(want, fmt, status, out)

        return Invocation(args, fmt, check, sizes, f"{op}/{family}/{fmt}", family)

    def completed(self, inv):
        if inv.fmt == "json" and inv.status == 0:
            self.chain = inv.out_path


WORKLOADS = {"decide": Decide, "select": Select, "setops": Setops}


# ---------------------------------------------------------------------------
# running the program

def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(cmd, out_path, err_path):
    """Run one child to completion: (wall seconds, exit status, peak RSS in KiB).

    os.wait4 gives this child's own resource usage; RUSAGE_CHILDREN would
    give the maximum over every child reaped so far.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return wall, proc.returncode, usage.ru_maxrss


def import_time(work) -> float:
    """Seconds a fresh interpreter takes to import pnsoft.cli."""
    out, err = work / "setup.out", work / "setup.err"
    _, status, _ = spawn([sys.executable, "-c", IMPORT_PROBE], out, err)
    if status != 0:
        raise RuntimeError(f"importing pnsoft.cli failed:\n{err.read_text()}")
    return float(out.read_text())


def reference_time(work) -> float:
    """Wall seconds of a fresh interpreter running REFERENCE_PROBE, spawn to exit."""
    wall, status, _ = spawn([sys.executable, "-c", REFERENCE_PROBE],
                            work / "reference.out", work / "reference.err")
    if status != 0:
        raise RuntimeError("the reference probe failed")
    return wall


def run_loop(workload, seconds, trace, work):
    """The closed loop, with probes spread evenly over the run.

    Returns the invocations, the probes as (time into the run, import
    seconds, reference seconds), and the seconds the loop ran. Host speed
    drifts over seconds on a shared machine, so the probes run between
    invocations throughout the run rather than in one burst.
    """
    outputs = work / "out"
    outputs.mkdir()
    import_time(work)            # compiles the bytecode cache; not a sample
    done, probes = [], []
    start = time.perf_counter()

    def probe():
        at = time.perf_counter() - start
        probes.append((at, import_time(work), reference_time(work)))

    while True:
        elapsed = time.perf_counter() - start
        while len(probes) < 1 + PROBES * elapsed / seconds:
            probe()
        if done and elapsed + statistics.median(i.wall for i in done) > seconds:
            break
        k = len(done)
        inv = workload.invocation(k)
        inv.out_path = outputs / f"{k}.out"
        inv.traced = bool(trace) and (k // TRACE_BLOCK) % 2 == 1
        if inv.traced:
            spans_path = outputs / f"{k}.spans.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--"]
        else:
            cmd = [sys.executable, "-m", "pnsoft.cli"]
        inv.at = time.perf_counter() - start
        inv.wall, inv.status, inv.rss_kb = spawn(
            cmd + inv.args, inv.out_path, outputs / f"{k}.err")
        if inv.traced:
            inv.spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
        workload.completed(inv)
        done.append(inv)
    measured = time.perf_counter() - start
    while len(probes) < PROBES:
        probe()
    return done, probes, measured


def check_all(invocations):
    for inv in invocations:
        out = inv.out_path.read_bytes()
        inv.stdout_bytes = len(out)
        try:
            inv.problems = inv.check(inv.status, out.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            inv.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if inv.problems:
            err = inv.out_path.with_suffix(".err").read_text()[-500:]
            print(f"FAILED {' '.join(inv.args)}: {inv.problems[:3]} {err}",
                  file=sys.stderr)


# ---------------------------------------------------------------------------
# metrics

def per_call(invocations, value) -> float:
    """Median of `value` per kind of call, averaged over the kinds.

    Kinds differ in cost (a decide table takes longer than its JSON), so a
    plain median over a mix of kinds jumps between them with the count of
    each kind a run happens to complete.
    """
    kinds = {}
    for inv in invocations:
        kinds.setdefault(inv.kind, []).append(value(inv))
    return statistics.mean(statistics.median(values) for values in kinds.values())


def nominal_time(inv, probes) -> float:
    """A call's wall time in seconds at the nominal host speed.

    The wall time is divided by the median reference probe run within
    REFERENCE_WINDOW_S of the call (the whole run's, if none ran that close).
    """
    near = [ref for at, _, ref in probes
            if inv.at - REFERENCE_WINDOW_S <= at <= inv.at + inv.wall + REFERENCE_WINDOW_S]
    reference = statistics.median(near or [ref for _, _, ref in probes])
    return inv.wall * REFERENCE_NOMINAL_S / reference


def trace_overhead(plain, traced, probes) -> float:
    """Traced over untraced nominal time per call, for the kinds both ran, minus 1."""
    kinds = {inv.kind for inv in plain} & {inv.kind for inv in traced}
    if not kinds:
        return 0

    def per_kind(invocations):
        return per_call([i for i in invocations if i.kind in kinds],
                        lambda i: nominal_time(i, probes))

    return per_kind(traced) / per_kind(plain) - 1


def end_to_end(invocations, probes):
    """Gated metrics in nominal seconds, then the same figures in wall seconds."""
    cells = statistics.mean(i.sizes.get("cells", 0) for i in invocations)
    op = per_call(invocations, lambda i: nominal_time(i, probes))
    op_wall = per_call(invocations, lambda i: i.wall)
    return {
        "setup_s": (statistics.median(imp * REFERENCE_NOMINAL_S / ref
                                      for _, imp, ref in probes), "s"),
        "op_p50_s": (op, "s"),
        "cells_per_s": (cells / op, "cells/s"),
        "peak_rss_mb": (per_call(invocations, lambda i: i.rss_kb) / 1024, "MB"),
        "setup_wall_s": (statistics.median(imp for _, imp, _ in probes), "s"),
        "op_wall_p50_s": (op_wall, "s"),
        "cells_per_wall_s": (cells / op_wall, "cells/s"),
    }


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0


def per_layer(invocations, plain, probes):
    """Per-layer figures from the traced invocations.

    Times and counts are summed per invocation, then the median is taken
    over the traced invocations whose spans include that layer (0 if none).
    """
    traced = [i for i in invocations if i.traced]
    rows = []   # one dict per traced invocation: metric -> value
    for inv in traced:
        spans = inv.spans
        children = {}
        for s in spans:
            children.setdefault(s[1], []).append(s)
        row = {}

        def add(key, value):
            row[key] = row.get(key, 0) + value

        for s in spans:
            sid, _, name, start, end, sizes, raised = s
            seconds = (end - start) / 1e9
            child_s = sum(c[4] - c[3] for c in children.get(sid, ())) / 1e9
            if name in ("sets.union", "sets.intersection", "sets.complement"):
                add(f"{name}_s.{inv.family}", seconds)
            else:
                add(f"{name}_s", seconds)
            add(f"{name}_calls", 1)
            if name == "cli.main":
                add("cli.render_self_s", seconds - child_s)
            elif name == "decision.decide":
                add("decision.decide_self_s", seconds - child_s)
            elif name == "similarity.similarity" and spans[s[1]][2] == "similarity.select":
                add("similarity.candidates_rejected" if raised
                    else "similarity.candidates_scored", 1)
            for key, value in (sizes or {}).items():
                add(f"{name}.{key}", value)
        row["cli.stdout_bytes"] = inv.stdout_bytes
        if "row_ties" in inv.sizes:
            row["decision.row_ties"] = inv.sizes["row_ties"]
        rows.append(row)

    def metric(key):
        return _median_or_zero(r[key] for r in rows if key in r)

    layer = {
        "cli.main_s": (metric("cli.main_s"), "s"),
        "cli.render_self_s": (metric("cli.render_self_s"), "s"),
        "cli.stdout_bytes": (metric("cli.stdout_bytes"), "bytes"),
        "jsonio.load_any_s": (metric("jsonio.load_any_s"), "s"),
        "jsonio.load_calls": (metric("jsonio.load_any_calls"), "count"),
        "jsonio.bytes_in": (metric("jsonio.load_any.bytes"), "bytes"),
        "sets.validate_s": (metric("sets.validate_s"), "s"),
        "sets.from_rows_s": (metric("sets.from_rows_s"), "s"),
        "sets.cells_built": (metric("sets.from_rows.cells"), "count"),
        "algebra.make_profile_s": (metric("algebra.make_profile_s"), "s"),
    }
    for op in ("union", "intersection", "complement"):
        for family in FAMILIES:
            key = f"sets.{op}_s.{family}"
            layer[key] = (metric(key), "s")
    bits = [i.sizes.get(k, 0) for i in invocations
            for k in ("input_denominator_bits", "result_denominator_bits")]
    layer.update({
        "algebra.denominator_bits_max": (max(bits), "bits"),
        "products.and_product_s": (metric("products.and_product_s"), "s"),
        "products.pair_rows": (metric("products.and_product.pair_rows"), "count"),
        "products.cells_out": (metric("products.and_product.cells"), "count"),
        "decision.decide_self_s": (metric("decision.decide_self_s"), "s"),
        "decision.weighted_matrices_s": (metric("decision.weighted_matrices_s"), "s"),
        "decision.row_scores_s": (metric("decision.row_scores_s"), "s"),
        "decision.decision_scores_s": (metric("decision.decision_scores_s"), "s"),
        "decision.row_ties": (metric("decision.row_ties"), "count"),
        "similarity.select_s": (metric("similarity.select_s"), "s"),
        "similarity.similarity_s": (metric("similarity.similarity_s"), "s"),
        "similarity.value_similarity_s": (metric("similarity.value_similarity_s"), "s"),
        "similarity.possibility_similarity_s":
            (metric("similarity.possibility_similarity_s"), "s"),
        "similarity.candidates_scored": (metric("similarity.candidates_scored"), "count"),
        "similarity.candidates_rejected":
            (metric("similarity.candidates_rejected"), "count"),
    })
    scored = sum(r.get("similarity.candidates_scored", 0) for r in rows)
    rejected = sum(r.get("similarity.candidates_rejected", 0) for r in rows)
    layer["similarity.scored_ratio"] = (
        scored / (scored + rejected) if scored + rejected else 0, "ratio")
    layer["trace.overhead_frac"] = (trace_overhead(plain, traced, probes), "ratio")
    return layer


# ---------------------------------------------------------------------------
# environment and output

def environment(workload, seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "workload": workload,
        "workload_sizes": gen.WORKLOADS[workload],
    }


def report(result, lines):
    for line in lines:
        print(line)
    print(json.dumps(result))


def format_metrics(metrics):
    return [f"  {name:40s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]


def bench(args) -> int:
    env = environment(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    info = gen.generate(args.workload, args.seed, work / "inputs")
    workload = WORKLOADS[args.workload](info)
    invocations, probes, measured = run_loop(workload, args.seconds, args.trace, work)
    check_all(invocations)

    failed = sum(1 for i in invocations if i.problems)
    plain = [i for i in invocations if not i.traced]
    e2e = end_to_end(plain, probes)
    measured_metrics = per_layer(invocations, plain, probes) if args.trace else e2e
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured_metrics]
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares metrics this run lacks: {missing}")
    metrics = {m["name"]: measured_metrics[m["name"]] for m in declared}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "seconds": args.seconds,
        "measured_s": measured,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "probes_at_import_reference_s": probes,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "ops": len(plain),
        "failed_frac": failed / len(invocations),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "invocations": [
            {"k": k, "args": i.args, "traced": i.traced, "at_s": i.at, "wall_s": i.wall,
             "status": i.status, "peak_rss_kb": i.rss_kb,
             "stdout_bytes": i.stdout_bytes, "sizes": i.sizes,
             "problems": i.problems[:5], "spans": i.spans}
            for k, i in enumerate(invocations)],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    lines = [f"pnsoft benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}",
             f"  python {env['python']}, nproc {env['nproc']}, {env['cpu']}, "
             f"commit {env['commit'][:12]}",
             f"  {gen.WORKLOADS[args.workload]['shape']}",
             f"  ops={len(plain)} failed_frac={failed / len(invocations):.4g} "
             f"({failed} of {len(invocations)})"]
    lines += format_metrics({**e2e, **metrics})
    lines.append(f"  record: {(results / f'{stem}.json').relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": len(invocations), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    report(result, lines)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# smoke: the shipped fixtures, checked against the oracle

def smoke() -> int:
    fixtures = SRC / "pnsoft" / "fixtures"
    work = WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    def read(path):
        return oracle.parse_set_json(path.read_text())

    houses = [fixtures / "houses_expert_a.json", fixtures / "houses_expert_b.json"]
    cars = [fixtures / "cars_assessment_a.json", fixtures / "cars_assessment_b.json"]
    model = fixtures / "ideal_candidate.json"
    applicants = fixtures / "applicants"
    decided = oracle.decide(*map(read, houses))
    selected = oracle.select(read(model), [(p.stem, read(p))
                                           for p in sorted(applicants.glob("*.json"))])
    a, b = map(read, cars)
    cases = []
    for fmt in ("json", "table"):
        cases.append((["decide", *map(str, houses), "--format", fmt],
                      lambda s, o, fmt=fmt: oracle.check_decide(decided, fmt, s, o)))
        cases.append((["select", str(model), str(applicants), "--format", fmt],
                      lambda s, o, fmt=fmt: oracle.check_select(selected, fmt, s, o)))
    cases.append((["similarity", *map(str, cars), "--format", "json"],
                   lambda s, o: oracle.check_similarity(a, b, s, o)))
    failed, lines = 0, []
    for k, (cli_args, check) in enumerate(cases):
        wall, status, _ = spawn([sys.executable, "-m", "pnsoft.cli", *cli_args],
                                work / f"{k}.out", work / f"{k}.err")
        problems = check(status, (work / f"{k}.out").read_text())
        failed += bool(problems)
        lines.append(f"  {'FAIL' if problems else 'ok':4s} {wall:.3f}s "
                     f"pnsoft {' '.join(cli_args[:1] + cli_args[-2:])} {problems[:3]}")
    shutil.rmtree(work, ignore_errors=True)
    report({"correct": failed == 0, "attempted": len(cases), "failed": failed,
            "metrics": {}}, ["pnsoft benchmark smoke run over the shipped fixtures"] + lines)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the shipped fixtures once and exit")
    args = parser.parse_args(argv)
    if not (SRC / "pnsoft" / "cli.py").is_file():
        print(f"error: no pnsoft sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
