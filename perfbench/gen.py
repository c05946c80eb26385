"""Seeded input generator for the benchmark workloads.

Every degree is drawn as an integer count of 10**-decimals, written to the
JSON file as an exact decimal literal and kept in memory as that integer
numerator, so the oracle works from the very values the program parses.
The same seed always gives the same files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Shapes and precision of each workload, and why it is in the benchmark.
WORKLOADS = {
    "decide": {
        "shape": "20x200 pairs (2 pairs cycled), 400 pair rows, 80000 product cells",
        "decimals": 2,
        "why": "AND product, weighted matrices, row scores and the biggest "
               "rendering job; the sizing point of the ROADMAP baseline and the "
               "target of the scaled-integer kernel and the single renderer",
    },
    "select": {
        "shape": "10x50 model against a directory of 100 10x50 candidates, "
                 "10 with a relabelled universe",
        "decimals": 2,
        "why": "loading and validating 101 files plus similarity, with no "
               "product or decision work; a decide kernel should not move it",
    },
    "setops": {
        "shape": "chain of union/intersect/complement on 20x200 sets, "
                 "4000 result cells per step",
        "decimals": 6,
        "why": "set operators under the min/max, product/probsum and "
               "lukasiewicz families, JSON read and write on every step; "
               "denominators grow from 6 to 12 decimals under product/probsum",
    },
}

DECIDE_PARAMS, DECIDE_ELEMS, DECIDE_PAIRS = 20, 200, 2
SELECT_PARAMS, SELECT_ELEMS, SELECT_CANDIDATES, SELECT_RELABELLED = 10, 50, 100, 10
SETOPS_PARAMS, SETOPS_ELEMS, SETOPS_OPERANDS = 20, 200, 8


def literal(num: int, decimals: int) -> str:
    """Exact decimal text of num / 10**decimals for 0 <= num <= 10**decimals."""
    scale = 10 ** decimals
    return f"{num // scale}.{num % scale:0{decimals}d}"


def random_set(rng, n_params, n_elems, decimals, universe=None, mu_floor=0):
    """One set as {"parameters", "universe", "cells", "scale", "decimals"}.

    Cells are (t, i, f, mu) integer numerators over scale = 10**decimals.
    `mu_floor` keeps possibility degrees away from zero, so no similarity
    row can degenerate.
    """
    scale = 10 ** decimals
    return {
        "parameters": [f"e{k + 1}" for k in range(n_params)],
        "universe": universe or [f"u{k + 1}" for k in range(n_elems)],
        "cells": [[(rng.randint(0, scale), rng.randint(0, scale),
                    rng.randint(0, scale), rng.randint(mu_floor, scale))
                   for _ in range(n_elems)] for _ in range(n_params)],
        "scale": scale,
        "decimals": decimals,
    }


def to_json(s) -> str:
    d = s["decimals"]
    rows = []
    for row in s["cells"]:
        rows.append("[" + ", ".join(
            '{"t": %s, "i": %s, "f": %s, "mu": %s}'
            % tuple(literal(v, d) for v in cell) for cell in row) + "]")
    return ('{"parameters": %s,\n "universe": %s,\n "cells": [\n  %s\n]}\n'
            % (json.dumps(s["parameters"]), json.dumps(s["universe"]), ",\n  ".join(rows)))


def write_set(s, path: Path) -> Path:
    path.write_text(to_json(s))
    return path


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload under `work` and describe them."""
    rng = random.Random(f"pnsoft-bench/{workload}/{seed}")
    work.mkdir(parents=True, exist_ok=True)
    info = {"workload": workload, "seed": seed, **WORKLOADS[workload]}
    if workload == "decide":
        pairs = []
        for k in range(DECIDE_PAIRS):
            f = random_set(rng, DECIDE_PARAMS, DECIDE_ELEMS, 2)
            g = random_set(rng, DECIDE_PARAMS, DECIDE_ELEMS, 2)
            pairs.append((f, g, write_set(f, work / f"pair{k}_a.json"),
                          write_set(g, work / f"pair{k}_b.json")))
        info["pairs"] = pairs
    elif workload == "select":
        model = random_set(rng, SELECT_PARAMS, SELECT_ELEMS, 2, mu_floor=1)
        relabelled = set(rng.sample(range(SELECT_CANDIDATES), SELECT_RELABELLED))
        directory = work / "candidates"
        directory.mkdir()
        candidates = []
        for k in range(SELECT_CANDIDATES):
            universe = ([f"x{j + 1}" for j in range(SELECT_ELEMS)]
                        if k in relabelled else None)
            c = random_set(rng, SELECT_PARAMS, SELECT_ELEMS, 2,
                           universe=universe, mu_floor=1)
            label = f"cand_{k:03d}"
            write_set(c, directory / f"{label}.json")
            candidates.append((label, c))
        info.update(model=model, model_path=write_set(model, work / "model.json"),
                    candidates=candidates, candidate_dir=directory)
    elif workload == "setops":
        info["start_path"] = write_set(random_set(rng, SETOPS_PARAMS, SETOPS_ELEMS, 6),
                                       work / "start.json")
        info["operands"] = [write_set(random_set(rng, SETOPS_PARAMS, SETOPS_ELEMS, 6),
                                      work / f"operand{k}.json")
                            for k in range(SETOPS_OPERANDS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return info
