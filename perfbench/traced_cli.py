"""Run the pnsoft CLI with a span around every call into its layers.

    python3 perfbench/traced_cli.py SPANS_OUT -- CLI_ARGS...

Before calling `pnsoft.cli.main`, this replaces the module-level names
through which the CLI and the library call each other (for example
`pnsoft.cli.decide` and `pnsoft.decision.and_product`) with wrappers that
record a span: name, start, end, parent span and a few sizes taken from the
arguments or the result. Spans stay in memory and are written to SPANS_OUT
as JSON when main returns. The package itself is not modified. A name that
a later version of the package no longer has is skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name, sizes(args, result) -> dict)
WRAPPED = [
    ("pnsoft.cli", "load_any", "jsonio.load_any",
     lambda args, out: {"bytes": os.path.getsize(args[0])}),
    ("pnsoft.jsonio", "validate", "sets.validate", None),
    ("pnsoft.sets", "PnsSet.from_rows", "sets.from_rows",
     lambda args, out: {"cells": len(out.parameters) * len(out.universe)}),
    ("pnsoft.cli", "make_profile", "algebra.make_profile", None),
    ("pnsoft.cli", "union", "sets.union", None),
    ("pnsoft.cli", "intersection", "sets.intersection", None),
    ("pnsoft.cli", "complement", "sets.complement", None),
    ("pnsoft.cli", "decide", "decision.decide", None),
    ("pnsoft.decision", "and_product", "products.and_product",
     lambda args, out: {"pair_rows": len(out.pairs),
                        "cells": len(out.pairs) * len(out.universe)}),
    ("pnsoft.decision", "weighted_matrices", "decision.weighted_matrices", None),
    ("pnsoft.decision", "row_scores", "decision.row_scores", None),
    ("pnsoft.decision", "decision_scores", "decision.decision_scores", None),
    ("pnsoft.cli", "select_by_similarity", "similarity.select", None),
    ("pnsoft.cli", "similarity", "similarity.similarity", None),
    ("pnsoft.similarity", "similarity", "similarity.similarity", None),
    ("pnsoft.similarity", "value_similarity", "similarity.value_similarity", None),
    ("pnsoft.similarity", "possibility_similarity",
     "similarity.possibility_similarity", None),
]


class Tracer:
    """Spans as [id, parent, name, start_ns, end_ns, sizes, raised]."""

    def __init__(self):
        self.spans = []
        self.open = [None]   # ids of the spans enclosing the current call

    def call(self, name, fn, sizes, args, kwargs):
        span = [len(self.spans), self.open[-1], name, 0, 0, None, False]
        self.spans.append(span)
        self.open.append(span[0])
        span[3] = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span[6] = True
            raise
        finally:
            span[4] = time.perf_counter_ns()
            self.open.pop()
        if sizes is not None:
            span[5] = sizes(args, out)
        return out

    def wrap(self, module_name, attribute, name, sizes):
        owner = importlib.import_module(module_name)
        *path, attr = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner).get(attr)
        if raw is None:
            return
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, sizes, args, kwargs)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def main(argv) -> int:
    spans_out, separator, cli_args = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_OUT -- CLI_ARGS...")
    import pnsoft.cli

    tracer = Tracer()
    for module_name, attribute, name, sizes in WRAPPED:
        tracer.wrap(module_name, attribute, name, sizes)
    status = 1
    try:
        status = tracer.call("cli.main", pnsoft.cli.main, None, (cli_args,), {})
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_out, "w") as out:
            json.dump(tracer.spans, out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
