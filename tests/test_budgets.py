"""Hostile but valid inputs end in bounded time and memory (aim 3).

Each case runs one CLI command in a child interpreter, on a corpus drawn
from a fixed seed, under a wall timeout and an address-space limit
(RLIMIT_AS). The child sets the limit on itself before it imports pnsoft,
so it binds the suite's own children only. Every input is valid and
within today's limits:

- two 5x5 sets whose degrees are literals 0.De-N with N near 10**4;
- two 5x5 sets of the same form with N near 9 * 10**4;
- two 10x100 CSV sets whose every degree is k/q, q a 61-bit prime drawn
  for that degree.

Known runaways are strict xfails that name the ROADMAP item that mends
them; whichever change mends one removes its marker.

Timeouts. On a shared 2-vCPU VM (Python 3.11.7) each passing case took
0.10-0.86 s spawn to exit, the slowest being `decide` on the long
decimals, so PASS_TIMEOUT gives every passing case more than ten times
its time. The runaways took 43-49 s (`decide`, to the end, two runs)
and more than 60 s (`similarity -p 100`, killed; over 150 s on another
draw of primes), so RUNAWAY_TIMEOUT lies more than eight times below
each; the two cost the suite 2 * RUNAWAY_TIMEOUT of its 16 s.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pnsoft

pytest.importorskip("resource")  # each child limits itself through it

PASS_TIMEOUT = 10
RUNAWAY_TIMEOUT = 5

#: address space a child may map: more than four times the 55 MB peak
#: RSS of the costliest command here, `decide` on exponents near
#: 9 * 10**4 run to the end under this limit; the interpreter maps about
#: 16 MB before it imports pnsoft
ADDRESS_SPACE = 256 * 2**20

#: a child's program: limit its own address space, then run
#: `python -m pnsoft` with the arguments after the limit
LAUNCH = ("import resource, runpy, sys\n"
          "limit = int(sys.argv.pop(1))\n"
          "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
          "sys.argv[0] = 'pnsoft'\n"
          "runpy.run_module('pnsoft', run_name='__main__')\n")

SRC = str(Path(pnsoft.__file__).resolve().parents[1])


def long_decimal_set(rng, exponents, shape=(5, 5)):
    """A JSON text of a set whose degrees are literals 0.De-N, D a digit
    from 1 to 9 and N drawn from `exponents`."""
    n_params, n_elems = shape

    def literal():
        return "0.%de-%d" % (rng.randint(1, 9), rng.choice(exponents))
    cells = ", ".join(
        "[%s]" % ", ".join('{"t": %s, "i": %s, "f": %s, "mu": %s}' % (
            literal(), literal(), literal(), literal()) for _ in range(n_elems))
        for _ in range(n_params))
    return ('{"parameters": [%s], "universe": [%s], "cells": [%s]}' % (
        ", ".join(f'"e{k + 1}"' for k in range(n_params)),
        ", ".join(f'"u{k + 1}"' for k in range(n_elems)), cells))


#: odd primes below 300: one gcd with their product sieves a candidate
_SMALL_PRIMES = math.prod(p for p in range(3, 300) if all(p % d for d in range(2, p)))


def prime_61(rng):
    """A random 61-bit probable prime: no factor below 300, and a Fermat
    test to base 2. A rare pseudoprime only makes the input less hostile."""
    while True:
        q = rng.getrandbits(60) | 1 << 60 | 1
        if math.gcd(q, _SMALL_PRIMES) == 1 and pow(2, q - 1, q) == 1:
            return q


def prime_csv(rng, shape=(10, 100)):
    """A CSV text of a set whose every degree is k/q over a prime q of its own."""
    n_params, n_elems = shape
    lines = ["parameter,element,t,i,f,mu"]
    for p in range(n_params):
        for u in range(n_elems):
            degrees = []
            for _ in range(4):
                q = prime_61(rng)
                degrees.append(f"{rng.randint(0, q)}/{q}")
            lines.append(f"e{p + 1},u{u + 1}," + ",".join(degrees))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The directory holding the seeded inputs."""
    directory = tmp_path_factory.mktemp("budgets")
    rng = random.Random(27)
    for name, exponents in (("long", range(9_500, 10_500)), ("huge", range(90_000, 100_000))):
        for side in "ab":
            (directory / f"{name}_{side}.json").write_text(long_decimal_set(rng, exponents))
    for side in "ab":
        (directory / f"primes_{side}.csv").write_text(prime_csv(rng))
    return directory


def run(corpus, args, timeout):
    """`python -m pnsoft *args` in a child that limits its address space,
    killed past `timeout` seconds of wall time."""
    return subprocess.run(
        [sys.executable, "-c", LAUNCH, str(ADDRESS_SPACE), *args],
        cwd=corpus, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, timeout=timeout)


def cases(first, second, commands, timeout=PASS_TIMEOUT, marks=()):
    """One case per command on the corpus files `first` and `second`."""
    return [pytest.param(
        [command[0], first, *([] if command[0] == "complement" else [second]), *command[1:]],
        timeout, marks=marks,
        id="-".join([first.split("_")[0], *(word.lstrip("-") for word in command)]))
        for command in commands]


def runaway(item, reason):
    return pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                             reason=f"ROADMAP item {item}: {reason}")


CASES = [
    *cases("long_a.json", "long_b.json", [
        ("validate",),
        ("union",),
        ("union", "--format", "json"),
        ("union", "--tnorm", "product", "--tconorm", "probsum"),
        ("intersect", "--tnorm", "lukasiewicz", "--tconorm", "lukasiewicz"),
        ("complement",),
        ("complement", "--format", "json"),
        ("and-product",),
        ("or-product", "--format", "json"),
        ("decide",),
        ("similarity", "-p", "1"),
        ("similarity", "-p", "2"),
        ("select",),
    ]),
    *cases("primes_a.csv", "primes_b.csv", [
        ("validate",),
        ("union",),
        ("intersect", "--tnorm", "product", "--tconorm", "probsum", "--format", "json"),
        ("intersect", "--tnorm", "lukasiewicz", "--tconorm", "lukasiewicz"),
        ("complement",),
        ("and-product", "--format", "json"),
        ("or-product",),
        ("decide",),
        ("similarity", "-p", "1"),
        ("similarity", "-p", "2"),
        ("select", "-p", "2"),
    ]),
    *cases("huge_a.json", "huge_b.json", [("decide",)], RUNAWAY_TIMEOUT, runaway(
        2, "every Fraction the pipeline builds pays a gcd on denominators of "
           "about 300k bits")),
    *cases("primes_a.csv", "primes_b.csv", [("similarity", "-p", "100")], RUNAWAY_TIMEOUT,
           runaway(4, "the exact sum of d**p over coprime denominators grows to "
                      "about n * p * 366 bits")),
]


@pytest.mark.parametrize("args, timeout", CASES)
def test_a_hostile_input_ends_within_its_budget(corpus, args, timeout):
    done = run(corpus, args, timeout)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.endswith(b"\n")
