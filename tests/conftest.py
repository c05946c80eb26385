import random
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

import pnsoft
from pnsoft import PnsSet

FIXTURES = Path(pnsoft.__file__).parent / "fixtures"

# one line per acceptance criterion, filled in by test_acceptance
ACCEPTANCE = []


def fixture(name):
    return FIXTURES / name


def load_fixture(name):
    return pnsoft.load_pns(fixture(name))


def random_degree(rng):
    # denominators divide 20, so every value survives a decimal round trip
    return Fraction(rng.randrange(21), 20)


def random_set(rng, n_params=None, n_elems=None):
    np = n_params or rng.randint(1, 3)
    ne = n_elems or rng.randint(1, 3)
    params = [f"e{k + 1}" for k in range(np)]
    elems = [f"u{k + 1}" for k in range(ne)]
    rows = [[(random_degree(rng), random_degree(rng), random_degree(rng),
              random_degree(rng)) for _ in elems] for _ in params]
    return PnsSet.from_rows(params, elems, rows)


def random_pair(rng, n_params=None, n_elems=None):
    a = random_set(rng, n_params, n_elems)
    b = random_set(rng, len(a.parameters), len(a.universe))
    return a, b


#: denominators the k/20 strategies never reach: thirds, sevenths, six
#: decimals and large primes, next to 20 so that ties still come up
MIXED_DENOMINATORS = (1, 2, 3, 7, 20, 10**6, 9973, 999983, 2**61 - 1)


def mixed_degrees():
    denominators = st.sampled_from(MIXED_DENOMINATORS) | st.integers(1, 10**4)
    return denominators.flatmap(
        lambda q: st.integers(0, q).map(lambda k: Fraction(k, q)))


@st.composite
def mixed_pairs(draw, max_params=3, max_elems=4):
    """Two sets over one universe with mixed-denominator degrees.

    The parameter counts are drawn independently, as products allow.
    """
    degree = mixed_degrees()
    universe = [f"u{j + 1}" for j in range(draw(st.integers(1, max_elems)))]

    def one_set():
        params = [f"e{k + 1}" for k in range(draw(st.integers(1, max_params)))]
        rows = [[tuple(draw(degree) for _ in range(4)) for _ in universe]
                for _ in params]
        return PnsSet.from_rows(params, universe, rows)

    return one_set(), one_set()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE:
        terminalreporter.write_line(line)
