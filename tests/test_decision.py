import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnsoft import (
    IncompatibleError,
    PnsSet,
    ProductPnsSet,
    and_product,
    decide,
    decision_scores,
    or_product,
    row_scores,
    similarity,
    weighted_matrices,
)
from pnsoft import decision, sets

from _reference import brute_decide
from conftest import load_fixture, mixed_pairs

units = st.integers(0, 20).map(lambda k: Fraction(k, 20))


@st.composite
def pns_sets(draw, n_params=2, n_elems=3):
    rows = [[(draw(units), draw(units), draw(units), draw(units))
             for _ in range(n_elems)] for _ in range(n_params)]
    return PnsSet.from_rows(
        [f"e{i + 1}" for i in range(n_params)],
        [f"u{j + 1}" for j in range(n_elems)],
        rows,
    )


@pytest.fixture(scope="module")
def houses():
    return load_fixture("houses_expert_a.json"), load_fixture("houses_expert_b.json")


def entry(p, rows, pair, column):
    """The entry of matrix `rows` at a pair and element of product `p`."""
    return rows[p.pairs.index(pair)][p.universe.index(column)]


class TestWeightedMatrices:
    def test_example_entries(self, houses):
        f, g = houses
        p = and_product(f, g)
        wt, wi, wf = weighted_matrices(p)
        assert entry(p, wt, ("e1", "e1"), "u1") == Fraction("0.44")
        assert entry(p, wi, ("e2", "e1"), "u2") == Fraction("0.40")
        assert entry(p, wf, ("e1", "e3"), "u1") == Fraction("0.42")

    def test_truth_blend_bounds(self, houses):
        f, g = houses
        p = and_product(f, g)
        wt, wi, wf = weighted_matrices(p)
        for row_w, row_p in zip(wt, p.cells):
            for v, c in zip(row_w, row_p):
                # t + m - t*m never drops below either ingredient
                assert v >= max(c.triple.truth, c.mu)
                assert 0 <= v <= 1
        for w in (wi, wf):
            assert all(0 <= v <= 1 for row in w for v in row)

    @settings(max_examples=50)
    @given(pair=mixed_pairs())
    def test_mixed_denominator_entries_follow_the_formulas(self, pair):
        p = and_product(*pair)
        wt, wi, wf = weighted_matrices(p)
        for w in (wt, wi, wf):
            assert len(w) == len(p.cells) == len(p.pairs)
            assert all(len(row) == len(p.universe) for row in w)
        blended, scaled = {}, {}
        for row, rt, ri, rf in zip(p.cells, wt, wi, wf):
            for c, vt, vi, vf in zip(row, rt, ri, rf):
                t, i, fv, m = (c.triple.truth, c.triple.indeterminacy,
                               c.triple.falsity, c.mu)
                assert vt == t + m - t * m
                assert vi == i * m
                assert vf == fv * m
                assert type(vt) is type(vi) is type(vf) is Fraction
                # entries of one (degree, possibility) pair share one Fraction
                assert blended.setdefault((t, m), vt) is vt
                assert scaled.setdefault((i, m), vi) is vi
                assert scaled.setdefault((fv, m), vf) is vf


class TestRowScores:
    def test_ties_all_contribute(self):
        # one row, for the pair (e1, e1), over the elements u1, u2, u3
        rows = ((Fraction(1, 2), Fraction(1, 2), Fraction(1, 5)),)
        assert row_scores(rows) == (Fraction(1, 2), Fraction(1, 2), 0)

    def test_single_column_collects_everything(self):
        # rows for the pairs (a, a) and (a, b) over the one element u1
        rows = ((Fraction(1, 4),), (Fraction(3, 4),))
        assert row_scores(rows) == (Fraction(1),)

    def test_uncredited_and_int_columns_score_a_fraction(self):
        # an int 0 would render as 0.0000 in a table, Fraction(0) as 0
        for rows, expected in [
                (((0, 0), (Fraction(1, 3), 0), (1, 1)), (Fraction(4, 3), 1)),
                (((0, Fraction(0)), (Fraction(1, 7), 0)), (Fraction(1, 7), 0)),
                (((1, 0), (Fraction(1, 2), 0)), (Fraction(3, 2), 0))]:
            scores = row_scores(rows)
            assert scores == expected
            assert all(type(x) is Fraction for x in scores)

    @pytest.mark.parametrize("denominators", [(100,), (10**6,), (3, 7)],
                             ids=["two-decimal", "six-decimal", "non-decimal"])
    @pytest.mark.parametrize("columns", [1, 2, 9])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_fraction_longhand(self, denominators, columns, seed):
        rng = random.Random(f"{seed}/{columns}/{denominators}")
        # a few values per matrix, so rows often tie in several columns
        values = [Fraction(rng.randint(0, d), d) for d in denominators for _ in range(3)]
        rows = [tuple(rng.choice(values) for _ in range(columns)) for _ in range(15)]
        rows += [(max(values),) * columns,  # a tie across every column
                 (Fraction(0),) * columns,  # an all-zero row
                 (0,) * columns,            # ints
                 tuple(rng.choice([0, 1, *values]) for _ in range(columns))]
        rng.shuffle(rows)
        scores = row_scores(rows)
        assert scores == longhand_row_scores(rows)
        assert all(type(x) is Fraction for x in scores)

    @pytest.mark.parametrize("rows, message", [
        ([], "at least one row"),
        ([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1),)], "row 1 has 1 entries, row 0 has 2"),
        ([(Fraction(1),), (Fraction(1, 2), Fraction(1, 3))], "row 1 has 2 entries, row 0 has 1"),
        ([(1, 2), (3,)], "row 1 has 1 entries, row 0 has 2"),
        ([(1,), (2, 3)], "row 1 has 2 entries, row 0 has 1"),
        ([()], "row 0 is empty"),
    ], ids=["no-rows", "fraction-shorter", "fraction-longer", "int-shorter",
            "int-longer", "empty-row"])
    def test_no_rows_an_empty_row_or_ragged_rows_are_refused(self, rows, message):
        with pytest.raises(IncompatibleError, match=message):
            row_scores(rows)

    def test_score_difference(self):
        assert decision_scores((1, 2), (0, 1), (1, 0)) == (0, 1)
        with pytest.raises(IncompatibleError, match="equal length"):
            decision_scores((1, 2), (0,), (0, 0))


class TestDecide:
    def test_full_pipeline_values(self, houses):
        f, g = houses
        r = decide(f, g)
        fr = Fraction
        assert r.truth_scores == (fr("1.18"), fr("2.93"), fr("2.68"))
        assert r.indeterminacy_scores == (fr("0.18"), fr("1.42"), fr("0.66"))
        assert r.falsity_scores == (fr("1.32"), fr("0.32"), fr("0.57"))
        assert r.decision_scores == (fr("-0.32"), fr("1.19"), fr("1.45"))
        assert r.ranking == ("u3", "u2", "u1")
        assert r.winners == ("u3",)

    def test_report_is_self_consistent(self, houses):
        f, g = houses
        r = decide(f, g)
        assert r.decision_scores == decision_scores(
            r.truth_scores, r.indeterminacy_scores, r.falsity_scores)
        assert r.truth_scores == row_scores(r.weighted_truth)
        assert r.universe == f.universe

    def test_relabeling_the_universe_permutes_the_scores(self, houses):
        f, g = houses
        perm = [2, 0, 1]

        def shuffle(s):
            universe = [s.universe[j] for j in perm]
            rows = [[s.cells[i][j] for j in perm] for i in range(len(s.parameters))]
            return PnsSet.from_rows(s.parameters, universe, rows)

        base = decide(f, g)
        moved = decide(shuffle(f), shuffle(g))
        assert moved.decision_scores == tuple(base.decision_scores[j] for j in perm)
        assert moved.winners == base.winners
        assert moved.ranking == base.ranking

    def test_all_equal_scores_tie(self):
        s = PnsSet.from_rows(["e1"], ["u1", "u2"],
                             [[(0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5)]])
        r = decide(s, s)
        assert r.winners == ("u1", "u2")
        assert r.ranking == ("u1", "u2")

    @settings(max_examples=60)
    @given(a=pns_sets(), b=pns_sets())
    def test_matches_the_longhand_oracle(self, a, b):
        assert_matches_oracle(a, b)

    @settings(max_examples=50)
    @given(pair=mixed_pairs())
    def test_mixed_denominators_match_the_longhand_oracle(self, pair):
        assert_matches_oracle(*pair)


#: 2**61 - 1 and the largest prime below it: each is 61 bits
P61, Q61 = 2**61 - 1, 2305843009213693921


def seeded_pair(seed, denominators, shape=((3, 2), 6)):
    """Two sets over one universe whose degrees are k/q, q drawn from
    `denominators`. Each degree is a Fraction of its own, so equal values
    tie as distinct objects."""
    rng = random.Random(f"{seed}/{denominators}")
    (f_params, g_params), elems = shape
    universe = [f"u{j + 1}" for j in range(elems)]

    def one_set(count):
        rows = [[tuple(Fraction(rng.randint(0, q), q)
                       for q in rng.choices(denominators, k=4))
                 for _ in universe] for _ in range(count)]
        return PnsSet.from_rows([f"e{k + 1}" for k in range(count)], universe, rows)

    return one_set(f_params), one_set(g_params)


def on_cells(fn, *args):
    """`fn(*args)` on fresh copies of the sets, worked cell by cell: no lcm
    has at most 0 bits, so no copy has an int view. A set keeps its view
    once read, so the originals would ignore the patch; each copy's view
    is asserted read and refused."""
    args = [PnsSet(a.parameters, a.universe, a.cells) if isinstance(a, PnsSet) else a
            for a in args]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sets, "_ROW_BITS", 0)
        out = fn(*args)
    assert [vars(a)["_view"] for a in args if isinstance(a, PnsSet)] == [None] * 2
    return out


def hand_built(p):
    return ProductPnsSet(pairs=p.pairs, universe=p.universe, cells=p.cells)


class TestIntRows:
    """`decide` on int rows reports what it reports cell by cell."""

    PAIRS = {
        "two-decimal": ((100,), True),
        "six-decimal": ((10**6,), True),
        "mixed-decimal": ((2, 4, 5, 10, 20, 100, 1000, 10**6), True),
        "61-bit-primes": ((P61, Q61), False),
    }

    @pytest.mark.parametrize("kind", PAIRS)
    @pytest.mark.parametrize("seed", range(3))
    def test_report_matches_the_cell_by_cell_report(self, kind, seed):
        denominators, on_ints = self.PAIRS[kind]
        f, g = seeded_pair(seed, denominators)
        for first, second in ((f, g), (g, f)):
            assert ("_int_operands" in vars(and_product(first, second))) is on_ints
            assert repr(decide(first, second)) == repr(on_cells(decide, first, second))

    def test_a_hand_built_product_is_scored_from_its_cells(self, monkeypatch):
        f, g = seeded_pair(0, (4, 100))
        p = and_product(f, g)
        assert "_int_operands" in vars(p) and "_int_operands" not in vars(hand_built(p))
        assert weighted_matrices(hand_built(p)) == weighted_matrices(p)
        expected = repr(decide(f, g))
        monkeypatch.setattr(decision, "and_product",
                            lambda f, g: hand_built(and_product(f, g)))
        assert repr(decide(f, g)) == expected

    @pytest.mark.parametrize("product", [and_product, or_product])
    @pytest.mark.parametrize("denominators", [(4,), (100,)], ids=["quarters", "two-decimal"])
    def test_cells_reuse_the_degrees_the_norms_pick(self, product, denominators):
        # quarters tie often: the lower pick keeps f's degree, the higher g's
        f, g = seeded_pair(1, denominators, shape=((3, 4), 8))
        for first, second in ((f, g), (g, f)):
            assert "_int_operands" in vars(and_product(first, second))
            p = product(first, second)
            assert ("_int_operands" in vars(p)) is (product is and_product)
            q = on_cells(product, first, second)
            assert p == q
            for row, twin in zip(p.cells, q.cells):
                for cell, other in zip(row, twin):
                    assert cell.truth is other.truth
                    assert cell.indeterminacy is other.indeterminacy
                    assert cell.falsity is other.falsity
                    assert cell.mu is other.mu

    @pytest.mark.parametrize("step, on_ints", [(8, True), (16, False)],
                             ids=["eighths-64-bits", "sixteenths-65-bits"])
    def test_the_guard_admits_a_common_denominator_of_64_bits(self, step, on_ints):
        f, g = seeded_pair(2, (step,))
        rows = [list(row) for row in f.cells]
        rows[0][0] = (Fraction(1, P61), 0, 0, 1)
        f = PnsSet.from_rows(f.parameters, f.universe, rows)
        p = and_product(f, g)
        if on_ints:
            assert vars(p)["_int_operands"][0] == step * P61
            assert (step * P61).bit_length() == 64
        else:
            assert "_int_operands" not in vars(p)
            assert (step * P61).bit_length() == 65
        assert repr(decide(f, g)) == repr(on_cells(decide, f, g))

    @pytest.mark.parametrize("seed", range(2))
    def test_two_sets_in_the_guard_combine_past_it(self, seed):
        # each view has a 61-bit denominator, their lcm 122 bits
        f, _ = seeded_pair(seed, (P61,), shape=((3, 3), 6))
        g, _ = seeded_pair(seed, (Q61,), shape=((3, 3), 6))
        assert vars(and_product(f, g))["_int_operands"][0] == P61 * Q61
        assert repr(decide(f, g)) == repr(on_cells(decide, f, g))
        for p in (1, 2, 10):
            assert repr(similarity(f, g, p)) == repr(on_cells(similarity, f, g, p))

    def test_kept_rows_are_neither_pickled_nor_copied(self):
        f, g = seeded_pair(0, (100,))
        report = decide(f, g)
        assert "_int_operands" in vars(report.product)
        for original in (report.product, f, g):
            for twin in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original),
                         copy.copy(original)):
                assert twin == original
                assert not [key for key in vars(twin) if key.startswith("_")]
        assert pickle.loads(pickle.dumps(report)) == report


def longhand_row_scores(rows):
    """`row_scores` by its definition, in Fraction arithmetic."""
    totals = [Fraction(0)] * len(rows[0])
    for row in rows:
        best = max(row)
        for j, value in enumerate(row):
            if value == best:
                totals[j] += value
    return tuple(totals)


def assert_matches_oracle(a, b):
    r = decide(a, b)
    o = brute_decide(a, b)
    for j, u in enumerate(r.universe):
        assert r.truth_scores[j] == o["st"][u]
        assert r.indeterminacy_scores[j] == o["si"][u]
        assert r.falsity_scores[j] == o["sf"][u]
        assert r.decision_scores[j] == o["ds"][u]
    assert list(r.winners) == o["winners"]
