import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnsoft import (
    DEFAULT_PROFILE,
    IncompatibleError,
    NeutrosophicTriple,
    PnsSet,
    PossValue,
    ProductPnsSet,
    and_product,
    complement,
    equals,
    intersection,
    is_subset,
    null_set,
    or_product,
    similarity,
    to_pns_set,
    triple_leq,
    union,
    universal_set,
)

from _reference import brute_and_product, brute_or_product
from conftest import load_fixture, mixed_pairs, two_decimal_pairs

units = st.integers(0, 20).map(lambda k: Fraction(k, 20))

T = NeutrosophicTriple


@st.composite
def pns_sets(draw, n_params=2, n_elems=2):
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


def product_cell(p, first, second, element):
    row = p.pairs.index((first, second))
    col = p.universe.index(element)
    return p.cells[row][col]


class TestAndProduct:
    def test_example_cells(self, houses):
        f, g = houses
        h = and_product(f, g)
        assert product_cell(h, "e1", "e1", "u1") == PossValue(T(0.3, 0.4, 0.7), Fraction(1, 5))
        assert product_cell(h, "e2", "e2", "u1") == PossValue(T(0.35, 0.6, 0.6), Fraction(3, 10))

    def test_full_grid(self, houses):
        f, g = houses
        h = and_product(f, g)
        got = {(a, b, u): (c.triple.truth, c.triple.indeterminacy,
                           c.triple.falsity, c.mu)
               for (a, b), row in zip(h.pairs, h.cells)
               for u, c in zip(h.universe, row)}
        assert got == brute_and_product(f, g)

    def test_pair_order_is_row_major(self, houses):
        f, g = houses
        h = and_product(f, g)
        assert h.pairs == tuple(
            (a, b) for a in f.parameters for b in g.parameters)
        assert h.shape == (9, 3)

    def test_result_sits_below_both_operands(self, houses):
        f, g = houses
        h = and_product(f, g)
        for (a, b), row in zip(h.pairs, h.cells):
            for u, c in zip(h.universe, row):
                assert triple_leq(c.triple, f.cell(a, u).triple)
                assert triple_leq(c.triple, g.cell(b, u).triple)
                assert c.mu <= min(f.cell(a, u).mu, g.cell(b, u).mu)

    @given(a=pns_sets(), b=pns_sets())
    def test_swap_transposes_pairs(self, a, b):
        left = and_product(a, b)
        right = and_product(b, a)
        lookup = {pair: row for pair, row in zip(right.pairs, right.cells)}
        for (pk, pl), row in zip(left.pairs, left.cells):
            assert lookup[(pl, pk)] == row

    def test_universal_absorbs(self):
        top = universal_set(["e1", "e2"], ["u1"])
        h = and_product(top, top)
        assert all(c == PossValue(T(1, 0, 0), 1) for row in h.cells for c in row)
        bottom = null_set(["e1"], ["u1"])
        assert or_product(bottom, bottom).cells[0][0] == PossValue(T(0, 1, 1), 0)


class TestOrProduct:
    def test_example_cell(self, houses):
        f, g = houses
        h = or_product(f, g)
        assert product_cell(h, "e1", "e1", "u1") == PossValue(T(0.5, 0.3, 0.5), Fraction(3, 5))

    def test_full_grid(self, houses):
        f, g = houses
        h = or_product(f, g)
        got = {(a, b, u): (c.triple.truth, c.triple.indeterminacy,
                           c.triple.falsity, c.mu)
               for (a, b), row in zip(h.pairs, h.cells)
               for u, c in zip(h.universe, row)}
        assert got == brute_or_product(f, g)

    @given(a=pns_sets(), b=pns_sets())
    def test_de_morgan_against_and_product(self, a, b):
        # or(f, g) == complement(and(complement f, complement g)), cell for cell
        lhs = to_pns_set(or_product(a, b))
        rhs = complement(to_pns_set(and_product(complement(a), complement(b))))
        assert equals(lhs, rhs)

    @given(a=pns_sets(), b=pns_sets())
    def test_and_below_or(self, a, b):
        lo = and_product(a, b)
        hi = or_product(a, b)
        for row_lo, row_hi in zip(lo.cells, hi.cells):
            for c_lo, c_hi in zip(row_lo, row_hi):
                assert triple_leq(c_lo.triple, c_hi.triple)
                assert c_lo.mu <= c_hi.mu


class TestFlattening:
    def test_separator(self, houses):
        f, g = houses
        s = to_pns_set(and_product(f, g), separator="&")
        assert s.parameters[0] == "e1&e1"
        assert s.parameters[-1] == "e3&e3"
        assert s.shape == (9, 3)

    def test_label_collision_detected(self):
        a = null_set(["x", "x*y"], ["u1"])
        b = null_set(["y*z", "z"], ["u1"])
        # "x" * "y*z" and "x*y" * "z" both flatten to "x*y*z"
        with pytest.raises(IncompatibleError, match="distinct"):
            to_pns_set(and_product(a, b))
        to_pns_set(and_product(a, b), separator="|")

    def test_universe_mismatch_refused(self):
        a = null_set(["e1"], ["u1"])
        b = null_set(["e1"], ["u2"])
        with pytest.raises(IncompatibleError, match="shared universe"):
            and_product(a, b)


class TestAProductIsASet:
    """A product is a PnsSet whose parameters are its (label, label) pairs."""

    def test_products_are_sets_whose_pairs_are_their_parameters(self, houses):
        f, g = houses
        pairs = tuple((a, b) for a in f.parameters for b in g.parameters)
        for product in (and_product, or_product):
            h = product(f, g)
            assert isinstance(h, PnsSet) and type(h) is ProductPnsSet
            assert h.pairs is h.parameters and h.parameters == pairs
            assert h.shape == (9, 3)
            with pytest.raises(AttributeError):
                h.pairs = pairs

    def test_the_field_is_named_parameters(self, houses):
        h = and_product(*houses)
        assert [field.name for field in dataclasses.fields(h)] == [
            "parameters", "universe", "cells"]
        assert dataclasses.asdict(h)["parameters"] == h.pairs
        assert repr(h).startswith("ProductPnsSet(parameters=(('e1', 'e1'), ")

    def test_a_cell_is_the_one_the_flattening_puts_under_the_joined_label(self, houses):
        f, g = houses
        for product in (and_product, or_product):
            h = product(f, g)
            flat = to_pns_set(h)
            for a, b in h.pairs:
                for u in h.universe:
                    assert h.cell((a, b), u) is flat.cell(f"{a}*{b}", u)

    @pytest.mark.parametrize("p", [1, 2])
    def test_similarity_and_equals_agree_with_the_flattenings(self, houses, p):
        f, g = houses   # over the same labels, so all three products share their pairs
        products = (and_product(f, g), or_product(f, g), and_product(g, f))
        for x in products:
            for y in products:
                flat_x, flat_y = to_pns_set(x), to_pns_set(y)
                got = similarity(x, y, p=p)
                assert got.parameters == x.pairs
                assert (dataclasses.replace(got, parameters=flat_x.parameters)
                        == similarity(flat_x, flat_y, p=p))
                assert equals(x, y) == equals(flat_x, flat_y)
                assert is_subset(x, y) == is_subset(flat_x, flat_y)
        low, high = products[:2]
        assert equals(low, low) and not equals(low, high) and is_subset(low, high)
        assert equals(union(low, high), high) and equals(intersection(low, high), low)

    def test_a_hand_built_product_equals_the_computed_one(self, houses):
        f, g = houses
        pairs = tuple((a, b) for a in f.parameters for b in g.parameters)
        for product in (and_product, or_product):
            h = product(f, g)
            built = ProductPnsSet(parameters=pairs, universe=f.universe, cells=h.cells)
            assert built == h and hash(built) == hash(h)


def degrees(cell):
    return (cell.triple.truth, cell.triple.indeterminacy, cell.triple.falsity, cell.mu)


class TestRowPairRule:
    """Row (p, q) of a product combines row p of f with row q of g."""

    @settings(max_examples=50)
    @given(pair=mixed_pairs() | two_decimal_pairs())
    def test_rows_are_min_max_intersections_and_unions(self, pair):
        f, g = pair

        def one_row(row):
            return PnsSet.from_rows(["r"], f.universe, [row])
        for product, combine in ((and_product, intersection), (or_product, union)):
            h = product(f, g)
            assert len(h.cells) == len(f.cells) * len(g.cells)
            rows = iter(h.cells)
            for fr in f.cells:
                for gr in g.cells:
                    want = combine(one_row(fr), one_row(gr), DEFAULT_PROFILE)
                    assert next(rows) == want.cells[0]

    @settings(max_examples=50)
    @given(pair=mixed_pairs() | two_decimal_pairs())
    def test_each_degree_is_an_operand_degree(self, pair):
        f, g = pair
        # on a tie the lower pick keeps f's degree and the higher pick g's
        for product, truth_tie, other_tie in ((and_product, 0, 1), (or_product, 1, 0)):
            ties = (truth_tie, other_tie, other_tie, truth_tie)
            rows = iter(product(f, g).cells)
            for fr in f.cells:
                for gr in g.cells:
                    for c, a, b in zip(next(rows), fr, gr):
                        for got, x, y, tie in zip(degrees(c), degrees(a), degrees(b), ties):
                            assert got is x or got is y
                            if x == y:
                                assert got is (x, y)[tie]


class TestMixedDenominators:
    @settings(max_examples=50)
    @given(pair=mixed_pairs())
    def test_cells_match_the_oracle_and_public_cells(self, pair):
        f, g = pair
        for product, brute in ((and_product, brute_and_product),
                               (or_product, brute_or_product)):
            h = product(f, g)
            want = brute(f, g)
            got = {(a, b, u): (c.triple.truth, c.triple.indeterminacy,
                               c.triple.falsity, c.mu)
                   for (a, b), row in zip(h.pairs, h.cells)
                   for u, c in zip(h.universe, row)}
            assert got == want
            for (a, b), row in zip(h.pairs, h.cells):
                for u, c in zip(h.universe, row):
                    t, i, fv, mu = want[(a, b, u)]
                    built = PossValue(T(t, i, fv), mu)
                    assert c == built and hash(c) == hash(built)
                    assert c.triple == built.triple
                    assert hash(c.triple) == hash(built.triple)
