from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnsoft import (
    IncompatibleError,
    NeutrosophicTriple,
    PnsSet,
    PossValue,
    SchemaError,
    complement,
    equals,
    intersection,
    is_subset,
    make_profile,
    null_set,
    union,
    universal_set,
    validate,
)

from _reference import as_map, brute_complement, brute_intersection, brute_union
from conftest import load_fixture

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
def cars():
    return load_fixture("cars_assessment_a.json"), load_fixture("cars_assessment_b.json")


class TestConstruction:
    def test_from_rows_accepts_mixed_cell_forms(self):
        s = PnsSet.from_rows(
            ["e1"], ["u1", "u2", "u3"],
            [[(0.5, 0.2, 0.6, 0.8),
              ((0.7, 0.3, 0.5), 0.4),
              PossValue(T(0.4, 0.5, 0.8), 0.7)]],
        )
        assert s.shape == (1, 3)
        assert s.cell("e1", "u2") == PossValue(T(0.7, 0.3, 0.5), Fraction(2, 5))

    def test_row_count_mismatch(self):
        with pytest.raises(SchemaError, match="expected 2 rows"):
            PnsSet.from_rows(["e1", "e2"], ["u1"], [[(0, 0, 0, 0)]])

    def test_cell_count_mismatch(self):
        with pytest.raises(SchemaError, match="row 'e1'"):
            PnsSet.from_rows(["e1"], ["u1", "u2"], [[(0, 0, 0, 0)]])

    def test_bad_cell_names_coordinates(self):
        with pytest.raises(SchemaError, match=r"cell \(e1, u2\)"):
            PnsSet.from_rows(["e1"], ["u1", "u2"],
                             [[(0, 0, 0, 0), (0.5, 1.2, 0.3, 0.4)]])

    def test_duplicate_labels(self):
        with pytest.raises(SchemaError, match="duplicate parameter"):
            PnsSet.from_rows(["e1", "e1"], ["u1"],
                             [[(0, 0, 0, 0)], [(0, 0, 0, 0)]])
        with pytest.raises(SchemaError, match="duplicate universe"):
            PnsSet.from_rows(["e1"], ["u1", "u1"],
                             [[(0, 0, 0, 0), (0, 0, 0, 0)]])

    def test_empty_labels(self):
        with pytest.raises(SchemaError, match="non-empty"):
            PnsSet.from_rows([], ["u1"], [])
        with pytest.raises(SchemaError, match="non-empty"):
            null_set([], ["u1"])


class TestValidate:
    def test_fixture_is_clean(self, cars):
        f, _ = cars
        assert validate(f) == []

    def test_document_is_clean(self):
        doc = {"parameters": ["e1"], "universe": ["u1"],
               "cells": [[{"t": 0.5, "i": 0.2, "f": 0.6, "mu": 0.8}]]}
        assert validate(doc) == []

    def test_out_of_range_component(self):
        doc = {"parameters": ["e1"], "universe": ["u1"],
               "cells": [[{"t": 1.2, "i": 0.2, "f": 0.6, "mu": 0.8}]]}
        out = validate(doc)
        assert len(out) == 1
        assert "cell (e1, u1)" in out[0] and "t" in out[0]

    def test_shape_mismatch(self):
        doc = {"parameters": ["e1", "e2", "e3"], "universe": ["u1"],
               "cells": [[{"t": 0, "i": 0, "f": 0, "mu": 0}],
                         [{"t": 0, "i": 0, "f": 0, "mu": 0}]]}
        out = validate(doc)
        assert any("3 parameters" in v for v in out)

    def test_missing_key_and_field(self):
        assert validate({"parameters": ["e1"], "universe": ["u1"]}) == ["missing key 'cells'"]
        doc = {"parameters": ["e1"], "universe": ["u1"],
               "cells": [[{"t": 0.5, "i": 0.2, "mu": 0.8}]]}
        assert any("missing 'f'" in v for v in validate(doc))

    def test_collects_every_violation(self):
        doc = {"parameters": ["e1"], "universe": ["u1", "u2"],
               "cells": [[{"t": 2, "i": 0, "f": 0, "mu": 0},
                          {"t": 0, "i": 0, "f": 0, "mu": -1}]]}
        assert len(validate(doc)) == 2

    def test_hand_built_instance(self):
        s = PnsSet(parameters=("e1",), universe=("u1",),
                   cells=((PossValue(T(0, 0, 0), 0),),))
        assert validate(s) == []


class TestOrder:
    def test_subset_example(self):
        lo = load_fixture("treehouses_lower.json")
        hi = load_fixture("treehouses_upper.json")
        assert is_subset(lo, hi)
        assert not is_subset(hi, lo)
        assert not equals(lo, hi)

    @given(s=pns_sets())
    def test_bounds(self, s):
        assert is_subset(null_set(s.parameters, s.universe), s)
        assert is_subset(s, universal_set(s.parameters, s.universe))
        assert is_subset(s, s) and equals(s, s)

    @given(a=pns_sets(), b=pns_sets())
    def test_meet_and_join_bracket_the_operands(self, a, b):
        assert is_subset(intersection(a, b), a)
        assert is_subset(intersection(a, b), b)
        assert is_subset(a, union(a, b))
        assert is_subset(b, union(a, b))

    def test_label_mismatch_refused(self):
        a = null_set(["e1"], ["u1"])
        b = null_set(["e2"], ["u1"])
        for op in (union, intersection, is_subset, equals):
            with pytest.raises(IncompatibleError, match="share parameter"):
                op(a, b)

    def test_label_order_matters(self):
        a = null_set(["e1", "e2"], ["u1"])
        b = null_set(["e2", "e1"], ["u1"])
        with pytest.raises(IncompatibleError):
            union(a, b)


class TestOperators:
    def test_union_example_cells(self, cars):
        f, g = cars
        h = union(f, g)
        assert h.cell("e1", "u1") == PossValue(T(0.6, 0.2, 0.6), Fraction(4, 5))
        # componentwise min/max, including the indeterminacy 0.5 = min(0.7, 0.5)
        assert h.cell("e3", "u1") == PossValue(T(0.7, 0.5, 0.3), Fraction(4, 5))

    def test_union_full_grid(self, cars):
        f, g = cars
        assert as_map(union(f, g)) == brute_union(f, g)

    def test_intersection_example_cells(self, cars):
        f, g = cars
        h = intersection(f, g)
        assert h.cell("e1", "u1") == PossValue(T(0.5, 0.3, 0.8), Fraction(2, 5))
        assert h.cell("e2", "u3") == PossValue(T(0.7, 0.3, 0.9), Fraction(2, 5))
        # indeterminacy 0.4 = max(0.3, 0.4)
        assert h.cell("e3", "u2") == PossValue(T(0.4, 0.4, 0.7), Fraction(1, 2))

    def test_intersection_full_grid(self, cars):
        f, g = cars
        assert as_map(intersection(f, g)) == brute_intersection(f, g)

    def test_complement_example_cell(self, cars):
        f, _ = cars
        h = complement(f)
        assert h.cell("e1", "u1") == PossValue(T(0.6, 0.8, 0.5), Fraction(1, 5))
        assert as_map(h) == brute_complement(f)

    @given(s=pns_sets())
    def test_complement_is_an_involution(self, s):
        assert equals(complement(complement(s)), s)

    def test_complement_swaps_the_bounds(self):
        labels = (["e1", "e2"], ["u1"])
        assert equals(complement(null_set(*labels)), universal_set(*labels))
        assert equals(complement(universal_set(*labels)), null_set(*labels))

    @given(a=pns_sets(), b=pns_sets())
    def test_commutativity_and_idempotence(self, a, b):
        assert equals(union(a, b), union(b, a))
        assert equals(intersection(a, b), intersection(b, a))
        assert equals(union(a, a), a)
        assert equals(intersection(a, a), a)

    @settings(max_examples=50)
    @given(a=pns_sets(), b=pns_sets(), c=pns_sets())
    def test_associativity_and_distributivity(self, a, b, c):
        assert equals(union(union(a, b), c), union(a, union(b, c)))
        assert equals(intersection(intersection(a, b), c),
                      intersection(a, intersection(b, c)))
        assert equals(intersection(a, union(b, c)),
                      union(intersection(a, b), intersection(a, c)))
        assert equals(union(a, intersection(b, c)),
                      intersection(union(a, b), union(a, c)))

    @given(a=pns_sets(), b=pns_sets())
    def test_absorption_and_de_morgan(self, a, b):
        phi = null_set(a.parameters, a.universe)
        top = universal_set(a.parameters, a.universe)
        assert equals(union(a, phi), a)
        assert equals(union(a, top), top)
        assert equals(intersection(a, phi), phi)
        assert equals(intersection(a, top), a)
        assert equals(complement(union(a, b)),
                      intersection(complement(a), complement(b)))
        assert equals(complement(intersection(a, b)),
                      union(complement(a), complement(b)))

    def test_profile_changes_the_arithmetic(self, cars):
        f, g = cars
        p = make_profile("product", "probsum")
        h = union(f, g, p)
        c = h.cell("e1", "u1")
        # probsum on truth and mu, plain product on the rest
        assert c.triple.truth == Fraction("0.8")
        assert c.triple.indeterminacy == Fraction("0.06")
        assert c.mu == Fraction("0.88")

    def test_product_profile_is_not_idempotent(self):
        s = PnsSet.from_rows(["e1"], ["u1"], [[(0.5, 0.5, 0.5, 0.5)]])
        p = make_profile("product", "probsum")
        assert not equals(union(s, s, p), s)
        assert union(s, s, p).cell("e1", "u1").triple.truth == Fraction(3, 4)
