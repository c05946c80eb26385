import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pnsoft import (
    IncompatibleError,
    NeutrosophicTriple,
    PnsSet,
    PossValue,
    SchemaError,
    and_product,
    complement,
    equals,
    from_document,
    intersection,
    is_subset,
    loads_csv,
    loads_pns,
    make_profile,
    n_conorm,
    n_norm,
    negate_triple,
    null_set,
    or_product,
    to_pns_set,
    union,
    universal_set,
)

from _reference import as_map, brute_complement, brute_intersection, brute_union
from conftest import PROFILES, load_fixture, mixed_pairs

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
              {"t": 0.7, "i": 0.3, "f": 0.5, "mu": 0.4},
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


class TestCellLookup:
    def test_a_missing_cell_is_named_by_its_coordinates(self, cars):
        f, _ = cars
        with pytest.raises(ValueError, match=r"^no cell \(e9, u1\)$"):
            f.cell("e9", "u1")
        with pytest.raises(ValueError, match=r"^no cell \(e1, u9\)$"):
            f.cell("e1", "u9")

    def test_a_long_or_control_label_stays_bounded_in_the_message(self, cars):
        f, _ = cars
        with pytest.raises(ValueError) as exc:
            f.cell("e" * 10**6, "\n\x1b")
        assert str(exc.value) == "no cell (%s..., \\n\\x1b)" % ("e" * 37)

    def test_a_product_inherits_the_lookup(self, cars):
        h = and_product(*cars)
        assert h.cell(("e2", "e3"), "u1") is h.cells[5][0]
        with pytest.raises(ValueError, match=r"^no cell \(\('e9', 'e1'\), u1\)$"):
            h.cell(("e9", "e1"), "u1")
        with pytest.raises(ValueError, match=r"^no cell \(e1\*e1, u1\)$"):
            h.cell("e1*e1", "u1")


class TestSlottedCells:
    """Cells are slotted and flat: four degrees, no per-instance dict and no
    nested triple; copies still work."""

    def test_cells_have_no_instance_dict(self, cars):
        checked = PossValue(T(0.4, 0.5, 0.8), 0.7)
        for cell in (checked, cars[0].cells[0][0], complement(cars[0]).cells[0][0]):
            assert not hasattr(cell, "__dict__")
            assert not hasattr(cell.triple, "__dict__")

    @pytest.mark.parametrize("copied", [lambda x: pickle.loads(pickle.dumps(x)),
                                        copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_cells_and_sets_copy_to_equal_objects(self, cars, copied):
        f, g = cars
        checked = PossValue(T(0.4, 0.5, 0.8), 0.7)
        for obj in (checked, checked.triple, f.cells[0][0], union(f, g), f):
            twin = copied(obj)
            assert twin == obj and hash(twin) == hash(obj)
            assert type(twin) is type(obj)

    DEGREES = ("truth", "indeterminacy", "falsity", "mu")

    def test_a_cell_is_four_flat_degrees(self, cars):
        for cell in (PossValue(T(0.4, 0.5, 0.8), 0.7), cars[0].cells[0][0]):
            assert tuple(f.name for f in dataclasses.fields(cell)) == self.DEGREES
            assert type(cell).__slots__ == self.DEGREES
            assert all(type(getattr(cell, name)) is Fraction for name in self.DEGREES)
            assert cell.triple == T(cell.truth, cell.indeterminacy, cell.falsity)

    def test_every_builder_makes_the_checked_cell(self, cars):
        f, g = cars

        def cells(s):
            return [c for row in s.cells for c in row]

        cellwise = list(zip(cells(f), cells(g)))
        pairwise = [(a, b) for fr in f.cells for gr in g.cells for a, b in zip(fr, gr)]
        cases = [
            (PnsSet.from_rows(["e1"], ["u1"], [[("0.4", "1/2", 0.8, "0.7")]]),
             [PossValue(T(0.4, 0.5, 0.8), 0.7)]),
            (complement(f), [PossValue(negate_triple(a.triple), 1 - a.mu) for a in cells(f)]),
            (and_product(f, g), [PossValue(n_norm(a.triple, b.triple), min(a.mu, b.mu))
                                 for a, b in pairwise]),
            (or_product(f, g), [PossValue(n_conorm(a.triple, b.triple), max(a.mu, b.mu))
                                for a, b in pairwise]),
        ]
        for pr in PROFILES:
            cases.append((union(f, g, pr), [
                PossValue(n_conorm(a.triple, b.triple, pr), pr.tconorm(a.mu, b.mu))
                for a, b in cellwise]))
            cases.append((intersection(f, g, pr), [
                PossValue(n_norm(a.triple, b.triple, pr), pr.tnorm(a.mu, b.mu))
                for a, b in cellwise]))
        for built, checked in cases:
            assert len(cells(built)) == len(checked)
            for cell, want in zip(cells(built), checked):
                assert cell == want and hash(cell) == hash(want)
                assert all(type(getattr(cell, name)) is Fraction for name in self.DEGREES)


#: one cell per kind of input degree: int, float, string and Fraction
RAW_CELLS = ((1, 0, 0, 1), (0.5, 0.25, 0.75, 1.0), ("1/3", "0.2", "1", "0"),
             (Fraction(2, 7), Fraction(0), Fraction(1), Fraction(5, 6)))
CELL_FORMS = {
    "sequence": tuple,
    "mapping": lambda c: dict(zip(("t", "i", "f", "mu"), c)),
    "PossValue": lambda c: PossValue(c[:3], c[3]),
}


class _Degree(Fraction):
    pass


#: one cell of Fraction-subclass degrees, which the boundary turns into
#: exact Fractions of the same value
SUBCLASS_CELLS = RAW_CELLS + ((_Degree(1, 2), _Degree(0), _Degree(1), _Degree(3, 4)),)


def raw_set(form, cells=RAW_CELLS):
    return PnsSet.from_rows(["e1", "e2"], [f"u{j}" for j in range(len(cells))],
                            [[CELL_FORMS[form](c) for c in cells]] * 2)


def exact_builders():
    """(id, zero-argument builder) for every public way to make a set."""
    f, g = raw_set("sequence"), raw_set("sequence", RAW_CELLS[::-1])
    builders = [(f"from_rows-{form}", lambda form=form: raw_set(form)) for form in CELL_FORMS]
    builders += [(f"from_rows-{form}-subclass", lambda form=form: raw_set(form, SUBCLASS_CELLS))
                 for form in CELL_FORMS]
    builders += [
        ("loads_pns", lambda: loads_pns(json.dumps(
            {"parameters": ["e1"], "universe": ["u1", "u2"],
             "cells": [[{"t": 1, "i": 0, "f": 0.5, "mu": 0.25},
                        {"t": 0.125, "i": 1, "f": 0, "mu": 1.0}]]}))),
        ("loads_csv", lambda: loads_csv("parameter,element,t,i,f,mu\n"
                                        "e1,u1,1,0,0.5,1/3\ne1,u2,0.125,1,0,1.0\n")),
        ("null_set", lambda: null_set(["e1"], ["u1", "u2"])),
        ("universal_set", lambda: universal_set(["e1"], ["u1", "u2"])),
        ("complement", lambda: complement(f)),
        ("and_product", lambda: and_product(f, g)),
        ("or_product", lambda: or_product(f, g)),
        ("to_pns_set", lambda: to_pns_set(and_product(f, g))),
        ("pickle", lambda: pickle.loads(pickle.dumps(f))),
    ]
    for pr in PROFILES:
        names = f"{pr.tnorm.__name__}-{pr.tconorm.__name__}"
        builders.append((f"union-{names}", lambda pr=pr: union(f, g, pr)))
        builders.append((f"intersection-{names}", lambda pr=pr: intersection(f, g, pr)))
    return builders


class TestCellsHoldExactFractions:
    """Every public way to make a set gives cells whose four degrees are
    exact Fractions: the cell readers and the norm kernels read their slots."""

    @pytest.mark.parametrize("build", [pytest.param(build, id=name)
                                       for name, build in exact_builders()])
    def test_every_degree_is_an_exact_fraction(self, build):
        s = build()
        degrees = [getattr(c, name) for row in s.cells for c in row
                   for name in TestSlottedCells.DEGREES]
        assert degrees and all(type(x) is Fraction for x in degrees)


def violations(build, *args):
    with pytest.raises(SchemaError) as exc:
        build(*args)
    return exc.value.violations


class TestValidate:
    """Auditing: a document goes through from_document, a set's fields
    through from_rows; the SchemaError lists every violation."""

    def test_fixture_is_clean(self, cars):
        f, _ = cars
        assert PnsSet.from_rows(f.parameters, f.universe, f.cells) == f

    def test_document_is_clean(self):
        doc = {"parameters": ["e1"], "universe": ["u1"],
               "cells": [[{"t": 0.5, "i": 0.2, "f": 0.6, "mu": 0.8}]]}
        assert from_document(doc).cell("e1", "u1") == PossValue(T(0.5, 0.2, 0.6), 0.8)

    def test_out_of_range_component(self):
        doc = {"parameters": ["e1"], "universe": ["u1"],
               "cells": [[{"t": 1.2, "i": 0.2, "f": 0.6, "mu": 0.8}]]}
        out = violations(from_document, doc)
        assert len(out) == 1
        assert "cell (e1, u1)" in out[0] and "t" in out[0]

    def test_shape_mismatch(self):
        doc = {"parameters": ["e1", "e2", "e3"], "universe": ["u1"],
               "cells": [[{"t": 0, "i": 0, "f": 0, "mu": 0}],
                         [{"t": 0, "i": 0, "f": 0, "mu": 0}]]}
        out = violations(from_document, doc)
        assert any("3 parameters" in v for v in out)

    def test_missing_key_and_field(self):
        assert violations(from_document, {"parameters": ["e1"], "universe": ["u1"]}) \
            == ["missing key 'cells'"]
        doc = {"parameters": ["e1"], "universe": ["u1"],
               "cells": [[{"t": 0.5, "i": 0.2, "mu": 0.8}]]}
        assert any("missing 'f'" in v for v in violations(from_document, doc))

    def test_collects_every_violation(self):
        doc = {"parameters": ["e1"], "universe": ["u1", "u2"],
               "cells": [[{"t": 2, "i": 0, "f": 0, "mu": 0},
                          {"t": 0, "i": 0, "f": 0, "mu": -1}]]}
        assert len(violations(from_document, doc)) == 2

    def test_hand_built_instance(self):
        s = PnsSet(parameters=("e1",), universe=("u1",),
                   cells=((PossValue(T(0, 0, 0), 0),),))
        assert PnsSet.from_rows(s.parameters, s.universe, s.cells) == s
        # raw cells are checked and built, not passed as they are
        raw = PnsSet(parameters=("e1",), universe=("u1",), cells=(((0.5, 0.2, 0.1, 0.3),),))
        built = PnsSet.from_rows(raw.parameters, raw.universe, raw.cells)
        assert built.cell("e1", "u1") == PossValue(T(0.5, 0.2, 0.1), 0.3)
        bad = PnsSet(parameters=("e1",), universe=("u1",), cells=(((1.5, 0, 0, 0),),))
        assert violations(PnsSet.from_rows, bad.parameters, bad.universe, bad.cells) \
            == ["cell (e1, u1): t must lie in [0, 1], got 1.5"]


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


def _common_rows(a, b):
    # mixed_pairs draws the parameter counts independently; keep the rows
    # the two sets share, e1 to ek
    k = min(len(a.parameters), len(b.parameters))
    return tuple(PnsSet(parameters=s.parameters[:k], universe=s.universe,
                        cells=s.cells[:k]) for s in (a, b))



@settings(max_examples=30, deadline=None)
@given(pair=mixed_pairs())
def test_operators_build_cells_like_the_checked_constructors(pair):
    f, g = _common_rows(*pair)
    for p in PROFILES:
        results = [
            (union(f, g, p), lambda a, b: PossValue(n_conorm(a.triple, b.triple, p),
                                                    p.tconorm(a.mu, b.mu))),
            (intersection(f, g, p), lambda a, b: PossValue(n_norm(a.triple, b.triple, p),
                                                           p.tnorm(a.mu, b.mu))),
            (complement(f), lambda a, _: PossValue(negate_triple(a.triple), 1 - a.mu)),
        ]
        for result, checked_cell in results:
            for row, frow, grow in zip(result.cells, f.cells, g.cells):
                for cell, a, b in zip(row, frow, grow):
                    checked = checked_cell(a, b)
                    assert cell == checked
                    assert hash(cell) == hash(checked)
                    assert all(type(x) is Fraction for x in (*cell.triple, cell.mu))
