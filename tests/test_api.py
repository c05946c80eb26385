"""The public names of the package, pinned.

Adding a name to `pnsoft`, or taking one away, changes what users may
rely on. This list makes such a change show up in review.
"""

from types import ModuleType

import pnsoft

PUBLIC = [
    "CandidateResult", "DEFAULT_PROFILE", "DecisionReport", "DegenerateRowError",
    "IncompatibleError", "NeutrosophicTriple", "NormProfile", "ONE",
    "PnsError", "PnsSet", "PossValue", "ProductPnsSet", "ProfileError",
    "SchemaError", "SelectionReport", "SimilarityReport", "TCONORMS", "TNORMS",
    "ZERO", "and_product", "as_unit", "complement", "decide", "decimal_string",
    "decision_scores", "dumps_pns", "equals", "from_document", "intersection",
    "is_subset", "load_any", "load_csv", "load_pns", "loads_csv", "loads_pns",
    "make_profile", "n_conorm", "n_norm", "negate_triple", "null_set",
    "or_product", "phi", "possibility_similarity", "row_scores", "save_pns",
    "select_by_similarity", "similarity", "to_pns_set", "triple_leq", "union",
    "universal_set", "validate", "value_similarity", "weighted_matrices",
]


def test_public_names_are_pinned():
    # submodules become attributes once imported, so they are left out
    names = sorted(name for name, value in vars(pnsoft).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC
