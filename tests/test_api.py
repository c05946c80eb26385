"""The public names of the package, and the private names its modules
take from each other, pinned.

Adding a name to `pnsoft`, or taking one away, changes what users may
rely on. A module that reaches into a sibling's private names ties the
two together, where each decision should live behind one module. These
lists make either change show up in review.
"""

import ast
from pathlib import Path
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
    "universal_set", "value_similarity", "weighted_matrices",
]


def test_public_names_are_pinned():
    # submodules become attributes once imported, so they are left out
    names = sorted(name for name, value in vars(pnsoft).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC


#: (importing module, sibling module, its private names), one per import line
PRIVATE_IMPORTS = [
    ("algebra", "errors", ["_listed", "_plain"]),
    ("cli", "errors", ["_cut", "_escaped", "_plain"]),
    ("cli", "jsonio", ["_chunks", "_decimal_scale", "_memoized"]),
    ("decision", "algebra", ["_Memo", "_exact"]),
    ("decision", "sets", ["_pick"]),
    ("jsonio", "algebra", ["_Memo"]),
    ("jsonio", "errors", ["_escaped", "_label", "_listed", "_plain"]),
    ("sets", "errors", ["_label", "_listed", "_plain"]),
    ("similarity", "errors", ["_plain"]),
    ("similarity", "sets", ["_MU", "_PHI3", "_joint", "_require_same_labels"]),
]


def test_private_names_taken_from_sibling_modules_are_pinned():
    found = []
    for path in sorted(Path(pnsoft.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                if names:
                    found.append((path.stem, node.module, names))
    assert sorted(found) == PRIVATE_IMPORTS
