"""Possibility neutrosophic soft sets.

Set algebra under named triangular norm families, AND/OR products over
parameter pairs, weighted-matrix decision making and similarity-based
selection. All membership degrees are exact fractions internally.
"""

from .algebra import (
    DEFAULT_PROFILE,
    ONE,
    TCONORMS,
    TNORMS,
    ZERO,
    NeutrosophicTriple,
    NormProfile,
    as_unit,
    make_profile,
    n_conorm,
    n_norm,
    negate_triple,
    triple_leq,
)
from .decision import (
    DecisionReport,
    decide,
    decision_scores,
    row_scores,
    weighted_matrices,
)
from .errors import (
    DegenerateRowError,
    IncompatibleError,
    PnsError,
    ProfileError,
    SchemaError,
)
from .jsonio import (
    decimal_string,
    dumps_pns,
    from_document,
    load_any,
    load_csv,
    load_pns,
    loads_csv,
    loads_pns,
    save_pns,
)
from .products import ProductPnsSet, and_product, or_product, to_pns_set
from .sets import (
    PnsSet,
    PossValue,
    complement,
    equals,
    intersection,
    is_subset,
    null_set,
    union,
    universal_set,
)
from .similarity import (
    CandidateResult,
    SelectionReport,
    SimilarityReport,
    phi,
    possibility_similarity,
    select_by_similarity,
    similarity,
    value_similarity,
)

__version__ = "0.1.0"
