"""Desk-scale toolkit for statistical convergence in normed spaces.

Exact natural-density computation over structured index sets, three-valued
finite-horizon verdicts for statistical convergence, boundedness, and Cauchy
behavior, empirical operator classification against versioned corpora, and a
theorem-check suite, all behind a small CLI (``stconv``).
"""

from .density import (
    DensityProfile,
    DensityVerdict,
    HorizonExhausted,
    IndexSet,
    Schedule,
    complement,
    count,
    density_profile,
    density_verdict,
    finite,
    geometric,
    intersection,
    linear,
    multiples,
    parse_index_set,
    primes,
    squares,
    union,
)
from .spaces import (
    DenseElement,
    Space,
    SparseElement,
    dense_element,
    dense_space,
    norm,
    parse_element,
    sparse_element,
    sparse_space,
)
from .sequences import (
    SequenceSpec,
    combine,
    constant_sequence,
    decaying_sequence,
    harmonic_prefix_sequence,
    parse_sequence,
    prime_coordinate_sequence,
    random_unit_ball,
    spike_sequence,
    subsequence,
    unit_coordinate_sequence,
    zero_sequence,
)
from .operators import (
    FunctionalSpec,
    OperatorSpec,
    SequenceTransform,
    apply,
    compose,
    coordinate_functional,
    diagonal,
    finite_rank,
    image_sequence,
    linear_combo,
    matrix_operator,
    named_diagonal,
    operator_norm_estimate,
    parse_operator,
    prime_position_transform,
    rank_one,
)
from .stanalysis import (
    StVerdict,
    st_bounded,
    st_bounded_real,
    st_cauchy,
    st_converges,
    st_converges_search,
    weakly_st_bounded,
)
from .classify import (
    ClassificationReport,
    TheoremCheckResult,
    cauchy_corpus,
    check_theorem,
    dense_corpus,
    run_suite,
    sparse_corpus,
)
from .parsing import ParseError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ParseError",
    "HorizonExhausted",
    # density
    "IndexSet", "Schedule", "DensityProfile", "DensityVerdict",
    "primes", "multiples", "squares", "finite", "complement", "union",
    "intersection", "count", "density_profile", "density_verdict", "parse_index_set",
    "geometric", "linear",
    # spaces
    "Space", "DenseElement", "SparseElement",
    "dense_space", "sparse_space", "dense_element", "sparse_element",
    "norm", "parse_element",
    # sequences
    "SequenceSpec", "zero_sequence", "constant_sequence",
    "harmonic_prefix_sequence", "unit_coordinate_sequence",
    "prime_coordinate_sequence", "decaying_sequence", "spike_sequence",
    "random_unit_ball", "combine", "subsequence", "parse_sequence",
    # operators
    "OperatorSpec", "FunctionalSpec", "SequenceTransform",
    "diagonal", "named_diagonal", "rank_one", "finite_rank",
    "matrix_operator", "compose", "linear_combo", "apply",
    "image_sequence", "operator_norm_estimate", "coordinate_functional",
    "prime_position_transform", "parse_operator",
    # stanalysis
    "StVerdict", "st_converges", "st_bounded", "st_bounded_real",
    "weakly_st_bounded", "st_cauchy", "st_converges_search",
    # classify
    "ClassificationReport", "TheoremCheckResult",
    "check_theorem", "run_suite", "sparse_corpus", "dense_corpus",
    "cauchy_corpus",
]
