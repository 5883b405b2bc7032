"""Exact classification of centralizer orbits of a rational linear operator.

The invertible operators commuting with a matrix T act on the underlying
space, and two initial conditions of x' = Tx are equivalent exactly when
they lie in one orbit of that action. This package computes, entirely in
exact rational arithmetic: the Jordan block structure of T, an explicit
basis of the commuting algebra, the finite lattice of orbits with its order,
covers and duality, the orbit of any concrete vector, and the generating
function counting orbits by dimension. A brute-force verifier over small
prime fields cross-checks the predicted lattice subspace by subspace.
"""

from .centralizer import (
    CentralizerBasis,
    CentralizerOperator,
    centralizer_basis,
    centralizer_dimension,
    sample_invertible,
)
from .classify import (
    OrbitReport,
    classify_chain_coordinates,
    classify_vector,
    comparability,
    invariant_positions,
    orbit_dimension,
    representative,
    same_solution_class,
)
from .counting import IntPolynomial, gen_function, gen_function_eigenvalue, orbit_count
from .jordan import (
    ChainSlot,
    JordanBasis,
    JordanChain,
    JordanType,
    NonSplittingCharPoly,
    chain_slots,
    characteristic_polynomial,
    coords_in_jordan_basis,
    jordan_basis,
    jordan_matrix,
    jordan_type,
    rational_eigenvalues,
)
from .lattice import (
    CapExceeded,
    IncrementSequence,
    MismatchedLabels,
    OrbitLabel,
    bottom,
    dual,
    enumerate_labels,
    hasse_covers,
    increments_from_type,
    join,
    label_for,
    leq,
    meet,
    top,
    upper_covers,
)
from .linalg import Matrix, ShapeError, as_fraction
from .oracle import (
    OracleVerdict,
    PrimeFieldMatrix,
    all_subspaces,
    compare_with_prediction,
    gaussian_binomial,
    invariant_subspaces_bruteforce,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CentralizerBasis",
    "CentralizerOperator",
    "ChainSlot",
    "IncrementSequence",
    "IntPolynomial",
    "JordanBasis",
    "JordanChain",
    "JordanType",
    "Matrix",
    "MismatchedLabels",
    "NonSplittingCharPoly",
    "OracleVerdict",
    "OrbitLabel",
    "OrbitReport",
    "PrimeFieldMatrix",
    "ShapeError",
    "all_subspaces",
    "as_fraction",
    "bottom",
    "centralizer_basis",
    "centralizer_dimension",
    "chain_slots",
    "characteristic_polynomial",
    "classify_chain_coordinates",
    "classify_vector",
    "comparability",
    "compare_with_prediction",
    "coords_in_jordan_basis",
    "dual",
    "enumerate_labels",
    "gaussian_binomial",
    "gen_function",
    "gen_function_eigenvalue",
    "hasse_covers",
    "increments_from_type",
    "invariant_positions",
    "invariant_subspaces_bruteforce",
    "join",
    "jordan_basis",
    "jordan_matrix",
    "jordan_type",
    "label_for",
    "leq",
    "meet",
    "orbit_count",
    "orbit_dimension",
    "rational_eigenvalues",
    "representative",
    "same_solution_class",
    "sample_invertible",
    "top",
    "upper_covers",
]
