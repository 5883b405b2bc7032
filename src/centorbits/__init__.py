"""Exact classification of centralizer orbits of a rational linear operator.

The invertible operators commuting with a matrix T act on the underlying
space, and two initial conditions of x' = Tx are equivalent exactly when
they lie in one orbit of that action. This package computes, entirely in
exact rational arithmetic: the Jordan block structure of T, an explicit
basis of the commuting algebra, the finite lattice of orbits with its order,
covers and duality, the orbit of any concrete vector, and the generating
function counting orbits by dimension. An independent verifier over prime
fields solves the commuting algebra mod p, finds every invariant subspace
from the cyclic submodules of the lines of F_p^n, and cross-checks the
predicted lattice subspace by subspace.

The top level exports what the README's Library section documents; every
other name is imported from its own module (``centorbits.lattice``, ...).
"""

from .centralizer import centralizer_basis
from .classify import classify_vector, same_solution_class
from .counting import gen_function
from .jordan import JordanType, NonSplittingCharPoly, jordan_basis
from .lattice import CapExceeded, OrbitLabel, enumerate_labels, label_for, orbit_count, upper_covers
from .linalg import Matrix
from .oracle import compare_with_prediction

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "JordanType",
    "Matrix",
    "NonSplittingCharPoly",
    "OrbitLabel",
    "centralizer_basis",
    "classify_vector",
    "compare_with_prediction",
    "enumerate_labels",
    "gen_function",
    "jordan_basis",
    "label_for",
    "orbit_count",
    "same_solution_class",
    "upper_covers",
]
