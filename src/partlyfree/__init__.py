"""Partly-free decisions for graph operator algebras, verified exactly.

The package answers, for a directed graph G, whether the WOT-closed
algebra generated by its left regular representation and the norm-closed
quiver algebra are (unitally) partly free -- i.e. contain a free
semigroup algebra on two generators -- and then constructs the
witnessing pairs of partial isometries and verifies their defining
identities on a truncated Fock space in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .fock import (
    BasisCapError,
    FockBasis,
    SparseOp,
    build_basis,
    export_sparse,
    fourier_coefficients,
    left_map,
    left_op,
    reconstruct,
    right_op,
)
from .graphs import (
    CycleWitness,
    DoubleCycleWitness,
    Edge,
    Graph,
    GraphError,
    InfinitePathCertificate,
    PropertyReport,
    classify_finite,
    double_cycle_witnesses,
    parse_graph,
    to_dot,
    transpose,
)
from .pairs import (
    FormalIsometryPair,
    MaterializedPair,
    PairConstructionError,
    Summand,
    VerificationReport,
    construct_pair,
    construct_pair_double_cycle,
    construct_pair_infinite_path,
    construct_pair_unital,
    materialize,
    pair_from_json,
    quiver_pair,
    verify_materialized,
    verify_pair,
)
from .paths import Path, enumerate_paths, literal, path_from_literal, unit, word

__all__ = [name for name in dir() if not name.startswith("_")]
