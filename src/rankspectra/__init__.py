"""Weight spectra of rank-metric codes via lattices of q-cycles."""

import os
import sys

# Every array operation here is on integers and none calls BLAS, so an
# OpenBLAS loaded by the first ``import numpy`` need not start its worker
# threads; a value already in the environment is kept.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import InputError, ResourceLimitError, StructuralError
from .fields import FieldTower, prime_field
from .lattice import BettiTable, CycleLattice, build_cycle_lattice, virtual_betti_table
from .linalg import (
    GF,
    Subspace,
    all_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    matrix_count,
    rank_support,
    rank_weight,
)
from .qmatroid import GabidulinCode, QMatroid, qmatroid_from_code, uniform_qmatroid
from .spectra import (
    WeightPolynomial,
    cross_checked_weights,
    higher_spectra,
    mrd_closed_form,
    uniform_betti_table,
    uniform_h_sequence,
    weight_distribution,
    weight_poly_betti,
    weight_poly_mobius,
    weight_polys_betti,
    weights_from_polys,
)

__all__ = [
    "InputError", "ResourceLimitError", "StructuralError",
    "FieldTower", "prime_field",
    "GF", "Subspace", "all_subspaces", "enumerate_subspaces",
    "gaussian_binomial", "matrix_count", "rank_support", "rank_weight",
    "GabidulinCode", "QMatroid", "qmatroid_from_code", "uniform_qmatroid",
    "BettiTable", "CycleLattice", "build_cycle_lattice", "virtual_betti_table",
    "WeightPolynomial", "cross_checked_weights", "higher_spectra",
    "mrd_closed_form", "uniform_betti_table", "uniform_h_sequence",
    "weight_distribution", "weight_poly_betti", "weight_poly_mobius",
    "weight_polys_betti", "weights_from_polys",
    "__version__",
]
