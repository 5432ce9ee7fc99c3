"""Weight spectra of rank-metric codes via lattices of q-cycles."""

import importlib.util
import os
import sys
import threading
import types

_numpy_load = threading.RLock()


class _DeferredModule(types.ModuleType):
    """A package whose body runs at the first lookup of a name it lacks.

    Its spec attributes are set up front, so ``import numpy as np`` binds it
    without running numpy's ``__init__``.  The stdlib ``LazyLoader`` would
    run it there: every import statement reads ``__spec__`` of a module
    already in ``sys.modules``.  ``__path__`` is held back until the load,
    so importing a submodule first loads the package, as it would eagerly.
    The load holds a lock and the class changes only once it has finished:
    a lookup from another thread waits for it, and one from the package's
    own body meanwhile fails as in a partially initialized module.  If the
    body raises, the entry leaves ``sys.modules`` and the error propagates,
    as an eager import would do; the next lookup runs the body again.
    """

    def __getattr__(self, name):
        with _numpy_load:
            if type(self) is _DeferredModule:
                if "__path__" in vars(self):
                    raise AttributeError(f"partially initialized module "
                                         f"{self.__name__!r} has no attribute {name!r}")
                sys.modules.setdefault(self.__name__, self)
                self.__path__ = self.__spec__.submodule_search_locations
                try:
                    self.__spec__.loader.exec_module(self)
                except BaseException:
                    del self.__path__
                    if sys.modules.get(self.__name__) is self:
                        del sys.modules[self.__name__]
                    raise
                self.__class__ = types.ModuleType
        return getattr(self, name)


# Every array operation here is on integers and none calls BLAS, so an
# OpenBLAS loaded by the first numpy load need not start its worker
# threads; a value already in the environment is kept.  numpy loads at the
# first array operation, so import, input parsing and inputs rejected
# there run without it; a missing numpy still fails here, at the plain
# import.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        import numpy  # noqa: F401  (raises ModuleNotFoundError)
    _numpy = importlib.util.module_from_spec(_spec)
    del _numpy.__path__
    _numpy.__class__ = _DeferredModule
    sys.modules["numpy"] = _numpy
    del _spec, _numpy

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
