"""tnkit: labeled tensors with abelian block sparsity and network contraction.

The building blocks:

* :class:`Symmetry` -- U(1) or Z_n group tags for integer charges
* :class:`Bond` -- one tensor index: dimension, direction, charge sectors
* :class:`DenseTensor` -- strided numeric array with lazy permutation
* :class:`UniTensor` -- named, labeled tensor; dense or block-sparse
* :func:`contract` -- label-driven contraction with optimal-order search
* :class:`Network` -- reusable contraction blueprints from .net files
* :mod:`tnkit.linalg` -- SVD (plain and truncated), eigensolvers, QR,
  matrix exponential, Lanczos on linear operators
* :mod:`tnkit.dmrg`, :mod:`tnkit.circuit` -- end-to-end solvers built on
  the above
"""

from . import circuit, dmrg, linalg, physics, random, storage
from .bond import Bond, BondType, IN, OUT, REGULAR
from .contract import (contract, contract_pair, contraction_cost,
                       contraction_peak, find_optimal_order, parse_order,
                       render_order)
from .io import load_unitensor, save_unitensor
from .network import Network
from .storage import (Bool, Complex128, DenseTensor, Float64, Int64, arange,
                      eye, from_numpy, kron, ones, uniform, normal, zeros)
from .symmetry import Symmetry
from .unitensor import ElementProxy, UniTensor

__version__ = "0.1.0"

__all__ = [
    "Bond", "BondType", "IN", "OUT", "REGULAR",
    "Bool", "Complex128", "DenseTensor", "ElementProxy", "Float64", "Int64",
    "Network", "Symmetry", "UniTensor",
    "arange", "contract", "contract_pair",
    "contraction_cost", "contraction_peak", "circuit", "dmrg", "eye", "find_optimal_order",
    "from_numpy", "kron", "linalg", "load_unitensor", "normal", "ones",
    "parse_order", "physics", "random", "render_order", "save_unitensor",
    "storage", "uniform", "zeros",
]
