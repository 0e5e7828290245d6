"""Exact classical invariant theory of binary quartics and quintics.

Sparse multivariate polynomials over the rationals, binary forms with the
GL2 action, transvectants, resultants and discriminants, the quintic's
invariants J, K, L, H, the six degree-24 invariants built from five-point
j-data, their decomposition in the J, K, L subring, and exact equivalence
decisions — all in pure Python with no numerical error anywhere.

The public names are those in the ``__all__`` of the four modules below.
"""

from . import beauville, forms, invariants, mpoly
from .mpoly import *
from .forms import *
from .invariants import *
from .beauville import *

__version__ = "1.0.0"

__all__ = [*mpoly.__all__, *forms.__all__, *invariants.__all__,
           *beauville.__all__, "__version__"]
