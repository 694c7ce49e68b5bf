"""Exact correlators of the generalized BGW model, three independent ways.

The package computes connected correlators through a Virasoro-style
recursion, through BKP affine-coordinate cycle sums, and through
topological recursion on the curve x^2 y^2 = x^2 + S^2, and cross-checks
the three pipelines against each other and against closed forms.
"""

from .poly import ParamPoly, double_factorial
from .series import BiSeries, SparseTensor
from .pfaffian import pfaffian

__all__ = [
    "ParamPoly",
    "double_factorial",
    "BiSeries",
    "SparseTensor",
    "pfaffian",
    "reset_caches",
]

__version__ = "0.1.0"


def reset_caches():
    """Empty the six module memos: the per-genus Virasoro table with its
    per-(parts, pick) step keys, the two EO tables and the affine
    coordinates with their theta products."""
    from . import affine, correlators, eo, schurq

    for memo in (correlators._cache, correlators._step_cache, eo._omega_cache,
                 eo._closed_cache, affine._affine_cache, schurq._theta_prod_cache):
        memo.clear()
