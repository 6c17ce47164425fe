"""Exact symbolic calculator for equioriented type-A quiver loci.

Quiver polynomials and equivariant CSM classes of orbit closures and
open orbits, each computable by three independent formulas (pipe
dreams, chained generic pipe dreams, localization ratios) that can be
cross-checked against one another.
"""

from .poly import HBAR, Poly, format_poly, parse_poly, xvar
from .quiver import (
    Dims,
    LaceArray,
    RankArray,
    Rep,
    enumerate_lace_arrays,
    enumerate_rank_arrays,
    hom_rank_array,
    lace_array,
    rank_array,
    representative,
)
from .blockperm import perm_set, zelevinsky_permutation
from .pipedream import PipeDream, enumerate_pipe_dreams, quiver_poly_pd, csm_pd
from .cgpd import CGPD, csm_cgpd, enumerate_cgpd, quiver_poly_cgpd
from .localization import ajs_billey, csm_ratio, csm_restriction, quiver_poly_ratio
from .engine import ConsistencyReport, check, compute, sweep

__all__ = [
    "HBAR",
    "Poly",
    "format_poly",
    "parse_poly",
    "xvar",
    "Dims",
    "LaceArray",
    "RankArray",
    "Rep",
    "enumerate_lace_arrays",
    "enumerate_rank_arrays",
    "hom_rank_array",
    "lace_array",
    "rank_array",
    "representative",
    "perm_set",
    "zelevinsky_permutation",
    "PipeDream",
    "enumerate_pipe_dreams",
    "quiver_poly_pd",
    "csm_pd",
    "CGPD",
    "csm_cgpd",
    "enumerate_cgpd",
    "quiver_poly_cgpd",
    "ajs_billey",
    "csm_ratio",
    "csm_restriction",
    "quiver_poly_ratio",
    "ConsistencyReport",
    "check",
    "compute",
    "sweep",
]
