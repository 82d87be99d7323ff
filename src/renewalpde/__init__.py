"""Characteristic-based solver and certificates for nonlocal renewal transport."""

from .analysis import check_hypotheses
from .characteristics import TraceBatch, VelocityField, trace_backward
from .domain import Domain, Grid, GridFn, l1_norm, linf_norm
from .kernels import ScalarComponentKernel, WeightedMassKernel
from .models import (
    CellGrowthParams,
    CompetitiveParams,
    SIHRParams,
    build_blowup,
    build_cell_growth,
    build_competitive,
    build_sihr,
)
from .picard import LocalExistenceError, PicardConfig, Trajectory, apply_T, solve, solve_slab
from .problem import HypothesisConstants, SystemDef
from .transport import LinearProblem, evaluate, solve_series

__all__ = [
    "TraceBatch", "VelocityField", "trace_backward",
    "Domain", "Grid", "GridFn", "l1_norm", "linf_norm",
    "ScalarComponentKernel", "WeightedMassKernel",
    "CellGrowthParams", "CompetitiveParams", "SIHRParams",
    "build_blowup", "build_cell_growth", "build_competitive", "build_sihr",
    "LocalExistenceError", "PicardConfig", "Trajectory", "apply_T", "solve", "solve_slab",
    "HypothesisConstants", "SystemDef", "check_hypotheses",
    "LinearProblem", "evaluate", "solve_series",
]

__version__ = "0.1.0"
