"""Percolation games on edge-weighted Galton-Watson trees.

Numerical library and CLI for the win/loss/draw probabilities of the
two-player capital game played on random edge-weighted trees: monotone
fixed-point iteration for the exact probabilities, closed-form phase
criteria, a finite-duration certificate, and a Monte-Carlo game-solving
oracle for cross-validation.
"""

from .offspring import (Binomial, Dirac, DistributionError, Explicit, NegBinomial,
                        OffspringDistribution, Poisson, TwoPoint, UniformRange,
                        distribution_from_json, geometric)
from .fixpoint import (EdgeWeightLaw, GameSpec, InternalInconsistencyError,
                       IterationRun, SolveResult, Verdict, apply_g, apply_h,
                       classify_draw, default_seed_matrices, find_fixed_points,
                       horizon_iterates, iterate_from_below, solve, weight_matrix)
from .criteria import (DurationReport, Kappa3Bounds, UnsupportedFamilyError,
                       duration_criterion, kappa2_draw_zero, kappa3_bounds,
                       kappa3_contraction_holds, kappa3_p0_zero_check,
                       kappa3_special_ratio, ratio_law)
from .oracle import Forest, NodeCapExceeded, OracleEstimate, estimate_probs, sample_forest

__version__ = "0.1.0"

__all__ = [
    "Binomial", "Dirac", "DistributionError", "Explicit", "NegBinomial",
    "OffspringDistribution", "Poisson", "TwoPoint", "UniformRange",
    "distribution_from_json", "geometric",
    "EdgeWeightLaw", "GameSpec", "InternalInconsistencyError", "IterationRun",
    "SolveResult", "Verdict", "apply_g", "apply_h", "classify_draw",
    "default_seed_matrices", "find_fixed_points", "horizon_iterates",
    "iterate_from_below", "solve", "weight_matrix",
    "DurationReport", "Kappa3Bounds", "UnsupportedFamilyError", "duration_criterion",
    "kappa2_draw_zero", "kappa3_bounds", "kappa3_contraction_holds",
    "kappa3_p0_zero_check", "kappa3_special_ratio", "ratio_law",
    "Forest", "NodeCapExceeded", "OracleEstimate", "estimate_probs", "sample_forest",
]
