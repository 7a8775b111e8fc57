"""Sparse exponential sums on the torus: exact and certified L^p norms,
digit-product constructions that break the majorant property at p = 3, and
the machinery that certifies the growth they exhibit."""

__version__ = "0.1.0"

from .bounds import (
    ChainReport,
    PeakBound,
    interpolation_check,
    peak_lower_bound,
    proposition_check,
    upper_exponent,
)
from .construction import (
    DigitConstruction,
    build,
    eta_empirical,
    fit_k,
    flipped_base,
    majorant_base,
    ratio_at,
)
from .errors import (
    ConstructionError,
    EnvelopeResolutionError,
    FrequencyOverflowError,
    MajorantError,
    QuadratureConvergenceError,
    SearchBudgetError,
)
from .norms import (
    NormEstimate,
    even_moment,
    norm,
    norm_even,
    norm_quad,
    norm_transfer,
)
from .search import (
    MajorantInstance,
    SearchReport,
    exhaustive_roots,
    exhaustive_signs,
    majorant_ratio,
    phase_ascent,
)
from .selfsim import (
    EnvelopePair,
    SandwichResult,
    StepFunction,
    sandwich_bounds,
    sample_envelopes,
    step_envelopes,
    step_mean,
)
from .trigpoly import DilatedProduct, TrigPoly, make, product_of_dilates

__all__ = [
    "__version__",
    "ChainReport",
    "ConstructionError",
    "DigitConstruction",
    "DilatedProduct",
    "EnvelopePair",
    "EnvelopeResolutionError",
    "FrequencyOverflowError",
    "MajorantError",
    "MajorantInstance",
    "NormEstimate",
    "PeakBound",
    "QuadratureConvergenceError",
    "SandwichResult",
    "SearchBudgetError",
    "SearchReport",
    "StepFunction",
    "TrigPoly",
    "build",
    "eta_empirical",
    "even_moment",
    "exhaustive_roots",
    "exhaustive_signs",
    "fit_k",
    "flipped_base",
    "interpolation_check",
    "majorant_base",
    "majorant_ratio",
    "make",
    "norm",
    "norm_even",
    "norm_quad",
    "norm_transfer",
    "peak_lower_bound",
    "phase_ascent",
    "product_of_dilates",
    "proposition_check",
    "ratio_at",
    "sample_envelopes",
    "sandwich_bounds",
    "step_envelopes",
    "step_mean",
    "upper_exponent",
]
