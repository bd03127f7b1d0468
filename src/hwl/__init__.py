"""hwl: a numerical laboratory for Hilbert transforms of wavelets.

Two independent Hilbert transform engines (principal-value quadrature and a
spectral sign multiplier), generators for the classical test functions, one
class per family (``PiecewiseConstant`` for the Haar family and boxes,
``BSplineScaling``, ``SplineWavelet``, ``ModulatedWindow``; ``Generator`` is
their union), and analysis routines that certify decay
rates, vanishing moments, Sobolev smoothness, the Bedrosian identity and
the partition-of-unity breakdown empirically.
"""

__version__ = "0.1.0"

TOOL_VERSION = f"hwl {__version__}"

from .numerics import (  # noqa: E402
    Grid,
    SampledSignal,
    Spectrum,
    dft,
    derivative,
    integrate,
    l1_norm,
    l2_norm,
    mixed_norm,
    sup_norm,
)
from .wavelets import (  # noqa: E402
    BSplineScaling,
    Generator,
    ModulatedWindow,
    PiecewiseConstant,
    SplineWavelet,
    evaluate,
    make_box,
    make_bspline_scaling,
    make_haar_scaling,
    make_haar_wavelet,
    make_modulated_window,
    make_spline_wavelet,
    sample,
)
from .hilbert import (  # noqa: E402
    PV_BACKEND,
    hilbert_box_closed_form,
    hilbert_pv,
    hilbert_spectral,
)
from .analysis import (  # noqa: E402
    BoundCertificate,
    DecayFit,
    MomentReport,
    SobolevEstimate,
    bedrosian_residual,
    fit_decay,
    moments,
    partition_deviation,
    smoothness_profile,
    sobolev_norm,
    tail_limit,
    theorem_certificate,
)

__all__ = [
    "__version__",
    "TOOL_VERSION",
    "Grid",
    "SampledSignal",
    "Spectrum",
    "integrate",
    "derivative",
    "l1_norm",
    "l2_norm",
    "sup_norm",
    "mixed_norm",
    "dft",
    "PiecewiseConstant",
    "BSplineScaling",
    "SplineWavelet",
    "ModulatedWindow",
    "Generator",
    "make_haar_wavelet",
    "make_haar_scaling",
    "make_box",
    "make_bspline_scaling",
    "make_spline_wavelet",
    "make_modulated_window",
    "evaluate",
    "sample",
    "PV_BACKEND",
    "hilbert_pv",
    "hilbert_spectral",
    "hilbert_box_closed_form",
    "MomentReport",
    "DecayFit",
    "BoundCertificate",
    "SobolevEstimate",
    "moments",
    "fit_decay",
    "theorem_certificate",
    "tail_limit",
    "sobolev_norm",
    "smoothness_profile",
    "bedrosian_residual",
    "partition_deviation",
]
