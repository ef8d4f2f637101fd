"""Closed-form moments of generalized Student's t distributions.

Raw, central, absolute and truncated moments in one and several dimensions,
in the precision-like parameterization (density kernel
(1 + (t-mu)^T Sigma (t-mu)/nu)^(-(nu+n)/2)), together with independent
quadrature and Monte Carlo oracles for verification.

The public names below are lazy attributes (PEP 562): ``import tmoments``
loads none of the submodules, and the first access to a name, for example
``tmoments.raw_moment``, imports the module that defines it and caches the
name in this namespace. The 1-D closed forms (``specfun``,
``normal_moments``, ``t1d``) need no numpy: ``t1d`` imports it only when
``t_pdf`` runs or a 1-D truncated moment falls back to its Gauss-Legendre
panels. ``tnd`` needs numpy; ``truncated`` and ``oracle`` load SciPy, so
only their names, or the submodules themselves, pay for it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "EstimationError", "NonConvergenceError",
               "UndefinedMomentError"),
    "normal_moments": ("GammaParams", "NormalParams", "gamma_moment", "normal_abs_moment",
                       "normal_central_moment", "normal_raw_moment"),
    "oracle": ("McEstimate", "mc_moment_nd", "mixture_pdf_1d", "quad_mass_nd",
               "quad_moment_1d", "sample_t_1d", "sample_t_nd"),
    "specfun": ("HypergeomEval", "gamma_ratio", "hyp1f1", "hyp2f1", "log_gamma",
                "rising_factorial"),
    "t1d": ("MomentResult", "QuadResult", "TParams1D", "abs_moment", "abs_moment_standard",
            "central_abs_moment", "central_moment", "precision_from_scale",
            "raw_from_central", "raw_moment", "raw_moment_standard", "scale_from_precision",
            "t_pdf"),
    "tnd": ("MixturePoly", "MultiIndex", "TParamsND", "conditional_moment_poly",
            "raw_moment_nd", "raw_moment_nd_literal", "std_abs_moment_nd",
            "std_raw_moment_nd", "t_pdf_nd"),
    "truncated": ("Rectangle", "rectangle_probability", "trunc_normal_moment",
                  "trunc_t_moment", "trunc_t_moment_literal"),
}

#: Public name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        if name in _EXPORTS:
            return _import_module(f".{name}", __name__)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
