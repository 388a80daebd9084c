"""Uncertainty quantification with imperfect simulation models.

Estimate input laws from small measurement campaigns, replace expensive
simulators by penalized least-squares surrogates (optionally corrected on
experimental data), and attach finite-sample uncertainty statements to the
resulting output quantities: quantiles, densities, validation metrics and
model-error bounds.

The package loads each layer module on first use (PEP 562): ``uqim.fit_with_gcv``
or ``from uqim import fit_with_gcv`` imports ``uqim.surrogate`` and binds all
of its exported names, and ``uqim.surrogate`` is the module.  Only ``errors``
and ``avm`` load with the package; ``avm`` because its module and its function
share a name, and the package attribute must stay the function.  Neither
imports numpy at its top, so ``import uqim`` loads no numpy and the CLI's
no-work paths (``--dry-run``, ``--version``, ``--help``) start without it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

from .avm import AvmResult, EmpiricalCdf, avm
from .errors import (
    ConditioningError,
    DataError,
    DomainError,
    InfeasibleError,
    InsufficientDataError,
    InvalidCovarianceError,
    RankDeficiencyError,
    UqError,
    ValidationError,
    ZeroSpreadError,
)

# the public names of each lazily loaded layer module
_EXPORTS = {
    "bootstrap": ("BootstrapErrorReport", "bootstrap_error_quantile"),
    "confidence": (
        "DensityBand", "EpsGamma", "FeasibilityReport", "QuantileCi", "ci_feasibility",
        "density_band", "gamma_term", "minimal_feasible_delta", "minimal_feasible_n",
        "minimize_eps_gamma", "quantile_ci", "surrogate_error_bound",
    ),
    "data": (
        "InputSample", "PairedDataset", "parse_dataset", "parse_inputs",
        "write_dataset", "write_inputs",
    ),
    "density": (
        "KdeModel", "QuantileEstimate", "kde_cdf", "kde_evaluate", "mc_quantile",
        "select_bandwidth", "surrogate_density",
    ),
    "gp": (
        "DiscrepancyData", "ErrorQuantileResult", "GpDiscrepancyParams", "GpFitResult",
        "GpHyperParams", "gp_cov_matrix", "gp_error_quantile", "gp_fit_map",
    ),
    "randgen": (
        "MvnParams", "estimate_mvn", "latin_hypercube", "make_rng", "sample_mvn",
        "spawn_seeds",
    ),
    "surrogate": (
        "FunctionFamily", "ImprovedSurrogate", "SurrogateModel", "WeightSelection",
        "compute_residuals", "fit_penalized_ls", "fit_with_gcv", "improved_surrogate",
        "load_model", "save_model", "select_weight_and_penalty",
    ),
    "synthetic": (
        "SyntheticSystem", "field_measurements", "make_hidim_like", "make_mafds_like",
        "mc_truth_quantile",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the eager names above (with the ``errors`` module), the lazy names and modules
__all__ = sorted(
    {*(name for name in globals() if not name.startswith("_")), *_MODULE_OF, *_EXPORTS}
)


def _load(module: str):
    mod = _import_module(f".{module}", __name__)
    namespace = globals()
    for name in _EXPORTS[module]:
        namespace.setdefault(name, getattr(mod, name))
    return mod


def __getattr__(name: str):
    if name in _EXPORTS:
        return _load(name)
    if name in _MODULE_OF:
        _load(_MODULE_OF[name])
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
