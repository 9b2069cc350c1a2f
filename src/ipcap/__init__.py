"""Information processing capacity of stochastically driven dynamical systems.

Measures how a system's state linearly encodes orthogonal polynomial
functions (polynomial chaos) of its input history, with surrogate-based
significance thresholds, temporal target extensions for time-variant
systems, and the NARMA10 stability analyses that motivate the method.

Each public name is declared once, under the module that owns it, and that
module is imported on the name's first use (PEP 562), so `import ipcap`
alone loads no submodule and not numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "capacity": (
        "CapacityEntry", "CapacityReport", "StateMatrix", "SvdBasis", "ThresholdConfig",
        "capacity_sweep", "decompose", "detrend",
    ),
    "distributions": ("DistributionSpec", "InputShaping", "analytic_moments", "sample_stream", "shape_input"),
    "errors": (
        "AnalysisError", "ConfigError", "DataError", "DegeneracyError", "DivergenceError",
        "NoFixedPointError", "ParameterError", "ShapeError",
    ),
    "narma": (
        "ApproxModelCoeffs", "LyapunovConfig", "approx_model_coeffs", "basin_scan", "delta_w",
        "divergence_probability", "fixed_point", "lyapunov_spectrum", "nullclines", "simulate_approx_model",
    ),
    "polychaos": ("ChaosSpec", "PolynomialFamily", "enumerate_chaos", "eval_table", "fit_gram_schmidt"),
    "presets": ("ExperimentConfig", "get_preset", "preset_names", "run_ipc", "run_narma_suite", "run_tipc"),
    "reports": ("read_report", "write_report"),
    "systems": (
        "EsnConfig", "LimitCycleConfig", "Narma10Config", "simulate_1d_esn", "simulate_esn",
        "simulate_limit_cycle", "simulate_narma10", "train_readout",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_OWNER), "__version__"]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
