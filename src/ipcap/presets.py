"""Bundled experiment configurations and the pipelines that execute them.

A configuration is a plain dict with blocks: system (what produces the state),
input (distribution or csv, shaping, length, seed), sweep (chaos enumeration),
threshold (surrogate significance), output (file names), and, for the
recurrence analysis suite, an analysis block. The sweep's polynomial family
follows from the input law (distributions.LAWS); sweep.family may restate it
or ask for gram_schmidt, and must be given only for a CSV input that should
not be fitted. The presets name no family: each fig1a preset is one law,
tagged with the family it picks. Presets are self-contained: every seed is
pinned and nothing reads the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .capacity import (
    DEFAULT_WASHOUT,
    CapacityReport,
    StateMatrix,
    SvdBasis,
    ThresholdConfig,
    capacity_sweep,
    decompose,
    detrend,
)
from .distributions import (
    LAWS,
    DistributionSpec,
    InputShaping,
    analytic_moments,
    sample_stream,
    shape_input,
)
from .errors import ConfigError, DataError, DivergenceError, ParameterError
from .narma import (
    LyapunovConfig,
    approx_model_coeffs,
    basin_scan,
    divergence_probability,
    fixed_point,
    lyapunov_spectrum,
    nullclines,
    simulate_approx_model,
)
from .polychaos import (
    ChaosSpec,
    PolynomialFamily,
    _crossed,
    _recurrence,
    enumerate_chaos,
    fit_gram_schmidt,
)
from .reports import write_json, write_report, write_series_csv
from .systems import (
    EsnConfig,
    LimitCycleConfig,
    Narma10Config,
    simulate_1d_esn,
    simulate_esn,
    simulate_limit_cycle,
    simulate_narma10,
    train_readout,
)

_SYSTEM_KEYS = {
    "esn": {"n_nodes", "spectral_radius", "input_intensity", "activation", "leak", "weight_seed"},
    "esn_1d": {"rho"},
    "narma10": {"alpha", "beta", "gamma", "delta", "init"},
    "limit_cycle": {"omega", "tau", "init"},
    "external": {"state_csv"},
}
_INPUT_KEYS = {"distribution", "csv", "shaping", "T", "seed", "washout"}
_SWEEP_KEYS = {
    "family",
    "degree_blocks",
    "temporal",
    "max_degree_per_var",
    "fit_degree",
    "detrend_harmonics",
    "rank_tol",
}
_THRESHOLD_KEYS = {"n_surrogates", "significance_pct", "factor", "seed"}
_OUTPUT_KEYS = {"basename"}
_ANALYSIS_KEYS = {
    "fixed_point": set(),
    "nullclines": {"z10", "w1_min", "w1_max", "count"},
    "divergence": {"sigmas", "n_seeds", "horizon", "seed", "symmetric"},
    "basin": {"mode", "a_min", "a_max", "a_count", "b_min", "b_max", "b_count", "max_steps", "sigma", "seed"},
    "lyapunov": {"sigmas", "T", "M", "n_exponents", "symmetric", "seed"},
    "nrmse_table": {
        "rhos", "activations", "n_nodes", "input_intensity", "weight_seed", "sigma", "T", "washout",
        "train_frac", "seed",
    },
    "approx_model": {"n1", "n2", "sigma", "symmetric", "T", "washout", "trace_len", "seed"},
}
_KINDS = ("ipc", "tipc", "narma_suite")
# value types by key name, in whichever block the key appears
_INT_KEYS = {
    "T", "seed", "washout", "n_nodes", "weight_seed", "n_surrogates", "count", "n_seeds", "horizon",
    "a_count", "b_count", "max_steps", "M", "n_exponents", "trace_len", "fit_degree",
    "max_degree_per_var", "detrend_harmonics",
}
_REAL_KEYS = {
    "mu", "kappa", "rho", "spectral_radius", "input_intensity", "leak", "alpha", "beta", "gamma",
    "delta", "omega", "tau", "significance_pct", "factor", "sigma", "z10", "w1_min", "w1_max",
    "a_min", "a_max", "b_min", "b_max", "train_frac", "rank_tol",
}
# lower bounds of integer keys, in whichever block the key appears
_MINIMUM = {
    "seed": 0, "weight_seed": 0, "washout": 0, "detrend_harmonics": 0, "fit_degree": 1,
    "max_degree_per_var": 1,
}
# list-valued keys and the kind of their entries, in whichever block the key appears
_LIST_KEYS = {
    "sigmas": "numbers", "rhos": "numbers", "n1": "integers", "n2": "integers",
    "temporal": "integers", "activations": "names",
}


def _is_number(value, integral: bool = False) -> bool:
    return isinstance(value, int if integral else (int, float)) and not isinstance(value, bool)


def _is_entry(value, kind: str) -> bool:
    return isinstance(value, str) if kind == "names" else _is_number(value, kind == "integers")


def _check_keys(block: str, payload, allowed) -> None:
    if not isinstance(payload, dict):
        raise ConfigError(f"{block}: expected a mapping, got {payload!r}")
    for key, value in payload.items():
        if key not in allowed:
            raise ConfigError(f"{block}: unknown key '{key}'")
        integral = key in _INT_KEYS
        if (integral or key in _REAL_KEYS) and not _is_number(value, integral):
            kind = "an integer" if integral else "a number"
            raise ConfigError(f"{block}.{key}: expected {kind}, got {value!r}")
        if key in _MINIMUM and value < _MINIMUM[key]:
            raise ConfigError(f"{block}.{key}: must be >= {_MINIMUM[key]}, got {value!r}")
        kind = _LIST_KEYS.get(key)
        if kind and not (
            isinstance(value, (list, tuple)) and all(_is_entry(v, kind) for v in value)
        ):
            raise ConfigError(f"{block}.{key}: expected a list of {kind}, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see from_dict for the block schema."""

    name: str
    kind: str
    system: dict = field(default_factory=dict)
    input: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    threshold: dict | None = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError("config: expected a mapping at top level")
        allowed = {"name", "kind", "system", "input", "sweep", "threshold", "output", "analysis"}
        _check_keys("config", payload, allowed)
        kind = payload.get("kind")
        if kind not in _KINDS:
            raise ConfigError(f"kind: must be one of {_KINDS}, got {kind!r}")
        system = dict(payload.get("system", {}))
        if system:
            skind = system.get("kind")
            if skind not in _SYSTEM_KEYS:
                raise ConfigError(
                    f"system.kind: unknown system {skind!r}, expected one of {sorted(_SYSTEM_KEYS)}"
                )
            _check_keys("system", {k: v for k, v in system.items() if k != "kind"}, _SYSTEM_KEYS[skind])
            if skind == "external" and "state_csv" not in system:
                raise ConfigError("system.state_csv: required for external state")
        inp = dict(payload.get("input", {}))
        _check_keys("input", inp, _INPUT_KEYS)
        _check_keys("input.shaping", inp.get("shaping", {}), {"mu", "kappa"})
        sweep = dict(payload.get("sweep", {}))
        _check_keys("sweep", sweep, _SWEEP_KEYS)
        threshold = payload.get("threshold", {})
        if threshold is not None:
            threshold = dict(threshold)
            _check_keys("threshold", threshold, _THRESHOLD_KEYS)
        output = dict(payload.get("output", {}))
        _check_keys("output", output, _OUTPUT_KEYS)
        analysis = dict(payload.get("analysis", {}))
        _check_keys("analysis", analysis, _ANALYSIS_KEYS)
        for name, block in analysis.items():
            _check_keys(f"analysis.{name}", block, _ANALYSIS_KEYS[name])
        if kind in ("ipc", "tipc"):
            if not system:
                raise ConfigError("system: required for capacity experiments")
            if "T" not in inp:
                raise ConfigError("input.T: required for capacity experiments")
            if ("distribution" in inp) == ("csv" in inp):
                raise ConfigError("input: exactly one of 'distribution' or 'csv' required")
            blocks = sweep.get("degree_blocks")
            if not blocks or not isinstance(blocks, (list, tuple)):
                raise ConfigError(
                    f"sweep.degree_blocks: a list of [degree, max_delay] pairs required, got {blocks!r}"
                )
            for pair in blocks:
                if not (
                    isinstance(pair, (list, tuple))
                    and len(pair) == 2
                    and all(_is_number(v, integral=True) and v >= 1 for v in pair)
                ):
                    raise ConfigError(f"sweep.degree_blocks: bad entry {pair!r}")
            # a block yields a target iff degree <= max_delay * max_degree_per_var: what
            # enumerating its specs would find, without the enumeration's cost
            per_var = sweep.get("max_degree_per_var", math.inf)
            if all(degree > max_delay * per_var for degree, max_delay in blocks):
                raise ConfigError(
                    f"sweep.degree_blocks: no block yields a target; {list(blocks)} needs some degree"
                    f" <= max_delay * max_degree_per_var ({per_var})"
                )
            top = _top_degree(sweep)
            # the input law picks the family; a CSV input has no law and is fitted
            law = None
            if "distribution" in inp:
                _check_keys("input.distribution", inp["distribution"], {"kind", "params"})
                try:
                    law = DistributionSpec.from_dict(inp["distribution"])
                except ParameterError as exc:
                    raise ConfigError(f"input.distribution: {exc}") from None
            derived = law.family if law else {"kind": "gram_schmidt", "params": {}}
            family = sweep.get("family", derived)
            _check_keys("sweep.family", family, {"kind", "params"})
            fitted = family.get("kind") == "gram_schmidt"
            # a law on P points carries orthogonal polynomials up to degree P - 1
            # only. Krawtchouk's higher degrees vanish on its support instead,
            # and the sweep skips their targets as degenerate.
            needed = max(top, sweep.get("fit_degree", top)) if fitted else top
            points = law.support_points if law else math.inf
            if needed >= points and family.get("kind") != "krawtchouk":
                key = "max_degree_per_var" if top >= points else "fit_degree"
                raise ConfigError(
                    f"sweep.{key}: input.distribution {law.kind} has {points:.0f} support points, so no"
                    f" basis orthogonal under it goes past degree {points - 1:.0f}, but the sweep"
                    f" {'evaluates' if top >= points else 'fits'} degree {needed}"
                )
            if fitted:
                # fitted to the input stream at run time; it takes no parameters
                _check_keys("sweep.family.params", family.get("params", {}), set())
                if sweep.get("fit_degree", top) < top:
                    raise ConfigError(
                        f"sweep.fit_degree: must be >= {top}, the top degree the sweep"
                        f" evaluates, got {sweep['fit_degree']}"
                    )
                sweep["family"] = {"kind": "gram_schmidt", "params": {}}
            else:
                chosen = PolynomialFamily(kind=family.get("kind"), params=family.get("params", {}))
                _recurrence(chosen, top)
                if law and (chosen.kind, chosen.params) != (derived["kind"], derived["params"]):
                    raise ConfigError(
                        f"sweep.family: {chosen.kind} {chosen.params} is not orthogonal under"
                        f" input.distribution {law.kind} {law.params}, whose family is"
                        f" {derived['kind']} {derived['params']}; omit sweep.family or use gram_schmidt"
                    )
                sweep["family"] = {"kind": chosen.kind, "params": chosen.params}
        if kind == "narma_suite" and not analysis:
            raise ConfigError("analysis: required for narma_suite experiments")
        return cls(
            name=str(payload.get("name", "custom")),
            kind=kind,
            system=system,
            input=inp,
            sweep=sweep,
            threshold=threshold,
            output=output,
            analysis=analysis,
        )

    def to_dict(self) -> dict:
        out = {"name": self.name, "kind": self.kind}
        for key in ("system", "input", "sweep", "output", "analysis"):
            block = getattr(self, key)
            if block:
                out[key] = block
        out["threshold"] = self.threshold
        return out


# ---------------------------------------------------------------------------
# preset construction

_FIG1A_BLOCKS = ((1, 60), (2, 30), (3, 15), (4, 10), (5, 8), (6, 6), (7, 6), (8, 6))
_FIG1A_MULTILINEAR_BLOCKS = ((1, 60), (2, 30), (3, 15), (4, 12), (5, 10), (6, 9), (7, 9), (8, 9))
_FIG1B_BLOCKS = ((1, 9), (2, 9), (3, 9), (4, 9))
_FIG2A_BLOCKS = ((1, 30), (2, 30), (3, 12), (4, 6), (5, 5), (6, 4))
_INTEGRITY_BLOCKS = ((1, 60), (2, 30), (3, 12))

_DEFAULT_THRESHOLD = {"n_surrogates": 200, "significance_pct": 1.0, "factor": 2.0, "seed": 7}


def _fig1a_preset(law: str, seed: int, **sweep_extra) -> dict:
    """Single-unit nonlinear unit at rho = 0.95 driven by one input law.

    The preset is named after the law's classical family, or after the law
    where that is gram_schmidt. The shaping standardizes the effective drive
    to mean 0 and spread 0.3 so every distribution exercises the unit in a
    comparable regime.
    """
    spec = DistributionSpec(kind=law)
    mean, var = analytic_moments(spec)
    kappa = 0.3 / math.sqrt(var)
    family = LAWS[law].family
    name = f"fig1a_{law if family == 'gram_schmidt' else family}"
    sweep = {"degree_blocks": _FIG1A_BLOCKS}
    sweep.update(sweep_extra)
    return {
        "name": name,
        "kind": "ipc",
        "system": {"kind": "esn_1d", "rho": 0.95},
        "input": {
            "distribution": spec.to_dict(),
            "shaping": {"mu": -kappa * mean, "kappa": kappa},
            "T": 100_000,
            "washout": 1000,
            "seed": seed,
        },
        "sweep": sweep,
        "threshold": dict(_DEFAULT_THRESHOLD),
        "output": {"basename": name},
    }


def _build_presets() -> dict[str, dict]:
    gpc_laws = (
        "uniform", "gaussian", "gamma", "beta", "poisson", "binomial", "negative_binomial",
        "hypergeometric",
    )
    fig1a = [_fig1a_preset(law, seed=101 + i) for i, law in enumerate(gpc_laws)]
    fig1a += [
        _fig1a_preset(law, seed=121 + i, fit_degree=8)
        for i, law in enumerate(("mixed_gaussian", "pareto", "zipf"))
    ]
    # Two-point input admits only degree-1 factors; chaos is multilinear
    multilinear = {"fit_degree": 1, "max_degree_per_var": 1, "degree_blocks": _FIG1A_MULTILINEAR_BLOCKS}
    fig1a.append(_fig1a_preset("bernoulli", seed=124, **multilinear))
    p: dict[str, dict] = {preset["name"]: preset for preset in fig1a}

    p["fig1b_limit_cycle"] = {
        "name": "fig1b_limit_cycle",
        "kind": "tipc",
        "system": {"kind": "limit_cycle", "omega": 2.0 * math.pi / 3.0, "tau": 0.1},
        "input": {
            "distribution": {"kind": "uniform"},
            "shaping": {"mu": 0.2, "kappa": 1.5},
            # 90000 is a multiple of the 30-step drive period, so the
            # harmonic sits exactly on DFT bin 3000
            "T": 90_000,
            "washout": 1000,
            "seed": 131,
        },
        "sweep": {
            "degree_blocks": _FIG1B_BLOCKS,
            "temporal": [3000],
            "detrend_harmonics": 2,
        },
        "threshold": dict(_DEFAULT_THRESHOLD),
        "output": {"basename": "fig1b_limit_cycle"},
    }

    for tag, shaping in [
        ("symmetric", {"mu": 0.0, "kappa": 0.2}),
        ("asymmetric", {"mu": 0.1, "kappa": 0.1}),
    ]:
        name = f"fig2a_{tag}"
        p[name] = {
            "name": name,
            "kind": "ipc",
            "system": {"kind": "narma10"},
            "input": {
                "distribution": {"kind": "uniform"},
                "shaping": shaping,
                "T": 100_000,
                "washout": 1000,
                "seed": 141,
            },
            "sweep": {"degree_blocks": _FIG2A_BLOCKS},
            "threshold": dict(_DEFAULT_THRESHOLD),
            "output": {"basename": name},
        }

    p["integrity_esn50"] = {
        "name": "integrity_esn50",
        "kind": "ipc",
        "system": {
            "kind": "esn",
            "n_nodes": 50,
            "spectral_radius": 0.9,
            "input_intensity": 0.1,
            "activation": "linear",
            "weight_seed": 1,
        },
        "input": {
            "distribution": {"kind": "uniform"},
            "shaping": {"mu": 0.0, "kappa": 1.0},
            "T": 100_000,
            "washout": 1000,
            "seed": 151,
        },
        "sweep": {
            "degree_blocks": _INTEGRITY_BLOCKS,
            # the state matrix is Krylov-conditioned: singular values reach
            # the roundoff floor near direction 48; keep everything that is
            # clearly above it
            "rank_tol": 1e-13,
        },
        "threshold": dict(_DEFAULT_THRESHOLD),
        "output": {"basename": "integrity_esn50"},
    }

    p["esn1d_tipc_null"] = {
        "name": "esn1d_tipc_null",
        "kind": "tipc",
        "system": {"kind": "esn_1d", "rho": 0.95},
        "input": {
            "distribution": {"kind": "uniform"},
            "shaping": {"mu": 0.0, "kappa": 0.3},
            "T": 20_000,
            "washout": 500,
            "seed": 161,
        },
        "sweep": {
            "degree_blocks": ((1, 5), (2, 5)),
            "temporal": [7],
            "detrend_harmonics": 1,
        },
        "threshold": dict(_DEFAULT_THRESHOLD),
        "output": {"basename": "esn1d_tipc_null"},
    }

    p["fig2b"] = {
        "name": "fig2b",
        "kind": "narma_suite",
        "system": {"kind": "narma10"},
        "analysis": {
            "divergence": {
                "sigmas": [round(0.1 * k, 1) for k in range(1, 10)],
                "n_seeds": 100,
                "horizon": 1_000_000,
                "seed": 5,
            }
        },
        "output": {"basename": "fig2b"},
    }

    p["fig3"] = {
        "name": "fig3",
        "kind": "narma_suite",
        "system": {"kind": "narma10"},
        "analysis": {
            "nrmse_table": {
                "rhos": [0.2, 0.6, 0.95, 1.2],
                "activations": ["linear", "tanh", "leaky_tanh"],
                "n_nodes": 50,
                "input_intensity": 0.1,
                "weight_seed": 3,
                "sigma": 0.4,
                "T": 6000,
                "washout": 200,
                "train_frac": 0.5,
                "seed": 21,
            }
        },
        "output": {"basename": "fig3"},
    }

    p["figA1_basin"] = {
        "name": "figA1_basin",
        "kind": "narma_suite",
        "system": {"kind": "narma10"},
        "analysis": {
            "fixed_point": {},
            "nullclines": {"z10": 0.1, "w1_min": -6.0, "w1_max": 6.0, "count": 401},
            "basin": {
                "mode": "w",
                "a_min": -6.0,
                "a_max": 6.0,
                "a_count": 200,
                "b_min": -6.0,
                "b_max": 6.0,
                "b_count": 200,
                "max_steps": 10_000,
                "sigma": 0.0,
                "seed": 9,
            },
        },
        "output": {"basename": "figA1_basin"},
    }

    p["figA1_lyapunov"] = {
        "name": "figA1_lyapunov",
        "kind": "narma_suite",
        "system": {"kind": "narma10"},
        "analysis": {
            "lyapunov": {
                "sigmas": [0.1, 0.2, 0.3, 0.4],
                "T": 6000,
                "M": 40,
                "n_exponents": 3,
                "symmetric": False,
                "seed": 13,
            }
        },
        "output": {"basename": "figA1_lyapunov"},
    }

    p["figA3"] = {
        "name": "figA3",
        "kind": "narma_suite",
        "system": {"kind": "narma10"},
        "analysis": {
            "approx_model": {
                "n1": [1, 2, 3, 10, 11, 12],
                "n2": [1, 2, 3],
                "sigma": 0.2,
                "T": 100_000,
                "washout": 1000,
                "trace_len": 1000,
                "seed": 17,
            }
        },
        "output": {"basename": "figA3"},
    }
    return p


PRESETS: dict[str, dict] = _build_presets()


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown preset {name!r}, available: {preset_names()}")
    return ExperimentConfig.from_dict(PRESETS[name])


# ---------------------------------------------------------------------------
# pipelines

def _load_csv_matrix(path) -> np.ndarray:
    return np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float, ndmin=2)


def _input_stream(config: ExperimentConfig, length: int):
    inp = config.input
    shaping = InputShaping(**inp.get("shaping", {"mu": 0.0, "kappa": 1.0}))
    if "csv" in inp:
        data = _load_csv_matrix(inp["csv"])
        if data.shape[1] != 1:
            raise DataError(f"input.csv: expected one column, file has {data.shape[1]}")
        zeta = data[:length, 0]
        if zeta.size < length:
            raise ConfigError(
                f"input.csv: need at least {length} samples, file has {zeta.size}"
            )
    else:
        spec = DistributionSpec.from_dict(inp["distribution"])
        zeta = sample_stream(spec, length, int(inp.get("seed", 0)))
    return zeta, shape_input(zeta, shaping), shaping


def _build_state(system: dict, zeta: np.ndarray, shaping: InputShaping) -> StateMatrix:
    """State of a system block driven by the raw input zeta under the given shaping."""
    kind = system["kind"]
    params = {k: v for k, v in system.items() if k != "kind"}
    if kind == "esn":
        return simulate_esn(EsnConfig(**params), shape_input(zeta, shaping))
    if kind == "esn_1d":
        return simulate_1d_esn(float(params["rho"]), shaping, zeta)
    if kind == "narma10":
        series, diverged_at = simulate_narma10(Narma10Config(shaping=shaping, **params), zeta)
        if diverged_at is not None:
            raise DivergenceError(diverged_at)
        return StateMatrix(series, labels=("y",), meta={"system": "narma10"})
    if kind == "limit_cycle":
        return simulate_limit_cycle(LimitCycleConfig(shaping=shaping, **params), zeta)
    state = _load_csv_matrix(system["state_csv"])
    if state.shape[0] != zeta.size:
        raise DataError(
            f"system.state_csv: has {state.shape[0]} rows, input.T is {zeta.size}; they must be equal"
        )
    return StateMatrix(state, meta={"system": "external"})


def _sweep_specs(sweep: dict) -> list[ChaosSpec]:
    mdpv = sweep.get("max_degree_per_var")
    specs: list[ChaosSpec] = []
    for degree, max_delay in sweep["degree_blocks"]:
        specs.extend(
            enumerate_chaos(
                int(degree),
                int(max_delay),
                min_total_degree=int(degree),
                max_degree_per_var=mdpv,
            )
        )
    return specs


def _top_degree(sweep: dict) -> int:
    """The highest polynomial degree any target of the sweep evaluates."""
    return min(max(d for d, _ in sweep["degree_blocks"]), sweep.get("max_degree_per_var", math.inf))


def _family_and_stream(sweep: dict, zeta: np.ndarray, u: np.ndarray):
    fam = sweep["family"]
    if fam["kind"] == "gram_schmidt":
        fit_degree = sweep.get("fit_degree", _top_degree(sweep))
        # data-driven basis is built on the shaped input actually driving
        # the system; targets then read the same stream
        return fit_gram_schmidt(u, fit_degree), u
    return PolynomialFamily(kind=fam["kind"], params=fam.get("params", {})), zeta


def _state_basis(
    config: ExperimentConfig, zeta: np.ndarray, shaping: InputShaping, washout: int, tipc: bool
) -> tuple[SvdBasis, list]:
    """SVD basis of the detrended post-washout state, and the detrend components.

    The trajectory and its detrended copy are freed on return, before the sweep.
    """
    full = _build_state(config.system, zeta, shaping)
    state = StateMatrix(full.data[washout:], washout=washout, labels=full.labels, meta=full.meta)
    harmonics = int(config.sweep.get("detrend_harmonics", 2)) if tipc else 0
    state = detrend(state, harmonics)
    rank_tol = config.sweep.get("rank_tol")
    basis = decompose(state, float(rank_tol) if rank_tol is not None else None)
    return basis, state.meta["detrend"]["components"]


def _run_capacity(config: ExperimentConfig, outdir, tipc: bool) -> CapacityReport:
    inp = config.input
    T = int(inp["T"])
    washout = int(inp.get("washout", DEFAULT_WASHOUT))
    if config.system["kind"] == "external":
        washout = 0
    length = washout + T
    zeta, u, shaping = _input_stream(config, length)
    basis, components = _state_basis(config, zeta, shaping, washout, tipc)
    family, stream = _family_and_stream(config.sweep, zeta, u)
    specs = _sweep_specs(config.sweep)
    if tipc:
        specs = specs + _crossed(specs, config.sweep.get("temporal") or [])
    threshold = (
        ThresholdConfig(**config.threshold) if config.threshold is not None else None
    )
    meta = {
        "name": config.name,
        "kind": "tipc" if tipc else "ipc",
        "system": config.system,
        "T": T,
        "washout": washout,
        "family": config.sweep["family"]["kind"],
    }
    if tipc:
        meta["detrend"] = components
    report = capacity_sweep(basis, specs, family, stream, threshold=threshold, meta=meta)
    base = config.output.get("basename", config.name)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_report(report, outdir / f"{base}.json", outdir / f"{base}.csv")
    return report


def run_ipc(config: ExperimentConfig, outdir=".") -> CapacityReport:
    """Time-invariant capacity sweep; writes <basename>.json and .csv."""
    if config.kind != "ipc":
        raise ConfigError(f"kind: expected 'ipc' config, got {config.kind!r}")
    return _run_capacity(config, outdir, tipc=False)


def run_tipc(config: ExperimentConfig, outdir=".") -> CapacityReport:
    """Detrended sweep with temporal target factors enabled."""
    if config.kind != "tipc":
        raise ConfigError(f"kind: expected 'tipc' config, got {config.kind!r}")
    return _run_capacity(config, outdir, tipc=True)


def _run_nrmse_table(block: dict, base_cfg: Narma10Config, outdir: Path, basename: str):
    sigma = float(block.get("sigma", 0.4))
    T = int(block.get("T", 6000))
    washout = int(block.get("washout", 200))
    shaping = InputShaping.asymmetric(sigma)
    rng_seed = int(block.get("seed", 0))
    length = washout + T
    zeta = sample_stream(DistributionSpec(kind="uniform"), length, rng_seed)
    narma = replace(base_cfg, shaping=shaping)
    series, diverged_at = simulate_narma10(narma, zeta)
    if diverged_at is not None:
        raise DivergenceError(diverged_at)
    target = series[washout:]
    rows = []
    activations = block.get("activations", ["tanh"])
    for activation in activations:
        for rho in block.get("rhos", [0.95]):
            esn = {
                "kind": "esn",
                "n_nodes": int(block.get("n_nodes", 50)),
                "spectral_radius": float(rho),
                "input_intensity": float(block.get("input_intensity", 0.1)),
                "activation": activation,
                "weight_seed": int(block.get("weight_seed", 0)),
            }
            # an unbounded activation past the stability edge blows up;
            # record the divergence instead of aborting the table
            try:
                state = _build_state(esn, zeta, shaping)
            except DivergenceError as exc:
                rows.append(
                    {"activation": activation, "rho": float(rho), "nrmse": None, "diverged_at": exc.step}
                )
                continue
            kept = StateMatrix(state.data[washout:], washout=washout)
            _, nrmse, _ = train_readout(kept, target, float(block.get("train_frac", 0.5)))
            rows.append({"activation": activation, "rho": float(rho), "nrmse": nrmse, "diverged_at": None})
    write_series_csv(
        outdir / f"{basename}_nrmse.csv",
        {
            "rho": np.array([r["rho"] for r in rows]),
            "nrmse": np.array(
                [math.nan if r["nrmse"] is None else r["nrmse"] for r in rows]
            ),
            "activation_index": np.array(
                [activations.index(r["activation"]) for r in rows], dtype=float
            ),
        },
    )
    return rows


def _run_approx_model(block: dict, base_cfg: Narma10Config, outdir: Path, basename: str):
    sigma = float(block.get("sigma", 0.2))
    shaping = (
        InputShaping.symmetric(sigma)
        if block.get("symmetric", False)
        else InputShaping.asymmetric(sigma)
    )
    cfg = replace(base_cfg, shaping=shaping)
    n1 = [int(s) for s in block.get("n1", [1, 2, 3, 10, 11, 12])]
    n2 = [int(s) for s in block.get("n2", [1, 2, 3])]
    coeffs = approx_model_coeffs(cfg, n1, n2)
    predicted = coeffs.ipc_prediction()

    T = int(block.get("T", 100_000))
    washout = int(block.get("washout", 1000))
    seed = int(block.get("seed", 0))
    zeta = sample_stream(DistributionSpec(kind="uniform"), washout + T, seed)
    approx = simulate_approx_model(coeffs, zeta)
    state = detrend(StateMatrix(approx[washout:], washout=washout), 0)
    basis = decompose(state)
    family = PolynomialFamily(kind="legendre")
    specs = enumerate_chaos(1, 15) + enumerate_chaos(2, 21, min_total_degree=2)
    report = capacity_sweep(
        basis,
        specs,
        family,
        zeta,
        threshold=ThresholdConfig(**_DEFAULT_THRESHOLD),
        meta={"name": "approx_model", "sigma": sigma},
    )
    measured = {e.spec: e.thresholded_capacity for e in report.entries}

    trace_len = int(block.get("trace_len", 1000))
    zeta2 = sample_stream(DistributionSpec(kind="uniform"), trace_len, seed + 1)
    true_series, diverged_at = simulate_narma10(cfg, zeta2)
    if diverged_at is not None:
        raise DivergenceError(diverged_at)
    approx_series = simulate_approx_model(coeffs, zeta2)
    skip = 30
    resid = approx_series[skip:] - true_series[skip:]
    denom = float(np.sum((true_series[skip:] - true_series[skip:].mean()) ** 2))
    trace_nrmse = math.sqrt(float(resid @ resid) / denom)
    write_series_csv(
        outdir / f"{basename}_trace.csv",
        {
            "t": np.arange(trace_len, dtype=float),
            "narma10": true_series,
            "approx": approx_series,
        },
    )
    result = {
        "p": coeffs.p,
        "q": {str(s): v for s, v in coeffs.q.items()},
        "r": {str(s): v for s, v in coeffs.r.items()},
        "predicted_ipc": predicted,
        "measured_ipc": {k: measured.get(k, 0.0) for k in predicted},
        "trace_nrmse": trace_nrmse,
    }
    write_json(outdir / f"{basename}_approx.json", result)
    return result


def run_narma_suite(config: ExperimentConfig, outdir=".") -> dict:
    """Recurrence analyses selected by the config's analysis block."""
    if config.kind != "narma_suite":
        raise ConfigError(f"kind: expected 'narma_suite' config, got {config.kind!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    basename = config.output.get("basename", config.name)
    system = config.system or {"kind": "narma10"}
    if system.get("kind") != "narma10":
        raise ConfigError(f"system.kind: narma_suite requires 'narma10', got {system.get('kind')!r}")
    base_cfg = Narma10Config(**{k: v for k, v in system.items() if k != "kind"})
    analysis = config.analysis
    results: dict = {}
    summary: dict = {"name": config.name}

    if "fixed_point" in analysis:
        p = fixed_point(base_cfg)
        results["fixed_point"] = p
        summary["fixed_point"] = p
    if "nullclines" in analysis:
        block = analysis["nullclines"]
        w1 = np.linspace(
            float(block.get("w1_min", -6.0)),
            float(block.get("w1_max", 6.0)),
            int(block.get("count", 401)),
        )
        kept, n1, n2 = nullclines(base_cfg, float(block.get("z10", base_cfg.delta)), w1)
        write_series_csv(
            outdir / f"{basename}_nullclines.csv",
            {"w1": kept, "dw1_zero": n1, "dw2_zero": n2},
        )
        results["nullclines"] = (kept, n1, n2)
    if "basin" in analysis:
        block = analysis["basin"]
        ga = np.linspace(
            float(block.get("a_min", -6.0)), float(block.get("a_max", 6.0)), int(block.get("a_count", 200))
        )
        gb = np.linspace(
            float(block.get("b_min", -6.0)), float(block.get("b_max", 6.0)), int(block.get("b_count", 200))
        )
        grid = basin_scan(
            base_cfg,
            ga,
            gb,
            max_steps=int(block.get("max_steps", 10_000)),
            mode=block.get("mode", "w"),
            sigma=float(block.get("sigma", 0.0)),
            seed=int(block.get("seed", 0)),
        )
        rows, cols = np.meshgrid(np.arange(ga.size), np.arange(gb.size), indexing="ij")
        write_series_csv(
            outdir / f"{basename}_basin.csv",
            {
                "row": rows.ravel().astype(float),
                "col": cols.ravel().astype(float),
                "value": grid.ravel().astype(float),
            },
        )
        write_json(
            outdir / f"{basename}_basin_axes.json",
            {
                "mode": block.get("mode", "w"),
                "rows": [float(v) for v in ga],
                "cols": [float(v) for v in gb],
                "max_steps": int(block.get("max_steps", 10_000)),
            },
        )
        results["basin"] = grid
    if "divergence" in analysis:
        block = analysis["divergence"]
        curve = divergence_probability(
            base_cfg,
            block.get("sigmas", [0.4, 0.6]),
            n_seeds=int(block.get("n_seeds", 100)),
            horizon=int(block.get("horizon", 1_000_000)),
            seed=int(block.get("seed", 0)),
            symmetric=bool(block.get("symmetric", False)),
        )
        write_series_csv(
            outdir / f"{basename}_divergence.csv",
            {
                "sigma": np.array([s for s, _ in curve]),
                "survival_probability": np.array([p for _, p in curve]),
            },
        )
        results["divergence"] = curve
        summary["divergence"] = [[s, p] for s, p in curve]
    if "lyapunov" in analysis:
        block = analysis["lyapunov"]
        lcfg = LyapunovConfig(
            T=int(block.get("T", 6000)),
            M=int(block.get("M", 40)),
            n_exponents=int(block.get("n_exponents", 3)),
        )
        rows = []
        for i, sigma in enumerate(block.get("sigmas", [0.2])):
            sigma = float(sigma)
            shaping = (
                InputShaping.symmetric(sigma)
                if block.get("symmetric", False)
                else InputShaping.asymmetric(sigma)
            )
            zeta = sample_stream(
                DistributionSpec(kind="uniform"), lcfg.T + lcfg.M + 16, int(block.get("seed", 0)) + i
            )
            exps = lyapunov_spectrum(replace(base_cfg, shaping=shaping), lcfg, zeta)
            rows.append({"sigma": sigma, "exponents": [float(v) for v in exps]})
        write_json(outdir / f"{basename}_lyapunov.json", {"spectra": rows})
        results["lyapunov"] = rows
        summary["lyapunov"] = rows
    if "nrmse_table" in analysis:
        rows = _run_nrmse_table(analysis["nrmse_table"], base_cfg, outdir, basename)
        results["nrmse_table"] = rows
        summary["nrmse_table"] = rows
    if "approx_model" in analysis:
        result = _run_approx_model(analysis["approx_model"], base_cfg, outdir, basename)
        results["approx_model"] = result
        summary["approx_model"] = {
            k: result[k] for k in ("p", "predicted_ipc", "measured_ipc", "trace_nrmse")
        }
    write_json(outdir / f"{basename}_summary.json", summary)
    return results
