"""Bundled experiment configurations and the pipelines that execute them.

A configuration is a plain dict with blocks: system (what produces the state),
input (distribution or csv, shaping, length, seed), sweep (chaos enumeration),
threshold (surrogate significance), output (file names), and, for the
recurrence analysis suite, an analysis block. SCHEMA declares every key of
every block once, with its type, default and bound; SYSTEMS does so for each
system kind. The sweep's polynomial family follows from the input law
(distributions.LAWS); sweep.family may restate it or ask for gram_schmidt, and
must be given only for a CSV input that should not be fitted. The presets name
no family: each fig1a preset is one law, tagged with the family it picks.
Presets are self-contained: every seed is pinned and nothing reads the network.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .capacity import (
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
    FAMILY_KINDS,
    ChaosSpec,
    PolynomialFamily,
    _crossed,
    _recurrence,
    enumerate_chaos,
    fit_gram_schmidt,
)
from .reports import write_json, write_report, write_series_csv
from .schema import _POSITIVE, _UNIT, Key, Unset, _at_least, _walk
from .systems import (
    ACTIVATIONS,
    EsnConfig,
    LimitCycleConfig,
    Narma10Config,
    simulate_1d_esn,
    simulate_esn,
    simulate_limit_cycle,
    simulate_narma10,
    train_readout,
)


def _declared(owner, *names: str, **keys: Key) -> dict:
    """Keys for parameters of owner, a dataclass or a function, each with the
    default that owner declares: names typed by their annotation, keys as given."""
    params = inspect.signature(owner).parameters
    typed = {name: Key(params[name].annotation) for name in names}
    return {name: key._replace(default=params[name].default) for name, key in {**typed, **keys}.items()}


def _params(owner, block: dict) -> dict:
    """The entries of a block that owner, a dataclass or a function, takes as parameters."""
    names = inspect.signature(owner).parameters
    return {name: value for name, value in block.items() if name in names}


_COUNT = Key("int", bound=_POSITIVE)
_SEED = Key("int", 0, _at_least(0))
# the trace NRMSE of approx_model skips this many steps; its variance needs two more
_TRACE_SKIP = 30

# system kind -> (what builds its value object from its keys, its keys besides kind)
SYSTEMS = {
    "esn": (EsnConfig, _declared(
        EsnConfig, "n_nodes", "spectral_radius", "input_intensity", "leak",
        activation=Key("str", choices=ACTIVATIONS), weight_seed=_SEED,
    )),
    "esn_1d": (lambda rho: rho, {"rho": Key("float")}),
    "narma10": (Narma10Config, _declared(
        Narma10Config, "alpha", "beta", "gamma", "delta", init=Key("numbers", length=10)
    )),
    "limit_cycle": (LimitCycleConfig, _declared(
        LimitCycleConfig, "omega", "tau", init=Key("numbers", length=2)
    )),
    "external": (lambda state_csv: state_csv, {"state_csv": Key("str")}),
}
_SYSTEM_KIND = {"kind": Key("str", choices=tuple(SYSTEMS))}

_ANALYSES = {
    "fixed_point": {},
    "nullclines": {
        "z10": Key("float", Unset("the system's delta")),
        "w1_min": Key("float", -6.0), "w1_max": Key("float", 6.0), "count": Key("int", 401, _POSITIVE),
    },
    "divergence": {
        "sigmas": Key("numbers", (0.4, 0.6)),
        **_declared(divergence_probability, "symmetric", n_seeds=_COUNT, horizon=_COUNT, seed=_SEED),
    },
    "basin": {
        "a_min": Key("float", -6.0), "a_max": Key("float", 6.0), "a_count": Key("int", 200, _POSITIVE),
        "b_min": Key("float", -6.0), "b_max": Key("float", 6.0), "b_count": Key("int", 200, _POSITIVE),
        **_declared(
            basin_scan, "sigma", max_steps=_COUNT, mode=Key("str", choices=("w", "psi_sigma")), seed=_SEED
        ),
    },
    "lyapunov": {
        "sigmas": Key("numbers", (0.2,)), **_declared(LyapunovConfig, "T", "M", "n_exponents"),
        "symmetric": Key("bool", False), "seed": _SEED,
    },
    "nrmse_table": {
        "rhos": Key("numbers", (0.95,)), "activations": Key("names", ("tanh",), choices=ACTIVATIONS),
        **_declared(EsnConfig, "n_nodes", "input_intensity", weight_seed=_SEED),
        "sigma": Key("float", 0.4), "T": Key("int", 6000, _at_least(2)),
        "washout": Key("int", 200, _at_least(0)), "seed": _SEED,
        **_declared(train_readout, train_frac=Key("float", bound=_UNIT)),
    },
    "approx_model": {
        "n1": Key("integers", (1, 2, 3, 10, 11, 12), _POSITIVE), "n2": Key("integers", (1, 2, 3), _POSITIVE),
        "sigma": Key("float", 0.2), "symmetric": Key("bool", False),
        # the approximate model's state is detrended, which needs 4 steps
        "T": Key("int", 100_000, _at_least(4)), "washout": Key("int", 1000, _at_least(0)),
        "trace_len": Key("int", 1000, _at_least(_TRACE_SKIP + 2)), "seed": _SEED,
    },
}

_CAPACITY_ONLY = Unset("required for ipc and tipc")
_EITHER = Unset("unset; ipc and tipc need exactly one of distribution and csv")
SCHEMA = {
    "name": Key("str", "custom"),
    "kind": Key("str", choices=("ipc", "tipc", "narma_suite")),
    "system": Key("system", {"kind": "narma10"}),
    "input": Key("block", {}, keys={
        "distribution": Key("block", _EITHER, keys={
            "kind": Key("str", choices=tuple(LAWS)), "params": Key("mapping", {}),
        }),
        "csv": Key("str", _EITHER),
        "shaping": Key("block", {}, keys=_declared(InputShaping, "mu", "kappa")),
        "T": Key("int", _CAPACITY_ONLY, _at_least(2)),
        "seed": _SEED, "washout": Key("int", 1000, _at_least(0)),
    }),
    "sweep": Key("block", {}, keys={
        "family": Key("block", Unset("the input law's family, gram_schmidt for a csv input"), keys={
            "kind": Key("str", choices=FAMILY_KINDS), "params": Key("mapping", {}),
        }),
        "degree_blocks": Key("pairs", _CAPACITY_ONLY, _POSITIVE),
        "temporal": Key("integers", ()),
        **_declared(enumerate_chaos, max_degree_per_var=_COUNT._replace(nullable=True)),
        "fit_degree": _COUNT._replace(default=Unset("the top degree the sweep evaluates")),
        "detrend_harmonics": Key("int", 2, _at_least(0)),
        **_declared(decompose, rank_tol=Key("float", bound=_UNIT, nullable=True)),
    }),
    "threshold": Key("block", {}, nullable=True, keys=_declared(
        ThresholdConfig, "n_surrogates", "significance_pct", "factor", seed=_SEED
    )),
    "output": Key("block", {}, keys={"basename": Key("str", Unset("the config's name"))}),
    "analysis": Key("block", {}, keys={
        name: Key("block", Unset("not run"), keys=keys) for name, keys in _ANALYSES.items()
    }),
}


def _build(path: str, cls, params: dict):
    """cls(**params), its ParameterError a ConfigError that names the key under path."""
    try:
        return cls(**params)
    except ParameterError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _system_model(system: dict):
    """The value object of a system block, which this checks: the system's
    config, rho for esn_1d, the state CSV path for external."""
    kind = _walk("system", _SYSTEM_KIND, {k: v for k, v in system.items() if k == "kind"})["kind"]
    build, keys = SYSTEMS[kind]
    return _build("system", build, _walk("system", keys, {k: v for k, v in system.items() if k != "kind"}))


def _check_capacity(inp: dict, sweep: dict, values: dict) -> None:
    """The cross-key rules of a capacity config; fills the sweep's derived defaults."""
    if "T" not in inp:
        raise ConfigError("input.T: required for capacity experiments")
    if ("distribution" in inp) == ("csv" in inp):
        raise ConfigError("input: exactly one of 'distribution' or 'csv' required")
    if "degree_blocks" not in sweep:
        raise ConfigError("sweep.degree_blocks: a list of [degree, max_delay] pairs required")
    blocks = sweep["degree_blocks"]
    # a block yields a target iff degree <= max_delay * max_degree_per_var: what
    # enumerating its specs would find, without the enumeration's cost
    per_var = math.inf if sweep["max_degree_per_var"] is None else sweep["max_degree_per_var"]
    if all(degree > max_delay * per_var for degree, max_delay in blocks):
        raise ConfigError(
            f"sweep.degree_blocks: no block yields a target; {list(blocks)} needs some degree"
            f" <= max_delay * max_degree_per_var ({per_var})"
        )
    top = min(max(degree for degree, _ in blocks), per_var)
    sweep.setdefault("fit_degree", top)
    # the input law picks the family; a CSV input has no law and is fitted
    law = None
    if "distribution" in inp:
        law = _build("input.distribution", DistributionSpec, inp["distribution"])
        values["input.distribution"] = law
        inp["distribution"] = law.to_dict()
    derived = law.family if law else {"kind": "gram_schmidt", "params": {}}
    family = sweep["family"] if "family" in sweep else derived
    fitted = family["kind"] == "gram_schmidt"
    # a law on P points carries orthogonal polynomials up to degree P - 1
    # only. Krawtchouk's higher degrees vanish on its support instead,
    # and the sweep skips their targets as degenerate.
    needed = max(top, sweep["fit_degree"]) if fitted else top
    points = law.support_points if law else math.inf
    if needed >= points and family["kind"] != "krawtchouk":
        key = "max_degree_per_var" if top >= points else "fit_degree"
        raise ConfigError(
            f"sweep.{key}: input.distribution {law.kind} has {points:.0f} support points, so no"
            f" basis orthogonal under it goes past degree {points - 1:.0f}, but the sweep"
            f" {'evaluates' if top >= points else 'fits'} degree {needed}"
        )
    if fitted:
        # fitted to the input stream at run time; it takes no parameters
        _walk("sweep.family.params", {}, family["params"])
        if sweep["fit_degree"] < top:
            raise ConfigError(
                f"sweep.fit_degree: must be >= {top}, the top degree the sweep"
                f" evaluates, got {sweep['fit_degree']}"
            )
        sweep["family"], values["sweep.family"] = {"kind": "gram_schmidt", "params": {}}, None
        return
    chosen = _build("sweep.family", PolynomialFamily, family)
    _build("sweep.family", _recurrence, {"family": chosen, "max_degree": top})
    if law and (chosen.kind, chosen.params) != (derived["kind"], derived["params"]):
        raise ConfigError(
            f"sweep.family: {chosen.kind} {chosen.params} is not orthogonal under"
            f" input.distribution {law.kind} {law.params}, whose family is"
            f" {derived['kind']} {derived['params']}; omit sweep.family or use gram_schmidt"
        )
    sweep["family"], values["sweep.family"] = {"kind": chosen.kind, "params": chosen.params}, chosen


def _check_suite(system: dict, analysis: dict, values: dict) -> None:
    """The cross-key rules of a narma_suite config; fills the analyses' derived defaults."""
    if not analysis:
        raise ConfigError("analysis: required for narma_suite experiments")
    if system["kind"] != "narma10":
        raise ConfigError(f"system.kind: narma_suite requires 'narma10', got {system['kind']!r}")
    if values["system"].beta == 0.0 and {"fixed_point", "nullclines"} & analysis.keys():
        raise ConfigError("system.beta: must not be 0 for the fixed_point and nullclines analyses")
    if "nullclines" in analysis:
        analysis["nullclines"].setdefault("z10", values["system"].delta)
    if "lyapunov" in analysis:
        lyapunov = _params(LyapunovConfig, analysis["lyapunov"])
        values["analysis.lyapunov"] = _build("analysis.lyapunov", LyapunovConfig, lyapunov)
    if "nrmse_table" in analysis:
        block = analysis["nrmse_table"]
        # train_readout fits n_nodes weights on its first round(T * train_frac)
        # steps and scores them on the rest, which needs 2 steps for a variance
        T, n_nodes, frac = block["T"], block["n_nodes"], block["train_frac"]
        split = int(round(T * frac))
        if T <= n_nodes:
            raise ConfigError(f"analysis.nrmse_table.T: must be > n_nodes ({n_nodes}), got {T}")
        if split < n_nodes or T - split < 2:
            raise ConfigError(
                f"analysis.nrmse_table.train_frac: {frac} of T = {T} fits on {split} steps and tests"
                f" on {T - split}; the fit needs >= n_nodes ({n_nodes}) and the test >= 2"
            )
        esn = _params(EsnConfig, block)
        values["analysis.nrmse_table"] = [
            _build("analysis.nrmse_table", EsnConfig, dict(esn, spectral_radius=rho, activation=activation))
            for activation in block["activations"]
            for rho in block["rhos"]
        ]


@dataclass(frozen=True)
class ExperimentConfig:
    """A config that from_dict checked against SCHEMA.

    Each block is a plain dict with every default filled in, except system,
    which stays as written because reports echo it. values holds the value
    objects from_dict built from the blocks, by block path; the runners read
    those.
    """

    name: str
    kind: str
    system: dict = field(default_factory=dict)
    input: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    threshold: dict | None = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError("config: expected a mapping at top level")
        blocks = _walk("", SCHEMA, payload)
        capacity = blocks["kind"] != "narma_suite"
        if capacity and "system" not in payload:
            raise ConfigError("system: required for capacity experiments")
        threshold = blocks["threshold"]
        values = {
            "system": _system_model(blocks["system"]),
            "input.shaping": InputShaping(**blocks["input"]["shaping"]),
            "threshold": None if threshold is None else _build("threshold", ThresholdConfig, threshold),
        }
        if capacity:
            _check_capacity(blocks["input"], blocks["sweep"], values)
        else:
            _check_suite(blocks["system"], blocks["analysis"], values)
        blocks["output"].setdefault("basename", blocks["name"])
        return cls(**blocks, values=values)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in SCHEMA}


# ---------------------------------------------------------------------------
# preset construction

_FIG1A_BLOCKS = ((1, 60), (2, 30), (3, 15), (4, 10), (5, 8), (6, 6), (7, 6), (8, 6))
_FIG1A_MULTILINEAR_BLOCKS = ((1, 60), (2, 30), (3, 15), (4, 12), (5, 10), (6, 9), (7, 9), (8, 9))
_FIG1B_BLOCKS = ((1, 9), (2, 9), (3, 9), (4, 9))
_FIG2A_BLOCKS = ((1, 30), (2, 30), (3, 12), (4, 6), (5, 5), (6, 4))
_INTEGRITY_BLOCKS = ((1, 60), (2, 30), (3, 12))

_DEFAULT_THRESHOLD = {"n_surrogates": 200, "significance_pct": 1.0, "factor": 2.0, "seed": 7}


def _capacity_preset(name: str, kind: str, system: dict, inp: dict, sweep: dict) -> dict:
    """A capacity preset with the default surrogate threshold, writing <name>.json and .csv."""
    return {
        "name": name,
        "kind": kind,
        "system": system,
        "input": inp,
        "sweep": sweep,
        "threshold": dict(_DEFAULT_THRESHOLD),
        "output": {"basename": name},
    }


def _input(law: dict, mu: float, kappa: float, T: int, washout: int, seed: int) -> dict:
    return {
        "distribution": law,
        "shaping": {"mu": mu, "kappa": kappa},
        "T": T,
        "washout": washout,
        "seed": seed,
    }


def _suite_preset(name: str, **analysis: dict) -> dict:
    """A recurrence-analysis preset on the default NARMA10 system."""
    return {
        "name": name,
        "kind": "narma_suite",
        "system": {"kind": "narma10"},
        "analysis": analysis,
        "output": {"basename": name},
    }


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
    inp = _input(spec.to_dict(), -kappa * mean, kappa, T=100_000, washout=1000, seed=seed)
    sweep = {"degree_blocks": _FIG1A_BLOCKS, **sweep_extra}
    return _capacity_preset(name, "ipc", {"kind": "esn_1d", "rho": 0.95}, inp, sweep)


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

    p["fig1b_limit_cycle"] = _capacity_preset(
        "fig1b_limit_cycle",
        "tipc",
        {"kind": "limit_cycle", "omega": 2.0 * math.pi / 3.0, "tau": 0.1},
        # 90000 is a multiple of the 30-step drive period, so the
        # harmonic sits exactly on DFT bin 3000
        _input({"kind": "uniform"}, 0.2, 1.5, T=90_000, washout=1000, seed=131),
        {"degree_blocks": _FIG1B_BLOCKS, "temporal": [3000], "detrend_harmonics": 2},
    )
    for tag, mu, kappa in (("symmetric", 0.0, 0.2), ("asymmetric", 0.1, 0.1)):
        p[f"fig2a_{tag}"] = _capacity_preset(
            f"fig2a_{tag}",
            "ipc",
            {"kind": "narma10"},
            _input({"kind": "uniform"}, mu, kappa, T=100_000, washout=1000, seed=141),
            {"degree_blocks": _FIG2A_BLOCKS},
        )
    p["integrity_esn50"] = _capacity_preset(
        "integrity_esn50",
        "ipc",
        {
            "kind": "esn",
            "n_nodes": 50,
            "spectral_radius": 0.9,
            "input_intensity": 0.1,
            "activation": "linear",
            "weight_seed": 1,
        },
        _input({"kind": "uniform"}, 0.0, 1.0, T=100_000, washout=1000, seed=151),
        # the state matrix is Krylov-conditioned: singular values reach the
        # roundoff floor near direction 48; keep everything that is clearly
        # above it
        {"degree_blocks": _INTEGRITY_BLOCKS, "rank_tol": 1e-13},
    )
    p["esn1d_tipc_null"] = _capacity_preset(
        "esn1d_tipc_null",
        "tipc",
        {"kind": "esn_1d", "rho": 0.95},
        _input({"kind": "uniform"}, 0.0, 0.3, T=20_000, washout=500, seed=161),
        {"degree_blocks": ((1, 5), (2, 5)), "temporal": [7], "detrend_harmonics": 1},
    )

    p["fig2b"] = _suite_preset(
        "fig2b",
        divergence={
            "sigmas": [round(0.1 * k, 1) for k in range(1, 10)],
            "n_seeds": 100,
            "horizon": 1_000_000,
            "seed": 5,
        },
    )
    p["fig3"] = _suite_preset(
        "fig3",
        nrmse_table={
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
        },
    )
    p["figA1_basin"] = _suite_preset(
        "figA1_basin",
        fixed_point={},
        nullclines={"z10": 0.1, "w1_min": -6.0, "w1_max": 6.0, "count": 401},
        basin={
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
    )
    p["figA1_lyapunov"] = _suite_preset(
        "figA1_lyapunov",
        lyapunov={
            "sigmas": [0.1, 0.2, 0.3, 0.4],
            "T": 6000,
            "M": 40,
            "n_exponents": 3,
            "symmetric": False,
            "seed": 13,
        },
    )
    p["figA3"] = _suite_preset(
        "figA3",
        approx_model={
            "n1": [1, 2, 3, 10, 11, 12],
            "n2": [1, 2, 3],
            "sigma": 0.2,
            "T": 100_000,
            "washout": 1000,
            "trace_len": 1000,
            "seed": 17,
        },
    )
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


def _input_stream(config: ExperimentConfig, length: int) -> np.ndarray:
    inp = config.input
    if "csv" in inp:
        data = _load_csv_matrix(inp["csv"])
        if data.shape[1] != 1:
            raise DataError(f"input.csv: expected one column, file has {data.shape[1]}")
        zeta = data[:length, 0]
        if zeta.size < length:
            raise ConfigError(
                f"input.csv: need at least {length} samples, file has {zeta.size}"
            )
        return zeta
    return sample_stream(config.values["input.distribution"], length, inp["seed"])


def _build_state(kind: str, model, zeta: np.ndarray, shaping: InputShaping) -> StateMatrix:
    """State of a system driven by the raw input zeta under the given shaping.

    model is the system block's value object (_system_model).
    """
    if kind == "esn":
        return simulate_esn(model, shape_input(zeta, shaping))
    if kind == "esn_1d":
        return simulate_1d_esn(model, shaping, zeta)
    if kind == "narma10":
        series, diverged_at = simulate_narma10(replace(model, shaping=shaping), zeta)
        if diverged_at is not None:
            raise DivergenceError(diverged_at)
        return StateMatrix(series, labels=("y",), meta={"system": "narma10"})
    if kind == "limit_cycle":
        return simulate_limit_cycle(replace(model, shaping=shaping), zeta)
    state = _load_csv_matrix(model)
    if state.shape[0] != zeta.size:
        raise DataError(
            f"system.state_csv: has {state.shape[0]} rows, input.T is {zeta.size}; they must be equal"
        )
    return StateMatrix(state, meta={"system": "external"})


def _sweep_specs(sweep: dict) -> list[ChaosSpec]:
    specs: list[ChaosSpec] = []
    for degree, max_delay in sweep["degree_blocks"]:
        specs.extend(
            enumerate_chaos(
                degree, max_delay, min_total_degree=degree, max_degree_per_var=sweep.get("max_degree_per_var")
            )
        )
    return specs


def _family_and_stream(config: ExperimentConfig, zeta: np.ndarray):
    family = config.values["sweep.family"]
    if family is None:
        # the gram_schmidt basis is built on the shaped input actually driving
        # the system; targets then read the same stream
        u = shape_input(zeta, config.values["input.shaping"])
        return fit_gram_schmidt(u, config.sweep["fit_degree"]), u
    return family, zeta


def _state_basis(
    config: ExperimentConfig, zeta: np.ndarray, washout: int, tipc: bool
) -> tuple[SvdBasis, list]:
    """SVD basis of the detrended post-washout state, and the detrend components.

    The trajectory and its detrended copy are freed on return, before the sweep.
    """
    full = _build_state(config.system["kind"], config.values["system"], zeta, config.values["input.shaping"])
    state = StateMatrix(full.data[washout:], washout=washout, labels=full.labels, meta=full.meta)
    state = detrend(state, config.sweep["detrend_harmonics"] if tipc else 0)
    basis = decompose(state, config.sweep["rank_tol"])
    return basis, state.meta["detrend"]["components"]


def _run_capacity(config: ExperimentConfig, outdir, tipc: bool) -> CapacityReport:
    T = config.input["T"]
    washout = 0 if config.system["kind"] == "external" else config.input["washout"]
    zeta = _input_stream(config, washout + T)
    basis, components = _state_basis(config, zeta, washout, tipc)
    family, stream = _family_and_stream(config, zeta)
    specs = _sweep_specs(config.sweep)
    if tipc:
        specs = specs + _crossed(specs, config.sweep["temporal"])
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
    report = capacity_sweep(
        basis, specs, family, stream, threshold=config.values["threshold"], meta=meta
    )
    base = config.output["basename"]
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


def _shaping(block: dict, sigma: float) -> InputShaping:
    return InputShaping.symmetric(sigma) if block["symmetric"] else InputShaping.asymmetric(sigma)


def _run_nrmse_table(block: dict, esns: list, base_cfg: Narma10Config, outdir: Path, basename: str):
    shaping = InputShaping.asymmetric(block["sigma"])
    washout = block["washout"]
    zeta = sample_stream(DistributionSpec(kind="uniform"), washout + block["T"], block["seed"])
    series, diverged_at = simulate_narma10(replace(base_cfg, shaping=shaping), zeta)
    if diverged_at is not None:
        raise DivergenceError(diverged_at)
    target = series[washout:]
    rows = []
    for esn in esns:
        row = {"activation": esn.activation, "rho": esn.spectral_radius, "nrmse": None, "diverged_at": None}
        # an unbounded activation past the stability edge blows up;
        # record the divergence instead of aborting the table
        try:
            state = _build_state("esn", esn, zeta, shaping)
        except DivergenceError as exc:
            rows.append({**row, "diverged_at": exc.step})
            continue
        kept = StateMatrix(state.data[washout:], washout=washout)
        _, nrmse, _ = train_readout(kept, target, block["train_frac"])
        rows.append({**row, "nrmse": nrmse})
    write_series_csv(
        outdir / f"{basename}_nrmse.csv",
        {
            "rho": np.array([r["rho"] for r in rows]),
            "nrmse": np.array(
                [math.nan if r["nrmse"] is None else r["nrmse"] for r in rows]
            ),
            "activation_index": np.array(
                [block["activations"].index(r["activation"]) for r in rows], dtype=float
            ),
        },
    )
    return rows


def _run_approx_model(block: dict, base_cfg: Narma10Config, outdir: Path, basename: str):
    sigma = block["sigma"]
    cfg = replace(base_cfg, shaping=_shaping(block, sigma))
    coeffs = approx_model_coeffs(cfg, block["n1"], block["n2"])
    predicted = coeffs.ipc_prediction()

    washout = block["washout"]
    zeta = sample_stream(DistributionSpec(kind="uniform"), washout + block["T"], block["seed"])
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
    # a target the sweep skipped has no entry, and no measured capacity
    measured = dict.fromkeys(predicted, 0.0)
    measured.update((e.spec, e.thresholded_capacity) for e in report.entries if e.spec in measured)

    trace_len = block["trace_len"]
    zeta2 = sample_stream(DistributionSpec(kind="uniform"), trace_len, block["seed"] + 1)
    true_series, diverged_at = simulate_narma10(cfg, zeta2)
    if diverged_at is not None:
        raise DivergenceError(diverged_at)
    approx_series = simulate_approx_model(coeffs, zeta2)
    resid = approx_series[_TRACE_SKIP:] - true_series[_TRACE_SKIP:]
    denom = float(np.sum((true_series[_TRACE_SKIP:] - true_series[_TRACE_SKIP:].mean()) ** 2))
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
        "measured_ipc": measured,
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
    basename = config.output["basename"]
    base_cfg = config.values["system"]
    analysis = config.analysis
    results: dict = {}
    summary: dict = {"name": config.name}

    if "fixed_point" in analysis:
        p = fixed_point(base_cfg)
        results["fixed_point"] = p
        summary["fixed_point"] = p
    if "nullclines" in analysis:
        block = analysis["nullclines"]
        w1 = np.linspace(block["w1_min"], block["w1_max"], block["count"])
        kept, n1, n2 = nullclines(base_cfg, block["z10"], w1)
        write_series_csv(
            outdir / f"{basename}_nullclines.csv",
            {"w1": kept, "dw1_zero": n1, "dw2_zero": n2},
        )
        results["nullclines"] = (kept, n1, n2)
    if "basin" in analysis:
        block = analysis["basin"]
        ga = np.linspace(block["a_min"], block["a_max"], block["a_count"])
        gb = np.linspace(block["b_min"], block["b_max"], block["b_count"])
        grid = basin_scan(base_cfg, ga, gb, **_params(basin_scan, block))
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
                "mode": block["mode"],
                "rows": [float(v) for v in ga],
                "cols": [float(v) for v in gb],
                "max_steps": block["max_steps"],
            },
        )
        results["basin"] = grid
    if "divergence" in analysis:
        block = analysis["divergence"]
        curve = divergence_probability(base_cfg, **_params(divergence_probability, block))
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
        lcfg = config.values["analysis.lyapunov"]
        rows = []
        for i, sigma in enumerate(block["sigmas"]):
            zeta = sample_stream(DistributionSpec(kind="uniform"), lcfg.T + lcfg.M + 16, block["seed"] + i)
            exps = lyapunov_spectrum(replace(base_cfg, shaping=_shaping(block, sigma)), lcfg, zeta)
            rows.append({"sigma": sigma, "exponents": [float(v) for v in exps]})
        write_json(outdir / f"{basename}_lyapunov.json", {"spectra": rows})
        results["lyapunov"] = rows
        summary["lyapunov"] = rows
    if "nrmse_table" in analysis:
        esns = config.values["analysis.nrmse_table"]
        rows = _run_nrmse_table(analysis["nrmse_table"], esns, base_cfg, outdir, basename)
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
