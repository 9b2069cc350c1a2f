"""Seedable samplers for the twelve input distributions, plus affine shaping.

Every sampler draws i.i.d. values from a fixed generator seeded per stream, so
identical (spec, count, seed) triples give bit-identical output regardless of
what else is running. Shaping is the affine map u = mu + kappa * zeta applied
to a raw stream before it drives a system.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

KINDS = (
    "gaussian",
    "gamma",
    "beta",
    "uniform",
    "poisson",
    "binomial",
    "negative_binomial",
    "hypergeometric",
    "mixed_gaussian",
    "pareto",
    "zipf",
    "bernoulli",
)

# Parameter defaults follow the polynomial-family parameter sets used for the
# matched chaos bases; the last four kinds have no canonical parameters and
# use the documented library defaults.
_DEFAULT_PARAMS: dict[str, dict] = {
    "gaussian": {},
    "gamma": {"alpha": 1.0},
    "beta": {"alpha": -0.25, "beta": -0.25},
    "uniform": {"low": -1.0, "high": 1.0},
    "poisson": {"a": 6.0},
    "binomial": {"p": 0.5, "n": 10},
    "negative_binomial": {"c": 0.2, "beta": 10.0},
    "hypergeometric": {"m": 100, "n": 50, "draws": 20},
    "mixed_gaussian": {"components": ((0.5, -2.0, 1.0), (0.5, 2.0, 1.0))},
    "pareto": {"shape": 5.0},
    # classic rank-frequency law; s = 1 keeps every atom of the truncated
    # support well populated so high-degree sample bases stay conditioned
    "zipf": {"s": 1.0, "k_max": 50},
    "bernoulli": {"p": 0.5},
}


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ParameterError(f"{field_name}: {message}")


def _validate(kind: str, p: dict) -> None:
    if kind == "gamma":
        _require(p["alpha"] > -1.0, "gamma.alpha", f"must be > -1, got {p['alpha']}")
    elif kind == "beta":
        _require(p["alpha"] > -1.0, "beta.alpha", f"must be > -1, got {p['alpha']}")
        _require(p["beta"] > -1.0, "beta.beta", f"must be > -1, got {p['beta']}")
    elif kind == "uniform":
        _require(p["low"] < p["high"], "uniform.low", "must satisfy low < high")
    elif kind == "poisson":
        _require(p["a"] > 0, "poisson.a", f"must be > 0, got {p['a']}")
    elif kind == "binomial":
        _require(0.0 <= p["p"] <= 1.0, "binomial.p", f"must be in [0,1], got {p['p']}")
        _require(int(p["n"]) >= 1, "binomial.n", f"must be >= 1, got {p['n']}")
    elif kind == "negative_binomial":
        _require(0.0 < p["c"] < 1.0, "negative_binomial.c", f"must be in (0,1), got {p['c']}")
        _require(p["beta"] > 0, "negative_binomial.beta", f"must be > 0, got {p['beta']}")
    elif kind == "hypergeometric":
        m, n, draws = int(p["m"]), int(p["n"]), int(p["draws"])
        _require(m >= 1, "hypergeometric.m", f"must be >= 1, got {m}")
        _require(n >= 1, "hypergeometric.n", f"must be >= 1, got {n}")
        _require(1 <= draws <= m + n, "hypergeometric.draws", f"must be in [1, m+n], got {draws}")
    elif kind == "mixed_gaussian":
        comps = p["components"]
        _require(len(comps) >= 1, "mixed_gaussian.components", "needs at least one component")
        for i, c in enumerate(comps):
            _require(len(c) == 3, "mixed_gaussian.components", f"component {i} must be (weight, mean, sd)")
            w, _, sd = c
            _require(w > 0, "mixed_gaussian.components", f"component {i} weight must be > 0, got {w}")
            _require(sd > 0, "mixed_gaussian.components", f"component {i} sd must be > 0, got {sd}")
    elif kind == "pareto":
        _require(p["shape"] > 2.0, "pareto.shape", f"must be > 2 for a finite variance, got {p['shape']}")
    elif kind == "zipf":
        _require(p["s"] > 0, "zipf.s", f"must be > 0, got {p['s']}")
        _require(int(p["k_max"]) >= 2, "zipf.k_max", f"must be >= 2, got {p['k_max']}")
    elif kind == "bernoulli":
        _require(0.0 <= p["p"] <= 1.0, "bernoulli.p", f"must be in [0,1], got {p['p']}")


@dataclass(frozen=True)
class DistributionSpec:
    """A named input law with its parameters.

    Missing parameters fall back to the library defaults above. The raw
    variable zeta follows this law; systems are driven by the shaped value
    u = mu + kappa * zeta.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"kind: unknown distribution {self.kind!r}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ParameterError(f"params: unknown parameter(s) {sorted(unknown)} for {self.kind}")
        for key, value in self.params.items():
            if key == "components":
                want = "a list of (weight, mean, sd) lists"
                ok = isinstance(value, (list, tuple)) and all(
                    isinstance(c, (list, tuple)) and all(map(_is_real, c)) for c in value
                )
            else:
                want, ok = "a number", _is_real(value)
            if not ok:
                raise ParameterError(f"{self.kind}.{key}: expected {want}, got {value!r}")
        merged.update(self.params)
        _validate(self.kind, merged)
        object.__setattr__(self, "params", merged)

    @property
    def support(self) -> tuple[float, float]:
        """Closed interval containing all samples (inf bounds where unbounded)."""
        p = self.params
        if self.kind == "uniform":
            return (float(p["low"]), float(p["high"]))
        if self.kind == "binomial":
            return (0.0, float(int(p["n"])))
        if self.kind == "hypergeometric":
            return (
                float(max(0, int(p["draws"]) - int(p["n"]))),
                float(min(int(p["m"]), int(p["draws"]))),
            )
        if self.kind == "zipf":
            return (1.0, float(int(p["k_max"])))
        return {
            "gaussian": (-math.inf, math.inf),
            "gamma": (0.0, math.inf),
            "beta": (-1.0, 1.0),
            "poisson": (0.0, math.inf),
            "negative_binomial": (0.0, math.inf),
            "mixed_gaussian": (-math.inf, math.inf),
            "pareto": (1.0, math.inf),
            "bernoulli": (0.0, 1.0),
        }[self.kind]

    @property
    def discrete(self) -> bool:
        return self.kind in (
            "poisson",
            "binomial",
            "negative_binomial",
            "hypergeometric",
            "zipf",
            "bernoulli",
        )

    def to_dict(self) -> dict:
        params = {
            k: (list(map(list, v)) if k == "components" else v)
            for k, v in self.params.items()
        }
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_dict(cls, d: dict) -> "DistributionSpec":
        params = dict(d.get("params", {}))
        if "components" in params:
            params["components"] = tuple(tuple(c) for c in params["components"])
        return cls(kind=d["kind"], params=params)


@dataclass(frozen=True)
class InputShaping:
    """Affine input map u = mu + kappa * zeta."""

    mu: float = 0.0
    kappa: float = 1.0

    @classmethod
    def symmetric(cls, sigma: float) -> "InputShaping":
        """Zero-mean range [-sigma, sigma] for a unit-interval variable."""
        return cls(mu=0.0, kappa=sigma)

    @classmethod
    def asymmetric(cls, sigma: float) -> "InputShaping":
        """Nonnegative range [0, sigma] for a unit-interval variable."""
        return cls(mu=sigma / 2.0, kappa=sigma / 2.0)

    def to_dict(self) -> dict:
        return {"mu": self.mu, "kappa": self.kappa}

    @classmethod
    def from_dict(cls, d: dict) -> "InputShaping":
        return cls(mu=float(d.get("mu", 0.0)), kappa=float(d.get("kappa", 1.0)))


def _sample_gaussian(rng, p, count):
    return rng.standard_normal(count)


def _sample_gamma(rng, p, count):
    # weight zeta^alpha e^{-zeta} -> shape alpha+1, unit scale
    return rng.gamma(shape=p["alpha"] + 1.0, scale=1.0, size=count)


def _sample_beta(rng, p, count):
    # weight (1-z)^alpha (1+z)^beta on [-1,1] -> x ~ Beta(beta+1, alpha+1), z = 2x-1
    x = rng.beta(p["beta"] + 1.0, p["alpha"] + 1.0, size=count)
    return 2.0 * x - 1.0


def _sample_uniform(rng, p, count):
    return rng.uniform(p["low"], p["high"], size=count)


def _sample_poisson(rng, p, count):
    return rng.poisson(lam=p["a"], size=count).astype(float)


def _sample_binomial(rng, p, count):
    return rng.binomial(n=int(p["n"]), p=p["p"], size=count).astype(float)


def _sample_negative_binomial(rng, p, count):
    # failure counts on {0,1,...}; success probability 1-c matches the
    # Meixner weight c^z (beta)_z / z!
    return rng.negative_binomial(n=p["beta"], p=1.0 - p["c"], size=count).astype(float)


def _sample_hypergeometric(rng, p, count):
    return rng.hypergeometric(int(p["m"]), int(p["n"]), int(p["draws"]), size=count).astype(float)


def _sample_mixed_gaussian(rng, p, count):
    comps = p["components"]
    weights = np.array([c[0] for c in comps], dtype=float)
    weights = weights / weights.sum()
    means = np.array([c[1] for c in comps], dtype=float)
    sds = np.array([c[2] for c in comps], dtype=float)
    idx = rng.choice(len(comps), size=count, p=weights)
    return means[idx] + sds[idx] * rng.standard_normal(count)


def _sample_pareto(rng, p, count):
    # classic Pareto with x_min = 1: numpy's pareto() is the shifted (Lomax) form
    return 1.0 + rng.pareto(p["shape"], size=count)


def _sample_zipf(rng, p, count):
    k = np.arange(1, int(p["k_max"]) + 1, dtype=float)
    probs = k ** (-p["s"])
    probs /= probs.sum()
    return rng.choice(k, size=count, p=probs)


def _sample_bernoulli(rng, p, count):
    return (rng.random(count) < p["p"]).astype(float)


_SAMPLERS = {
    "gaussian": _sample_gaussian,
    "gamma": _sample_gamma,
    "beta": _sample_beta,
    "uniform": _sample_uniform,
    "poisson": _sample_poisson,
    "binomial": _sample_binomial,
    "negative_binomial": _sample_negative_binomial,
    "hypergeometric": _sample_hypergeometric,
    "mixed_gaussian": _sample_mixed_gaussian,
    "pareto": _sample_pareto,
    "zipf": _sample_zipf,
    "bernoulli": _sample_bernoulli,
}


def sample_stream(spec: DistributionSpec, count: int, seed: int) -> np.ndarray:
    """Draw `count` i.i.d. samples of the spec's law from a fresh generator."""
    if count < 1:
        raise ParameterError(f"count: must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return _SAMPLERS[spec.kind](rng, spec.params, count)


def shape_input(zeta: np.ndarray, shaping: InputShaping) -> np.ndarray:
    """Apply u = mu + kappa * zeta elementwise."""
    return shaping.mu + shaping.kappa * np.asarray(zeta, dtype=float)


def analytic_moments(spec: DistributionSpec) -> tuple[float, float]:
    """(mean, variance) of the raw law, used by presets and moment tests."""
    p = spec.params
    kind = spec.kind
    if kind == "gaussian":
        return 0.0, 1.0
    if kind == "gamma":
        k = p["alpha"] + 1.0
        return k, k
    if kind == "beta":
        a, b = p["beta"] + 1.0, p["alpha"] + 1.0
        mean_x = a / (a + b)
        var_x = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return 2.0 * mean_x - 1.0, 4.0 * var_x
    if kind == "uniform":
        lo, hi = p["low"], p["high"]
        return (lo + hi) / 2.0, (hi - lo) ** 2 / 12.0
    if kind == "poisson":
        return p["a"], p["a"]
    if kind == "binomial":
        n, q = int(p["n"]), p["p"]
        return n * q, n * q * (1.0 - q)
    if kind == "negative_binomial":
        c, b = p["c"], p["beta"]
        return c * b / (1.0 - c), c * b / (1.0 - c) ** 2
    if kind == "hypergeometric":
        m, n, d = int(p["m"]), int(p["n"]), int(p["draws"])
        tot = m + n
        mean = d * m / tot
        var = d * (m / tot) * (n / tot) * (tot - d) / (tot - 1)
        return mean, var
    if kind == "mixed_gaussian":
        comps = p["components"]
        w = np.array([c[0] for c in comps], dtype=float)
        w /= w.sum()
        mu = np.array([c[1] for c in comps], dtype=float)
        sd = np.array([c[2] for c in comps], dtype=float)
        mean = float(w @ mu)
        var = float(w @ (sd**2 + mu**2) - mean**2)
        return mean, var
    if kind == "pareto":
        a = p["shape"]
        mean = a / (a - 1.0)
        var = a / ((a - 1.0) ** 2 * (a - 2.0))
        return mean, var
    if kind == "zipf":
        k = np.arange(1, int(p["k_max"]) + 1, dtype=float)
        probs = k ** (-p["s"])
        probs /= probs.sum()
        mean = float(probs @ k)
        var = float(probs @ k**2 - mean**2)
        return mean, var
    if kind == "bernoulli":
        q = p["p"]
        return q, q * (1.0 - q)
    raise ParameterError(f"kind: unknown distribution {kind!r}")
