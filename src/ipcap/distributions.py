"""The input laws, their chaos families, seedable samplers, and affine shaping.

LAWS is the one table of input laws. Each entry holds the law's sampler, its
parameters as schema Keys, its support, its mean and variance, and the
polynomial family orthogonal under it: the Wiener-Askey family for the eight
classical laws (Xiu & Karniadakis 2002), and gram_schmidt, the basis fitted to
the input sample, for the other four. A classical family takes its law's
parameter Keys, so it shares the law's names and bounds; Hahn alone declares
its own (polychaos), mapped from the hypergeometric law's by to_family.

Every sampler draws i.i.d. values from a fixed generator seeded per stream, so
identical (spec, count, seed) triples give bit-identical output regardless of
what else is running. Shaping is the affine map u = mu + kappa * zeta applied
to a raw stream before it drives a system; location and scale live there, not
in the laws.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .errors import ParameterError
from .schema import _POSITIVE, _UNIT, Key, _at_least, _between, parameters


@dataclass(frozen=True)
class Law:
    """One input law: how to sample it, its parameters, its support, its moments and its chaos family.

    params maps each parameter to its Key; support gives the closed interval
    holding every sample, and a discrete law takes every integer in it and
    nothing else; moments gives the law's (mean, variance); check tests
    constraints that span parameters. to_family maps the law's parameters to
    the family's where the family has its own.
    """

    sample: Callable  # (rng, params, count) -> float array
    params: dict
    support: Callable  # params -> (low, high)
    moments: Callable  # params -> (mean, variance)
    family: str = "gram_schmidt"
    check: Callable | None = None
    to_family: Callable | None = None
    discrete: bool = False  # the support holds only its integers


def _check_draws(p):
    if p["draws"] > p["m"] + p["n"]:
        raise ParameterError(f"params.draws: must be <= m + n, got {p['draws']}")


def _beta_moments(p):
    a, b = p["beta"] + 1.0, p["alpha"] + 1.0
    mean_x = a / (a + b)
    var_x = a * b / ((a + b) ** 2 * (a + b + 1.0))
    return 2.0 * mean_x - 1.0, 4.0 * var_x


def _negative_binomial_moments(p):
    c, b = p["c"], p["beta"]
    return c * b / (1.0 - c), c * b / (1.0 - c) ** 2


def _hypergeometric_moments(p):
    m, n, d = p["m"], p["n"], p["draws"]
    tot = m + n
    return d * m / tot, d * (m / tot) * (n / tot) * (tot - d) / (tot - 1)


def _mixture(p):
    """The components' normalised weights, means and sds."""
    comps = p["components"]
    weights = np.array([c[0] for c in comps], dtype=float)
    weights = weights / weights.sum()
    means = np.array([c[1] for c in comps], dtype=float)
    sds = np.array([c[2] for c in comps], dtype=float)
    return weights, means, sds


def _sample_mixed_gaussian(rng, p, count):
    weights, means, sds = _mixture(p)
    idx = rng.choice(len(weights), size=count, p=weights)
    return means[idx] + sds[idx] * rng.standard_normal(count)


def _mixed_gaussian_moments(p):
    w, mu, sd = _mixture(p)
    mean = float(w @ mu)
    return mean, float(w @ (sd**2 + mu**2) - mean**2)


def _pareto_moments(p):
    a = p["shape"]
    return a / (a - 1.0), a / ((a - 1.0) ** 2 * (a - 2.0))


def _zipf_atoms(p):
    k = np.arange(1, p["k_max"] + 1, dtype=float)
    probs = k ** (-p["s"])
    return k, probs / probs.sum()


def _sample_zipf(rng, p, count):
    k, probs = _zipf_atoms(p)
    return rng.choice(k, size=count, p=probs)


def _zipf_moments(p):
    k, probs = _zipf_atoms(p)
    mean = float(probs @ k)
    return mean, float(probs @ k**2 - mean**2)


LAWS: dict[str, Law] = {
    "gaussian": Law(
        lambda rng, p, count: rng.standard_normal(count), {}, lambda p: (-inf, inf), lambda p: (0.0, 1.0), "hermite"
    ),
    # weight z^alpha e^{-z}: shape alpha + 1, unit scale
    "gamma": Law(
        lambda rng, p, count: rng.gamma(shape=p["alpha"] + 1.0, scale=1.0, size=count),
        {"alpha": Key("float", 1.0, _between(-1, inf))},
        lambda p: (0.0, inf),
        lambda p: (p["alpha"] + 1.0,) * 2,
        "laguerre",
    ),
    # weight (1-z)^alpha (1+z)^beta on [-1,1]: x ~ Beta(beta+1, alpha+1), z = 2x-1
    "beta": Law(
        lambda rng, p, count: 2.0 * rng.beta(p["beta"] + 1.0, p["alpha"] + 1.0, size=count) - 1.0,
        {"alpha": Key("float", -0.25, _between(-1, inf)), "beta": Key("float", -0.25, _between(-1, inf))},
        lambda p: (-1.0, 1.0),
        _beta_moments,
        "jacobi",
    ),
    # Legendre is orthogonal on [-1, 1] only; move or stretch it by shaping
    "uniform": Law(
        lambda rng, p, count: rng.uniform(-1.0, 1.0, size=count), {}, lambda p: (-1.0, 1.0), lambda p: (0.0, 1.0 / 3.0),
        "legendre",
    ),
    "poisson": Law(
        lambda rng, p, count: rng.poisson(lam=p["a"], size=count).astype(float),
        {"a": Key("float", 6.0, _between(0, inf))},
        lambda p: (0.0, inf),
        lambda p: (p["a"], p["a"]),
        "charlier",
        discrete=True,
    ),
    "binomial": Law(
        lambda rng, p, count: rng.binomial(n=p["n"], p=p["p"], size=count).astype(float),
        {"p": Key("float", 0.5, _UNIT), "n": Key("int", 10, _POSITIVE)},
        lambda p: (0.0, p["n"]),
        lambda p: (p["n"] * p["p"], p["n"] * p["p"] * (1.0 - p["p"])),
        "krawtchouk",
        discrete=True,
    ),
    # failure counts; success probability 1-c matches the Meixner weight c^z (beta)_z / z!
    "negative_binomial": Law(
        lambda rng, p, count: rng.negative_binomial(n=p["beta"], p=1.0 - p["c"], size=count).astype(float),
        {"c": Key("float", 0.2, _UNIT), "beta": Key("float", 10.0, _between(0, inf))},
        lambda p: (0.0, inf),
        _negative_binomial_moments,
        "meixner",
        discrete=True,
    ),
    # Hahn Q_k(z; alpha, beta, N) is orthogonal under it with alpha = -m-1, beta = -n-1, N = draws
    "hypergeometric": Law(
        lambda rng, p, count: rng.hypergeometric(p["m"], p["n"], p["draws"], size=count).astype(float),
        {"m": Key("int", 100, _POSITIVE), "n": Key("int", 50, _POSITIVE), "draws": Key("int", 20, _POSITIVE)},
        lambda p: (max(0, p["draws"] - p["n"]), min(p["m"], p["draws"])),
        _hypergeometric_moments,
        "hahn",
        check=_check_draws,
        to_family=lambda p: {"alpha": -p["m"] - 1.0, "beta": -p["n"] - 1.0, "n": p["draws"]},
        discrete=True,
    ),
    "mixed_gaussian": Law(
        _sample_mixed_gaussian,
        {
            "components": Key(
                "components", ((0.5, -2.0, 1.0), (0.5, 2.0, 1.0)),
                (lambda c: c[0] > 0 and c[2] > 0, "weight > 0 and sd > 0 in each component"),
            )
        },
        lambda p: (-inf, inf),
        _mixed_gaussian_moments,
    ),
    # classic Pareto with x_min = 1 (numpy's pareto() is the shifted Lomax
    # form); shape > 2 for a finite variance
    "pareto": Law(
        lambda rng, p, count: 1.0 + rng.pareto(p["shape"], size=count),
        {"shape": Key("float", 5.0, _between(2, inf))},
        lambda p: (1.0, inf),
        _pareto_moments,
    ),
    # classic rank-frequency law; s = 1 keeps every atom of the truncated
    # support well populated so high-degree sample bases stay conditioned
    "zipf": Law(
        _sample_zipf,
        {"s": Key("float", 1.0, _between(0, inf)), "k_max": Key("int", 50, _at_least(2))},
        lambda p: (1.0, p["k_max"]),
        _zipf_moments,
        discrete=True,
    ),
    "bernoulli": Law(
        lambda rng, p, count: (rng.random(count) < p["p"]).astype(float),
        {"p": Key("float", 0.5, _UNIT)},
        lambda p: (0.0, 1.0),
        lambda p: (p["p"], p["p"] * (1.0 - p["p"])),
        discrete=True,
    ),
}


@dataclass(frozen=True)
class DistributionSpec:
    """A named input law with its parameters.

    Missing parameters fall back to the law's defaults in LAWS. The raw
    variable zeta follows this law; systems are driven by the shaped value
    u = mu + kappa * zeta.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in LAWS:
            raise ParameterError(f"kind: unknown distribution {self.kind!r}")
        law = LAWS[self.kind]
        params = parameters(law.params, self.params)
        if law.check is not None:
            law.check(params)
        if "components" in params:
            params["components"] = [list(c) for c in params["components"]]
        object.__setattr__(self, "params", params)

    @property
    def support(self) -> tuple[float, float]:
        """Closed interval containing all samples (inf bounds where unbounded)."""
        low, high = LAWS[self.kind].support(self.params)
        return float(low), float(high)

    @property
    def support_points(self) -> float:
        """How many values the law takes: finite only for a discrete law on a bounded support."""
        low, high = self.support
        return high - low + 1.0 if LAWS[self.kind].discrete else inf

    @property
    def family(self) -> dict:
        """The polynomial family orthogonal under this law, as {"kind", "params"}."""
        law = LAWS[self.kind]
        if law.to_family is not None:
            return {"kind": law.family, "params": law.to_family(self.params)}
        return {"kind": law.family, "params": dict(self.params) if law.family != "gram_schmidt" else {}}

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, d: dict) -> "DistributionSpec":
        return cls(kind=d.get("kind"), params=d.get("params", {}))


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
        return cls(**d)


def sample_stream(spec: DistributionSpec, count: int, seed: int) -> np.ndarray:
    """Draw `count` i.i.d. samples of the spec's law from a fresh generator."""
    if count < 1:
        raise ParameterError(f"count: must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return LAWS[spec.kind].sample(rng, spec.params, count)


def shape_input(zeta: np.ndarray, shaping: InputShaping) -> np.ndarray:
    """Apply u = mu + kappa * zeta elementwise."""
    return shaping.mu + shaping.kappa * np.asarray(zeta, dtype=float)


def analytic_moments(spec: DistributionSpec) -> tuple[float, float]:
    """(mean, variance) of the raw law, used by presets and moment tests."""
    return LAWS[spec.kind].moments(spec.params)
