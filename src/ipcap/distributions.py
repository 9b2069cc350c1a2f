"""The input laws, their chaos families, seedable samplers, and affine shaping.

LAWS is the one table of input laws. Each entry holds the law's sampler, its
parameters, its support, and the polynomial family orthogonal under it: the
Wiener-Askey family for the eight classical laws (Xiu & Karniadakis 2002), and
gram_schmidt, the basis fitted to the input sample, for the other four. The
classical families take their parameter declarations from here, so a family
shares its law's parameter names; Hahn alone has its own, mapped from the
hypergeometric law's.

Every sampler draws i.i.d. values from a fixed generator seeded per stream, so
identical (spec, count, seed) triples give bit-identical output regardless of
what else is running. Shaping is the affine map u = mu + kappa * zeta applied
to a raw stream before it drives a system; location and scale live there, not
in the laws.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from math import inf

import numpy as np

from .errors import ParameterError


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ParameterError(f"{field_name}: {message}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_params(owner: str, declared: dict, given) -> dict:
    """The given parameters over the declared defaults, each checked against its declaration.

    A declaration is (default, low, high) with exclusive bounds; an integer
    default makes the parameter integral, and a tuple default (a mixture's
    components) takes a list of number lists. ParameterError names owner.name.
    """
    if not isinstance(given, dict):
        raise ParameterError(f"params: expected a mapping, got {given!r}")
    for name, value in given.items():
        if name not in declared:
            raise ParameterError(f"{owner}: unknown parameter {name!r}")
        default, low, high = declared[name]
        if isinstance(default, tuple):
            want = "a list of (weight, mean, sd) lists"
            ok = isinstance(value, (list, tuple)) and all(
                isinstance(c, (list, tuple)) and all(map(_is_real, c)) for c in value
            )
        else:
            integral = isinstance(default, int)
            want = f"{'an integer' if integral else 'a number'} in ({low}, {high})"
            ok = _is_real(value) and (isinstance(value, numbers.Integral) or not integral)
            ok = ok and low < value < high
        if not ok:
            raise ParameterError(f"{owner}.{name}: expected {want}, got {value!r}")
    return {**{name: d[0] for name, d in declared.items()}, **given}


@dataclass(frozen=True)
class Law:
    """One input law: how to sample it, its parameters, its support and its chaos family.

    params maps each parameter to its declaration (see check_params); support
    gives the closed interval holding every sample, and a discrete law takes
    every integer in it and nothing else; check tests constraints
    that span parameters. to_family maps the law's parameters to the family's
    where the family has its own, and family_bounds gives their (low, high).
    """

    sample: Callable  # (rng, params, count) -> float array
    params: dict
    support: Callable  # params -> (low, high)
    family: str = "gram_schmidt"
    check: Callable | None = None
    to_family: Callable | None = None
    family_bounds: dict | None = None
    discrete: bool = False  # the support holds only its integers

    @property
    def family_params(self) -> dict:
        """Declarations of the family's parameters: the law's own unless mapped."""
        if self.to_family is None:
            return self.params
        defaults = self.to_family({name: d[0] for name, d in self.params.items()})
        return {name: (value, *self.family_bounds[name]) for name, value in defaults.items()}


def _check_draws(p):
    _require(p["draws"] <= p["m"] + p["n"], "hypergeometric.draws", f"must be <= m + n, got {p['draws']}")


def _check_components(p):
    comps = p["components"]
    _require(len(comps) >= 1, "mixed_gaussian.components", "needs at least one component")
    for i, c in enumerate(comps):
        _require(len(c) == 3, "mixed_gaussian.components", f"component {i} must be (weight, mean, sd)")
        w, _, sd = c
        _require(w > 0, "mixed_gaussian.components", f"component {i} weight must be > 0, got {w}")
        _require(sd > 0, "mixed_gaussian.components", f"component {i} sd must be > 0, got {sd}")


def _sample_mixed_gaussian(rng, p, count):
    comps = p["components"]
    weights = np.array([c[0] for c in comps], dtype=float)
    weights = weights / weights.sum()
    means = np.array([c[1] for c in comps], dtype=float)
    sds = np.array([c[2] for c in comps], dtype=float)
    idx = rng.choice(len(comps), size=count, p=weights)
    return means[idx] + sds[idx] * rng.standard_normal(count)


def _zipf_atoms(p):
    k = np.arange(1, p["k_max"] + 1, dtype=float)
    probs = k ** (-p["s"])
    return k, probs / probs.sum()


def _sample_zipf(rng, p, count):
    k, probs = _zipf_atoms(p)
    return rng.choice(k, size=count, p=probs)


LAWS: dict[str, Law] = {
    "gaussian": Law(lambda rng, p, count: rng.standard_normal(count), {}, lambda p: (-inf, inf), "hermite"),
    # weight z^alpha e^{-z}: shape alpha + 1, unit scale
    "gamma": Law(
        lambda rng, p, count: rng.gamma(shape=p["alpha"] + 1.0, scale=1.0, size=count),
        {"alpha": (1.0, -1.0, inf)},
        lambda p: (0.0, inf),
        "laguerre",
    ),
    # weight (1-z)^alpha (1+z)^beta on [-1,1]: x ~ Beta(beta+1, alpha+1), z = 2x-1
    "beta": Law(
        lambda rng, p, count: 2.0 * rng.beta(p["beta"] + 1.0, p["alpha"] + 1.0, size=count) - 1.0,
        {"alpha": (-0.25, -1.0, inf), "beta": (-0.25, -1.0, inf)},
        lambda p: (-1.0, 1.0),
        "jacobi",
    ),
    # Legendre is orthogonal on [-1, 1] only; move or stretch it by shaping
    "uniform": Law(
        lambda rng, p, count: rng.uniform(-1.0, 1.0, size=count), {}, lambda p: (-1.0, 1.0), "legendre"
    ),
    "poisson": Law(
        lambda rng, p, count: rng.poisson(lam=p["a"], size=count).astype(float),
        {"a": (6.0, 0.0, inf)},
        lambda p: (0.0, inf),
        "charlier",
        discrete=True,
    ),
    "binomial": Law(
        lambda rng, p, count: rng.binomial(n=p["n"], p=p["p"], size=count).astype(float),
        {"p": (0.5, 0.0, 1.0), "n": (10, 0, inf)},
        lambda p: (0.0, p["n"]),
        "krawtchouk",
        discrete=True,
    ),
    # failure counts; success probability 1-c matches the Meixner weight c^z (beta)_z / z!
    "negative_binomial": Law(
        lambda rng, p, count: rng.negative_binomial(n=p["beta"], p=1.0 - p["c"], size=count).astype(float),
        {"c": (0.2, 0.0, 1.0), "beta": (10.0, 0.0, inf)},
        lambda p: (0.0, inf),
        "meixner",
        discrete=True,
    ),
    # Hahn Q_k(z; alpha, beta, N) is orthogonal under it with alpha = -m-1, beta = -n-1, N = draws
    "hypergeometric": Law(
        lambda rng, p, count: rng.hypergeometric(p["m"], p["n"], p["draws"], size=count).astype(float),
        {"m": (100, 0, inf), "n": (50, 0, inf), "draws": (20, 0, inf)},
        lambda p: (max(0, p["draws"] - p["n"]), min(p["m"], p["draws"])),
        "hahn",
        check=_check_draws,
        to_family=lambda p: {"alpha": -p["m"] - 1.0, "beta": -p["n"] - 1.0, "n": p["draws"]},
        family_bounds={"alpha": (-inf, inf), "beta": (-inf, inf), "n": (0, inf)},
        discrete=True,
    ),
    "mixed_gaussian": Law(
        _sample_mixed_gaussian,
        {"components": (((0.5, -2.0, 1.0), (0.5, 2.0, 1.0)), None, None)},
        lambda p: (-inf, inf),
        check=_check_components,
    ),
    # classic Pareto with x_min = 1 (numpy's pareto() is the shifted Lomax
    # form); shape > 2 for a finite variance
    "pareto": Law(
        lambda rng, p, count: 1.0 + rng.pareto(p["shape"], size=count),
        {"shape": (5.0, 2.0, inf)},
        lambda p: (1.0, inf),
    ),
    # classic rank-frequency law; s = 1 keeps every atom of the truncated
    # support well populated so high-degree sample bases stay conditioned
    "zipf": Law(
        _sample_zipf, {"s": (1.0, 0.0, inf), "k_max": (50, 1, inf)}, lambda p: (1.0, p["k_max"]), discrete=True
    ),
    "bernoulli": Law(
        lambda rng, p, count: (rng.random(count) < p["p"]).astype(float),
        {"p": (0.5, 0.0, 1.0)},
        lambda p: (0.0, 1.0),
        discrete=True,
    ),
}

# family kind -> its parameter declarations, from the law it is orthogonal under
FAMILY_PARAMS = {law.family: law.family_params for law in LAWS.values() if law.family != "gram_schmidt"}


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
        params = check_params(self.kind, law.params, self.params)
        if law.check is not None:
            law.check(params)
        if "components" in params:
            params["components"] = tuple(map(tuple, params["components"]))
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
        params = {
            k: (list(map(list, v)) if k == "components" else v)
            for k, v in self.params.items()
        }
        return {"kind": self.kind, "params": params}

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
        return 0.0, 1.0 / 3.0
    if kind == "poisson":
        return p["a"], p["a"]
    if kind == "binomial":
        n, q = p["n"], p["p"]
        return n * q, n * q * (1.0 - q)
    if kind == "negative_binomial":
        c, b = p["c"], p["beta"]
        return c * b / (1.0 - c), c * b / (1.0 - c) ** 2
    if kind == "hypergeometric":
        m, n, d = p["m"], p["n"], p["draws"]
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
        k, probs = _zipf_atoms(p)
        mean = float(probs @ k)
        var = float(probs @ k**2 - mean**2)
        return mean, var
    q = p["p"]  # bernoulli
    return q, q * (1.0 - q)
