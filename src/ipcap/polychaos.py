"""Orthogonal polynomial families, chaos enumeration, and chaos targets.

Univariate families are the eight classical ones plus a data-driven basis
(kind gram_schmidt) fitted to the input sample by the Stieltjes procedure; one
loop evaluates each by its three-term recurrence (Xiu & Karniadakis 2002). A
chaos target is a product of such polynomials at distinct input delays,
optionally multiplied by a cos/sin time factor, and is always normalized to
unit Euclidean norm over its window.
"""

from __future__ import annotations

import math
from math import inf
from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement

import numpy as np

from .distributions import LAWS
from .errors import DegeneracyError, ParameterError
from .schema import _POSITIVE, Key, parameters

DEFAULT_MAX_DEGREE = 12


@dataclass(frozen=True, eq=False)
class PolynomialFamily:
    """A univariate orthogonal family with its parameters.

    Parameters are checked against the family's weight (for example Laguerre
    alpha > -1, Krawtchouk 0 < p < 1 and integer n >= 1). For gram_schmidt the
    (max_degree, 2) table recurrence holds the monic coefficients
    (alpha_n, beta_n) of p_{n+1}(z) = (z - alpha_n) p_n(z) - beta_n p_{n-1}(z),
    with p_0 = 1 and p_{-1} = 0.
    """

    kind: str
    params: dict = field(default_factory=dict)
    recurrence: np.ndarray | None = None
    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ParameterError(f"kind: unknown polynomial family {self.kind!r}")
        params = parameters(_FAMILIES[self.kind][1], self.params)
        object.__setattr__(self, "params", params)
        if self.kind == "gram_schmidt":
            r = np.asarray(self.recurrence, dtype=float)
            if r.ndim != 2 or r.shape[1] != 2:
                raise ParameterError("recurrence: gram_schmidt needs a table of (alpha_n, beta_n)")
            object.__setattr__(self, "recurrence", r)
            object.__setattr__(self, "max_degree", r.shape[0])


# (A_n, B_n, C_n) of each family, in the standardisation used throughout:
# probabilists' Hermite; Laguerre L_n^(alpha), Jacobi P_n^(alpha, beta) and
# Legendre P_n as in Abramowitz & Stegun 22; monic Charlier; Krawtchouk as the
# coefficient of w^n in (1 - p w)^(n - z) (1 + (1 - p) w)^z; Meixner and Hahn
# scaled to p_n(0) = 1. C_0 multiplies p_{-1} = 0.


def _hermite(n, f):
    return 1.0, 0.0, float(n)


def _laguerre(n, f):
    a = f.params["alpha"]
    return -1.0 / (n + 1), (2 * n + 1 + a) / (n + 1), (n + a) / (n + 1)


def _jacobi(n, f):
    a, b = f.params["alpha"], f.params["beta"]
    if n == 0:
        return (a + b + 2.0) / 2.0, (a - b) / 2.0, 0.0
    g = 2.0 * n + a + b
    den = 2.0 * (n + 1.0) * (g - n + 1.0) * g
    A = (g + 1.0) * g * (g + 2.0)
    return A / den, (g + 1.0) * (a * a - b * b) / den, 2.0 * (n + a) * (n + b) * (g + 2.0) / den


def _legendre(n, f):
    return (2 * n + 1) / (n + 1), 0.0, n / (n + 1)


def _charlier(n, f):
    a = f.params["a"]
    return 1.0, -(n + a), a * n


def _krawtchouk(n, f):
    p, N = f.params["p"], f.params["n"]
    B = -(p * N + (1.0 - 2.0 * p) * n)
    return 1.0 / (n + 1), B / (n + 1), p * (1.0 - p) * (N - n + 1) / (n + 1)


def _meixner(n, f):
    c, b = f.params["c"], f.params["beta"]
    den = c * (n + b)
    return (c - 1.0) / den, (n + den) / den, n / den


def _hahn(n, f):
    a, b, N = f.params["alpha"], f.params["beta"], f.params["n"]
    g = 2.0 * n + a + b
    A = (n + a + b + 1.0) * (n + a + 1.0) * (N - n) / ((g + 1.0) * (g + 2.0))
    C = n * (n + a + b + N + 1.0) * (n + b) / (g * (g + 1.0)) if n else 0.0
    if A == 0.0:
        raise ParameterError(f"degree: hahn recurrence degenerate at degree {n + 1}")
    return -1.0 / A, (A + C) / A, C / A


def _gram_schmidt(n, f):
    alpha, beta = f.recurrence[n]
    return 1.0, -alpha, beta


# kind -> ((A_n, B_n, C_n) of step n, the family's parameter Keys). A classical
# family takes the Keys of the law it is orthogonal under (distributions.LAWS),
# so it shares the law's names and bounds. Hahn declares its own, whose
# defaults are the hypergeometric defaults' to_family. It is checked by type
# only: its hypergeometric parametrisation takes negative alpha, beta, and
# _recurrence rejects those that zero a denominator.
_FAMILIES = {
    "hermite": (_hermite, LAWS["gaussian"].params),
    "laguerre": (_laguerre, LAWS["gamma"].params),
    "jacobi": (_jacobi, LAWS["beta"].params),
    "legendre": (_legendre, LAWS["uniform"].params),
    "charlier": (_charlier, LAWS["poisson"].params),
    "krawtchouk": (_krawtchouk, LAWS["binomial"].params),
    "meixner": (_meixner, LAWS["negative_binomial"].params),
    "hahn": (_hahn, {"alpha": Key("float", -101.0), "beta": Key("float", -51.0), "n": Key("int", 20, _POSITIVE)}),
    "gram_schmidt": (_gram_schmidt, {}),
}
FAMILY_KINDS = tuple(_FAMILIES)


def _recurrence(family: PolynomialFamily, max_degree: int) -> list[tuple[float, float, float]]:
    """The (A_n, B_n, C_n) of the steps n = 0..max_degree-1 that reach max_degree.

    Checked before any data exists: ParameterError when max_degree is out of
    range or a step divides by zero (Hahn with 2n + alpha + beta in {0, -1, -2}).
    """
    if max_degree < 0:
        raise ParameterError(f"degree: must be >= 0, got {max_degree}")
    if max_degree > family.max_degree:
        raise ParameterError(f"degree: {max_degree} exceeds family max degree {family.max_degree}")
    coefficients = _FAMILIES[family.kind][0]
    steps = []
    for n in range(max_degree):
        try:
            steps.append(coefficients(n, family))
        except ZeroDivisionError:
            raise ParameterError(
                f"{family.kind}: recurrence step to degree {n + 1} divides by zero with {family.params}"
            ) from None
    return steps


def eval_table(family: PolynomialFamily, zeta: np.ndarray, max_degree: int) -> np.ndarray:
    """Values F_n(zeta_t) for all degrees n = 0..max_degree, shape (T, max_degree+1).

    The table is built degree-major, so the returned array is the transpose
    of a C-contiguous (max_degree+1, T) array.
    """
    steps = _recurrence(family, max_degree)
    z = np.asarray(zeta, dtype=float).ravel()
    t = np.empty((max_degree + 1, z.size))
    t[0] = 1.0
    prev = np.zeros(z.size)
    for n, (a, b, c) in enumerate(steps):
        t[n + 1] = (a * z + b) * t[n] - c * prev
        prev = t[n]
    if family.kind == "krawtchouk":
        # degrees above n vanish exactly on the support {0, .., n}, where the
        # recurrence leaves rounding residue
        N = family.params["n"]
        t[N + 1 :, (z == np.round(z)) & (z >= 0) & (z <= N)] = 0.0
    return t.T


def fit_gram_schmidt(samples: np.ndarray, max_degree: int) -> PolynomialFamily:
    """Fit the monic orthogonal basis of the samples' empirical law by Stieltjes.

    Step n takes alpha_n = <z p_n, p_n> / <p_n, p_n> and beta_n = <p_n, p_n> /
    <p_{n-1}, p_{n-1}> (Gautschi 2004); one re-orthogonalisation
    pass adds the remainder's projections on p_n and p_{n-1} to them. p_{n+1}
    is computed as eval_table computes it, so later sums run over the basis the
    sweep reads. DegeneracyError names the first degree that vanishes on the
    samples, relative to z p_n.
    """
    x = np.asarray(samples, dtype=float).ravel()
    T = x.size
    if max_degree < 1:
        raise ParameterError(f"max_degree: must be >= 1, got {max_degree}")
    if T <= max_degree:
        raise ParameterError(f"samples: need more than {max_degree} samples, got {T}")
    recurrence = np.empty((max_degree, 2))
    prev, cur = np.zeros(T), np.ones(T)
    prev_sq, cur_sq = inf, float(T)
    for n in range(max_degree):
        xp = x * cur
        alpha, beta = float(xp @ cur) / cur_sq, cur_sq / prev_sq
        rest = xp - alpha * cur - beta * prev
        alpha += float(rest @ cur) / cur_sq
        beta += float(rest @ prev) / prev_sq
        recurrence[n] = alpha, beta
        prev, cur = cur, (x - alpha) * cur - beta * prev
        prev_sq, cur_sq = cur_sq, float(cur @ cur)
        if not math.sqrt(cur_sq) > 1e-12 * float(np.linalg.norm(xp)):
            raise DegeneracyError(n + 1)
    return PolynomialFamily(kind="gram_schmidt", recurrence=recurrence)


@dataclass(frozen=True)
class ChaosSpec:
    """One polynomial chaos target: product of degrees at distinct delays.

    terms is a tuple of (delay, degree) pairs with strictly increasing delays;
    temporal is an optional (harmonic, "cos"|"sin") time factor.
    """

    terms: tuple[tuple[int, int], ...]
    temporal: tuple[int, str] | None = None

    def __post_init__(self):
        terms = tuple((int(s), int(n)) for s, n in self.terms)
        if not terms:
            raise ParameterError("terms: at least one (delay, degree) pair required")
        delays = [s for s, _ in terms]
        if any(s < 1 for s in delays):
            raise ParameterError(f"terms: delays must be >= 1, got {delays}")
        if any(b <= a for a, b in zip(delays, delays[1:])):
            raise ParameterError(f"terms: delays must be strictly increasing, got {delays}")
        if any(n < 1 for _, n in terms):
            raise ParameterError("terms: degrees must be >= 1 (degree-0 factors are omitted)")
        object.__setattr__(self, "terms", terms)
        if self.temporal is not None:
            k, kind = self.temporal
            if int(k) < 1:
                raise ParameterError(f"temporal: harmonic must be >= 1, got {k}")
            if kind not in ("cos", "sin"):
                raise ParameterError(f"temporal: phase kind must be cos or sin, got {kind!r}")
            object.__setattr__(self, "temporal", (int(k), kind))

    @property
    def total_degree(self) -> int:
        return sum(n for _, n in self.terms)

    @property
    def max_delay(self) -> int:
        return max(s for s, _ in self.terms)

    def label(self) -> str:
        parts = [f"{n}@{s}" for s, n in self.terms]
        if self.temporal is not None:
            k, kind = self.temporal
            parts.append(f"{kind}@{k}")
        return "*".join(parts)

    @classmethod
    def from_label(cls, text: str) -> "ChaosSpec":
        terms = []
        temporal = None
        for part in text.split("*"):
            lhs, _, rhs = part.partition("@")
            if lhs in ("cos", "sin"):
                temporal = (int(rhs), lhs)
            else:
                terms.append((int(rhs), int(lhs)))
        return cls(terms=tuple(terms), temporal=temporal)


def enumerate_chaos(
    max_total_degree: int,
    max_delay: int,
    temporal=None,
    *,
    min_total_degree: int = 1,
    max_degree_per_var: int | None = None,
) -> list[ChaosSpec]:
    """All chaos specs with total degree and delays within the given bounds.

    Ordered by total degree, then lexicographically by delay and degree
    tuples. If temporal harmonics are given, the cos/sin cross product is
    appended after the pure list.
    """
    if max_total_degree < 1 or max_delay < 1:
        raise ParameterError("max_total_degree and max_delay must be >= 1")
    specs = []
    for d in range(max(1, min_total_degree), max_total_degree + 1):
        for combo in combinations_with_replacement(range(1, max_delay + 1), d):
            terms = []
            for s in sorted(set(combo)):
                n = combo.count(s)
                if max_degree_per_var is not None and n > max_degree_per_var:
                    terms = None
                    break
                terms.append((s, n))
            if terms:
                specs.append(ChaosSpec(terms=tuple(terms)))
    specs.sort(key=lambda c: (c.total_degree, tuple(s for s, _ in c.terms), tuple(n for _, n in c.terms)))
    if temporal:
        specs = specs + _crossed(specs, temporal)
    return specs


def _crossed(specs: list[ChaosSpec], harmonics) -> list[ChaosSpec]:
    """specs times cos/sin of each harmonic: by harmonic, then cos before sin, then spec."""
    return [
        replace(spec, temporal=(int(k), kind))
        for k in harmonics
        for kind in ("cos", "sin")
        for spec in specs
    ]


def _time_factor(T: int, k: int, kind: str) -> np.ndarray:
    """cos or sin(2 pi k t / T) over window times t = 0 .. T-1."""
    phase = 2.0 * math.pi * k * np.arange(T) / T
    return np.cos(phase) if kind == "cos" else np.sin(phase)


def _fill_product(out: np.ndarray, terms, table: np.ndarray, lo: int, factor=None, base=None) -> None:
    """Write base times the terms' table slices times factor into out, in place.

    Element i is base[i] * prod_(s, n) table[n, lo + i - s] * factor[i], taken
    left to right; a missing base or factor is omitted. So a row built on its
    prefix's row is bitwise the row built from scratch.
    """
    hi = lo + out.shape[0]
    acc = base
    for s, n in terms:
        if acc is None:
            out[:] = table[n, lo - s : hi - s]
        else:
            np.multiply(acc, table[n, lo - s : hi - s], out=out)
        acc = out
    if factor is not None:
        np.multiply(acc, factor, out=out)


def _fill_target(row: np.ndarray, spec: ChaosSpec, table: np.ndarray, start: int, trig) -> float:
    """Write spec's target over window [start, start + len(row)) into row, in place.

    table is degree-major (table[n] holds F_n over the whole input stream) and
    trig(k, kind) gives the time factor. The row is normalized to unit norm
    when its norm is positive and finite; the norm is returned either way.
    """
    factor = trig(*spec.temporal) if spec.temporal is not None else None
    _fill_product(row, spec.terms, table, start, factor)
    norm = float(np.linalg.norm(row))
    if 0.0 < norm < math.inf:
        row /= norm
    return norm
