"""Orthogonal polynomial families, chaos enumeration, and target series.

Univariate families are the eight classical ones plus a data-driven
Gram-Schmidt basis. A chaos target is a product of such polynomials at
distinct input delays, optionally multiplied by a cos/sin time factor, and is
always normalized to unit Euclidean norm over its window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import combinations_with_replacement

import numpy as np

from .errors import (
    DegeneracyError,
    DegenerateTargetError,
    ParameterError,
    ShapeError,
    WindowError,
)

FAMILY_KINDS = (
    "hermite",
    "laguerre",
    "jacobi",
    "legendre",
    "charlier",
    "krawtchouk",
    "meixner",
    "hahn",
    "gram_schmidt",
)

_DEFAULT_PARAMS: dict[str, dict] = {
    "hermite": {},
    "laguerre": {"alpha": 1.0},
    "jacobi": {"alpha": -0.25, "beta": -0.25},
    "legendre": {},
    "charlier": {"a": 6.0},
    "krawtchouk": {"p": 0.5, "n": 10},
    "meixner": {"c": 0.2, "beta": 10.0},
    "hahn": {"alpha": -101.0, "beta": -51.0, "n": 20},
    "gram_schmidt": {},
}

DEFAULT_MAX_DEGREE = 12


@dataclass(frozen=True, eq=False)
class PolynomialFamily:
    """A univariate orthogonal family with its parameters.

    For gram_schmidt the triangular table gs_coeffs[n, i] holds the projection
    coefficients such that psi_n(z) = z^n - sum_{i<n} gs_coeffs[n, i] psi_i(z),
    with psi_0 identically 1.
    """

    kind: str
    params: dict = field(default_factory=dict)
    gs_coeffs: np.ndarray | None = None
    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ParameterError(f"kind: unknown polynomial family {self.kind!r}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        unknown = set(self.params) - set(merged)
        if unknown:
            raise ParameterError(f"params: unknown parameter(s) {sorted(unknown)} for {self.kind}")
        merged.update(self.params)
        object.__setattr__(self, "params", merged)
        if self.kind == "gram_schmidt":
            if self.gs_coeffs is None:
                raise ParameterError("gs_coeffs: required for gram_schmidt families")
            c = np.asarray(self.gs_coeffs, dtype=float)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ParameterError("gs_coeffs: must be a square triangular table")
            object.__setattr__(self, "gs_coeffs", c)
            object.__setattr__(self, "max_degree", c.shape[0] - 1)


def _gen_binom(a: float, k: int) -> float:
    """Generalized binomial coefficient C(a, k) for real a, integer k >= 0."""
    out = 1.0
    for j in range(k):
        out *= (a - j) / (j + 1)
    return out


def _falling_table(z: np.ndarray, max_k: int) -> np.ndarray:
    """ff[:, k] = z (z-1) ... (z-k+1), with ff[:, 0] = 1."""
    ff = np.empty((z.size, max_k + 1))
    ff[:, 0] = 1.0
    for k in range(1, max_k + 1):
        ff[:, k] = ff[:, k - 1] * (z - (k - 1))
    return ff


def _table_hermite(z, d, p):
    t = np.empty((z.size, d + 1))
    t[:, 0] = 1.0
    if d >= 1:
        t[:, 1] = z
    for n in range(1, d):
        t[:, n + 1] = z * t[:, n] - n * t[:, n - 1]
    return t


def _table_laguerre(z, d, p):
    a = p["alpha"]
    t = np.empty((z.size, d + 1))
    powers = np.empty((z.size, d + 1))
    powers[:, 0] = 1.0
    for i in range(1, d + 1):
        powers[:, i] = powers[:, i - 1] * z
    for n in range(d + 1):
        acc = np.zeros(z.size)
        for i in range(n + 1):
            acc += (-1.0) ** i * _gen_binom(n + a, n - i) / math.factorial(i) * powers[:, i]
        t[:, n] = acc
    return t


def _table_jacobi(z, d, p):
    a, b = p["alpha"], p["beta"]
    t = np.empty((z.size, d + 1))
    t[:, 0] = 1.0
    if d >= 1:
        t[:, 1] = ((a + b + 2.0) * z + (a - b)) / 2.0
    for n in range(1, d):
        g = 2.0 * n + a + b
        num1 = (g + 1.0) * (g * (g + 2.0) * z + a * a - b * b)
        num2 = 2.0 * (n + a) * (n + b) * (g + 2.0)
        den = 2.0 * (n + 1.0) * (g - n + 1.0) * g
        t[:, n + 1] = (num1 * t[:, n] - num2 * t[:, n - 1]) / den
    return t


def _table_legendre(z, d, p):
    t = np.empty((z.size, d + 1))
    powers = np.empty((z.size, d + 1))
    powers[:, 0] = 1.0
    for i in range(1, d + 1):
        powers[:, i] = powers[:, i - 1] * z
    for n in range(d + 1):
        acc = np.zeros(z.size)
        for k in range(n // 2 + 1):
            coef = (-1.0) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n) / 2.0**n
            acc += coef * powers[:, n - 2 * k]
        t[:, n] = acc
    return t


def _table_charlier(z, d, p):
    a = p["a"]
    ff = _falling_table(z, d)
    t = np.empty((z.size, d + 1))
    for n in range(d + 1):
        acc = np.zeros(z.size)
        for i in range(n + 1):
            acc += math.comb(n, i) * ff[:, i] * (-a) ** (n - i)
        t[:, n] = acc
    return t


def _table_krawtchouk(z, d, p):
    q, N = p["p"], int(p["n"])
    ff_z = _falling_table(z, d)
    ff_nz = _falling_table(N - z, d)
    t = np.empty((z.size, d + 1))
    for n in range(d + 1):
        acc = np.zeros(z.size)
        for i in range(n + 1):
            c1 = ff_nz[:, n - i] / math.factorial(n - i)
            c2 = ff_z[:, i] / math.factorial(i)
            acc += (-1.0) ** (n - i) * c1 * c2 * q ** (n - i) * (1.0 - q) ** i
        t[:, n] = acc
    return t


def _table_meixner(z, d, p):
    c, b = p["c"], p["beta"]
    t = np.empty((z.size, d + 1))
    t[:, 0] = 1.0
    if d >= 1:
        t[:, 1] = ((c - 1.0) * z + c * b) / (c * b)
    for n in range(1, d):
        t[:, n + 1] = (((c - 1.0) * z + n + c * (n + b)) * t[:, n] - n * t[:, n - 1]) / (
            c * (n + b)
        )
    return t


def _table_hahn(z, d, p):
    a, b, N = p["alpha"], p["beta"], int(p["n"])
    t = np.empty((z.size, d + 1))
    t[:, 0] = 1.0
    prev = np.zeros(z.size)
    for n in range(d):
        A = (n + a + b + 1.0) * (n + a + 1.0) * (N - n) / (
            (2.0 * n + a + b + 1.0) * (2.0 * n + a + b + 2.0)
        )
        C = n * (n + a + b + N + 1.0) * (n + b) / (
            (2.0 * n + a + b) * (2.0 * n + a + b + 1.0)
        ) if n > 0 else 0.0
        if A == 0.0:
            raise ParameterError(f"degree: hahn recurrence degenerate at degree {n + 1}")
        cur = t[:, n]
        t[:, n + 1] = ((A + C - z) / A) * cur - (C / A) * prev
        prev = cur
    return t


def _table_gram_schmidt(z, d, family: PolynomialFamily):
    coeffs = family.gs_coeffs
    t = np.empty((z.size, d + 1))
    t[:, 0] = 1.0
    zp = np.ones(z.size)
    for n in range(1, d + 1):
        zp = zp * z
        t[:, n] = zp - t[:, :n] @ coeffs[n, :n]
    return t


_TABLES = {
    "hermite": _table_hermite,
    "laguerre": _table_laguerre,
    "jacobi": _table_jacobi,
    "legendre": _table_legendre,
    "charlier": _table_charlier,
    "krawtchouk": _table_krawtchouk,
    "meixner": _table_meixner,
    "hahn": _table_hahn,
}


def eval_table(family: PolynomialFamily, zeta: np.ndarray, max_degree: int) -> np.ndarray:
    """Values F_n(zeta_t) for all degrees n = 0..max_degree, shape (T, max_degree+1)."""
    if max_degree < 0:
        raise ParameterError(f"degree: must be >= 0, got {max_degree}")
    if max_degree > family.max_degree:
        raise ParameterError(
            f"degree: {max_degree} exceeds family max degree {family.max_degree}"
        )
    z = np.asarray(zeta, dtype=float).ravel()
    if family.kind == "gram_schmidt":
        return _table_gram_schmidt(z, max_degree, family)
    return _TABLES[family.kind](z, max_degree, family.params)


def fit_gram_schmidt(samples: np.ndarray, max_degree: int) -> PolynomialFamily:
    """Build a data-driven orthogonal basis on the given samples.

    Modified Gram-Schmidt with a second re-projection pass; the accumulated
    coefficients are stored so the basis can be evaluated on new points. The
    classical single-pass projection formula is equivalent in exact arithmetic
    but loses orthogonality at high degree.
    """
    x = np.asarray(samples, dtype=float).ravel()
    T = x.size
    if max_degree < 1:
        raise ParameterError(f"max_degree: must be >= 1, got {max_degree}")
    if T <= max_degree:
        raise ParameterError(f"samples: need more than {max_degree} samples, got {T}")
    psi = np.empty((T, max_degree + 1))
    psi[:, 0] = 1.0
    coeffs = np.zeros((max_degree + 1, max_degree + 1))
    zp = np.ones(T)
    norms_sq = np.empty(max_degree + 1)
    norms_sq[0] = float(T)
    for n in range(1, max_degree + 1):
        zp = zp * x
        v = zp.copy()
        raw_norm = float(np.linalg.norm(v))
        w = v.copy()
        for _ in range(2):
            for i in range(n):
                c = float(psi[:, i] @ w) / norms_sq[i]
                w -= c * psi[:, i]
                coeffs[n, i] += c
        res_norm = float(np.linalg.norm(w))
        if raw_norm == 0.0 or res_norm <= 1e-12 * raw_norm:
            raise DegeneracyError(n)
        psi[:, n] = w
        norms_sq[n] = res_norm**2
    return PolynomialFamily(kind="gram_schmidt", gs_coeffs=coeffs)


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


@dataclass(frozen=True, eq=False)
class TargetSeries:
    """A unit-norm target over a window, with its pre-normalization norm."""

    values: np.ndarray
    spec: ChaosSpec
    norm: float


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


def build_target(
    spec: ChaosSpec,
    family: PolynomialFamily,
    zeta: np.ndarray,
    window: tuple[int, int],
) -> TargetSeries:
    """Evaluate one chaos target over window [start, end) of the input stream.

    The value at window time t is the product of F_n(zeta[t - s]) over the
    spec's terms, times cos/sin(k * 2 pi * (t - start) / T) if a temporal
    factor is present, normalized to unit Euclidean norm.
    """
    z = np.asarray(zeta, dtype=float).ravel()
    start, end = int(window[0]), int(window[1])
    T = end - start
    if T < 2:
        raise WindowError(f"window: length must be >= 2, got {T}")
    if start < spec.max_delay:
        raise WindowError(
            f"window: start {start} leaves no room for delay {spec.max_delay}"
        )
    if end - 1 > z.size:
        raise ShapeError(f"window: end {end} exceeds input length {z.size} + 1")
    table = eval_table(family, z, max(n for _, n in spec.terms)).T
    values = np.empty(T)
    norm = _fill_target(values, spec, table, start, partial(_time_factor, T))
    if not 0.0 < norm < math.inf:
        raise DegenerateTargetError(f"target {spec.label()} has norm {norm}")
    return TargetSeries(values=values, spec=spec, norm=norm)
