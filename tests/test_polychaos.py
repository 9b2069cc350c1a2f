"""Polynomial family values, Gram-Schmidt fitting, enumeration, and targets."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ipcap import (
    ChaosSpec,
    DegeneracyError,
    DegenerateTargetError,
    DistributionSpec,
    InputShaping,
    ParameterError,
    PolynomialFamily,
    ShapeError,
    WindowError,
    build_target,
    enumerate_chaos,
    eval_table,
    fit_gram_schmidt,
    get_preset,
    preset_names,
    sample_stream,
    shape_input,
)
from ipcap.distributions import LAWS


def eval_univariate(family, degree, zeta):
    """Single polynomial value F_degree(zeta)."""
    table = eval_table(family, np.array([zeta], dtype=float), degree)
    return float(table[0, degree])


# frozen closed-form values: P2(0.5) = (3z^2-1)/2, H3(2) = z^3-3z,
# C1(6; a=6) = z-a, L1^(1)(0.5) = 2-z, P1^(-1/4,-1/4)(0.5) = 3z/4,
# K1(3; 0.5, 10) = -(N-z)p + z(1-p), M1(2.5; 0.2, 10) = ((c-1)z + cb)/(cb),
# Q1(4; -101, -51, 20) = 1 - 3z/40
UNIVARIATE_ORACLE = [
    ("legendre", {}, 2, 0.5, -0.125),
    ("hermite", {}, 3, 2.0, 2.0),
    ("charlier", {"a": 6.0}, 1, 6.0, 0.0),
    ("laguerre", {"alpha": 1.0}, 1, 0.5, 1.5),
    ("jacobi", {"alpha": -0.25, "beta": -0.25}, 1, 0.5, 0.375),
    ("krawtchouk", {"p": 0.5, "n": 10}, 1, 3.0, -2.0),
    ("meixner", {"c": 0.2, "beta": 10.0}, 1, 2.5, 0.0),
    ("hahn", {"alpha": -101.0, "beta": -51.0, "n": 20}, 1, 4.0, 0.7),
]


@pytest.mark.parametrize("kind, params, degree, zeta, expected", UNIVARIATE_ORACLE)
def test_univariate_values(kind, params, degree, zeta, expected):
    family = PolynomialFamily(kind=kind, params=params)
    assert eval_univariate(family, degree, zeta) == pytest.approx(expected, abs=1e-12)


def test_degree_zero_is_one_for_every_family():
    kinds = [k for k, *_ in UNIVARIATE_ORACLE]
    for kind in kinds:
        family = PolynomialFamily(kind=kind)
        assert eval_univariate(family, 0, 1.7) == 1.0
    for dist_kind in ("mixed_gaussian", "pareto", "zipf", "bernoulli"):
        samples = sample_stream(DistributionSpec(kind=dist_kind), 4000, seed=1)
        family = fit_gram_schmidt(samples, 1)
        assert eval_univariate(family, 0, float(samples[0])) == 1.0


def test_degree_over_maximum_rejected():
    family = PolynomialFamily(kind="legendre")
    with pytest.raises(ParameterError, match="degree"):
        eval_univariate(family, family.max_degree + 1, 0.0)


def test_unknown_family_rejected():
    with pytest.raises(ParameterError, match="unknown polynomial family"):
        PolynomialFamily(kind="chebyshev")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("laguerre", {"alpha": -1.0}),
        ("jacobi", {"beta": -1.5}),
        ("charlier", {"a": 0.0}),
        ("krawtchouk", {"p": 1.0}),
        ("krawtchouk", {"n": 0}),
        ("krawtchouk", {"n": 2.5}),
        ("meixner", {"c": 1.0}),
        ("meixner", {"beta": 0.0}),
        ("hahn", {"n": 20.0}),
        ("hahn", {"alpha": "x"}),
        ("hermite", {"alpha": 1.0}),
        ("legendre", []),
    ],
)
def test_family_parameters_checked_against_weight(kind, params):
    with pytest.raises(ParameterError):
        PolynomialFamily(kind=kind, params=params)


def mean_over_rms(family, zeta, degree=8):
    """max over degrees 1..degree of |mean psi_n| / rms psi_n on the sample."""
    table = eval_table(family, zeta, degree)[:, 1:]
    return float(np.max(np.abs(table.mean(axis=0)) / np.sqrt((table**2).mean(axis=0))))


@pytest.mark.parametrize("law", [k for k, law in LAWS.items() if law.family != "gram_schmidt"])
def test_derived_family_is_orthogonal_under_its_law(law):
    # every psi_n, n >= 1, is orthogonal to psi_0 = 1, so its sample mean is
    # O(rms / sqrt(T)); this pins the Hahn map and every shared parameter name
    spec = DistributionSpec(kind=law)
    family = PolynomialFamily(**spec.family)
    assert mean_over_rms(family, sample_stream(spec, 100_000, seed=3)) <= 0.05


@pytest.mark.parametrize("law", [k for k, law in LAWS.items() if law.family != "gram_schmidt"])
def test_family_defaults_are_those_of_its_default_law(law):
    # a classical family takes its law's keys; Hahn declares its own defaults
    spec = DistributionSpec(kind=law)
    assert PolynomialFamily(kind=spec.family["kind"]).params == spec.family["params"]


@pytest.mark.parametrize(
    "law, shaping, family",
    [
        ({"kind": "gamma", "params": {"alpha": 4.0}}, None, {"kind": "laguerre", "params": {"alpha": 1.0}}),
        ({"kind": "gamma"}, None, {"kind": "hermite"}),
        # uniform on [0, 1]
        ({"kind": "uniform"}, InputShaping(mu=0.5, kappa=0.5), {"kind": "legendre"}),
        ({"kind": "poisson", "params": {"a": 3.0}}, None, {"kind": "charlier", "params": {"a": 6.0}}),
    ],
)
def test_mismatched_family_is_not_orthogonal(law, shaping, family):
    zeta = sample_stream(DistributionSpec.from_dict(law), 100_000, seed=3)
    if shaping is not None:
        zeta = shape_input(zeta, shaping)
    assert mean_over_rms(PolynomialFamily(**family), zeta) >= 0.5


def test_eval_table_matches_univariate():
    family = PolynomialFamily(kind="hermite")
    grid = np.linspace(-2.0, 2.0, 9)
    table = eval_table(family, grid, 5)
    for n in range(6):
        for z in (-2.0, 0.5, 2.0):
            i = int(np.argmin(np.abs(grid - z)))
            assert table[i, n] == pytest.approx(eval_univariate(family, n, grid[i]), rel=1e-12)


def test_gram_schmidt_uniform_degree_two_coefficients():
    samples = sample_stream(DistributionSpec(kind="uniform"), 100_000, seed=5)
    family = fit_gram_schmidt(samples, 2)
    # psi1 = z - alpha0 and psi2 = (z - alpha1) psi1 - beta1 psi0 = z^2 - 1/3 for the
    # exact uniform moments alpha0 = alpha1 = 0, beta1 = E[z^2] = 1/3
    (alpha0, _), (alpha1, beta1) = family.recurrence
    assert alpha0 == pytest.approx(0.0, abs=0.01)
    assert alpha1 == pytest.approx(0.0, abs=0.01)
    assert beta1 == pytest.approx(1.0 / 3.0, abs=0.01)


def preset_stream(name, shaped=False):
    """The full input stream of a bundled preset, washout included."""
    inp = get_preset(name).input
    spec = DistributionSpec(**inp["distribution"])
    zeta = sample_stream(spec, inp["washout"] + inp["T"], inp["seed"])
    return shape_input(zeta, InputShaping(**inp["shaping"])) if shaped else zeta


@pytest.mark.parametrize(
    "samples, degree, bound",
    [
        (lambda: sample_stream(DistributionSpec(kind="uniform"), 20_000, seed=9), 8, 1e-8),
        # the heavy-tailed stream the fig1a_pareto preset fits its basis to
        (lambda: preset_stream("fig1a_pareto", shaped=True), 8, 1e-13),
    ],
    ids=["uniform", "fig1a_pareto"],
)
def test_gram_schmidt_empirical_orthogonality(samples, degree, bound):
    samples = samples()
    family = fit_gram_schmidt(samples, degree)
    table = eval_table(family, samples, degree)
    norms = np.linalg.norm(table, axis=0)
    gram = table.T @ table
    off = gram / np.outer(norms, norms) - np.eye(degree + 1)
    assert np.max(np.abs(off)) <= bound


def classical_gram_schmidt_values(samples, max_degree):
    """Single-pass projection form, kept as an independent oracle."""
    T = samples.size
    psi = np.empty((T, max_degree + 1))
    psi[:, 0] = 1.0
    zp = np.ones(T)
    for n in range(1, max_degree + 1):
        zp = zp * samples
        v = zp.copy()
        for i in range(n):
            c = float(psi[:, i] @ zp) / float(psi[:, i] @ psi[:, i])
            v -= c * psi[:, i]
        psi[:, n] = v
    return psi


def test_gram_schmidt_matches_classical_form():
    samples = sample_stream(DistributionSpec(kind="uniform"), 20_000, seed=13)
    family = fit_gram_schmidt(samples, 5)
    prod = eval_table(family, samples, 5)
    oracle = classical_gram_schmidt_values(samples, 5)
    for n in range(6):
        scale = np.linalg.norm(oracle[:, n])
        assert np.linalg.norm(prod[:, n] - oracle[:, n]) <= 1e-8 * scale


def test_gram_schmidt_reproduces_legendre_up_to_scale():
    samples = sample_stream(DistributionSpec(kind="uniform"), 100_000, seed=17)
    family = fit_gram_schmidt(samples, 6)
    legendre = PolynomialFamily(kind="legendre")
    grid = np.linspace(-1.0, 1.0, 401)
    fitted = eval_table(family, grid, 6)
    exact = eval_table(legendre, grid, 6)
    for n in range(1, 7):
        scale = float(exact[:, n] @ fitted[:, n]) / float(exact[:, n] @ exact[:, n])
        resid = fitted[:, n] - scale * exact[:, n]
        assert np.linalg.norm(resid) <= 0.01 * np.linalg.norm(fitted[:, n])


def test_gram_schmidt_constant_samples_degenerate_at_one():
    with pytest.raises(DegeneracyError) as err:
        fit_gram_schmidt(np.full(100, 0.7), 3)
    assert err.value.degree == 1


def test_gram_schmidt_two_point_samples_degenerate_at_two():
    samples = sample_stream(DistributionSpec(kind="bernoulli"), 5000, seed=2)
    with pytest.raises(DegeneracyError) as err:
        fit_gram_schmidt(samples, 3)
    assert err.value.degree == 2


def test_gram_schmidt_needs_enough_samples():
    with pytest.raises(ParameterError, match="samples"):
        fit_gram_schmidt(np.arange(3.0), 3)


def test_krawtchouk_vanishes_above_n_and_hahn_stops_at_n_plus_one():
    params = {"p": 0.5, "n": 10}
    samples = sample_stream(DistributionSpec(kind="binomial", params=params), 5000, seed=4)
    table = eval_table(PolynomialFamily(kind="krawtchouk", params=params), samples, 12)
    assert np.all(table[:, 11:] == 0.0)
    with pytest.raises(ParameterError, match="degree 6"):
        eval_table(PolynomialFamily(kind="hahn", params={"n": 5}), np.arange(6.0), 6)


def falling(x, k):
    out = Fraction(1)
    for j in range(k):
        out *= x - j
    return out


# Exact values of each family at a rational point z, degrees 0..d, from explicit
# sums (legendre, laguerre, charlier, krawtchouk) or from the recurrence written
# as (num1 p_n - num2 p_{n-1}) / den or ((A + C - z) / A) p_n - (C / A) p_{n-1}
# (hermite, jacobi, meixner, hahn), so no coefficient is shared with eval_table.
def exact_legendre(z, d, p):
    return [
        sum(
            (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n) * z ** (n - 2 * k)
            for k in range(n // 2 + 1)
        )
        / Fraction(2) ** n
        for n in range(d + 1)
    ]


def exact_laguerre(z, d, p):
    a = p["alpha"]
    return [
        sum(
            (-1) ** i * falling(n + a, n - i) / math.factorial(n - i) / math.factorial(i) * z**i
            for i in range(n + 1)
        )
        for n in range(d + 1)
    ]


def exact_charlier(z, d, p):
    a = p["a"]
    return [
        sum(math.comb(n, i) * falling(z, i) * (-a) ** (n - i) for i in range(n + 1))
        for n in range(d + 1)
    ]


def exact_krawtchouk(z, d, p):
    q, N = p["p"], p["n"]
    return [
        sum(
            (-1) ** (n - i)
            * falling(N - z, n - i) / math.factorial(n - i)
            * falling(z, i) / math.factorial(i)
            * q ** (n - i) * (1 - q) ** i
            for i in range(n + 1)
        )
        for n in range(d + 1)
    ]


def exact_by_recurrence(step, first):
    def values(z, d, p):
        out = [Fraction(1), first(z, p)]
        for n in range(1, d):
            out.append(step(z, n, p, out[n], out[n - 1]))
        return out[: d + 1]

    return values


def hermite_step(z, n, p, cur, prev):
    return z * cur - n * prev


def jacobi_step(z, n, p, cur, prev):
    a, b = p["alpha"], p["beta"]
    g = 2 * n + a + b
    num1 = (g + 1) * (g * (g + 2) * z + a * a - b * b)
    num2 = 2 * (n + a) * (n + b) * (g + 2)
    return (num1 * cur - num2 * prev) / (2 * (n + 1) * (g - n + 1) * g)


def meixner_step(z, n, p, cur, prev):
    c, b = p["c"], p["beta"]
    return (((c - 1) * z + n + c * (n + b)) * cur - n * prev) / (c * (n + b))


def hahn_coefficients(n, p):
    a, b, N = p["alpha"], p["beta"], p["n"]
    A = (n + a + b + 1) * (n + a + 1) * (N - n) / ((2 * n + a + b + 1) * (2 * n + a + b + 2))
    C = n * (n + a + b + N + 1) * (n + b) / ((2 * n + a + b) * (2 * n + a + b + 1)) if n else 0
    return A, C


def hahn_step(z, n, p, cur, prev):
    A, C = hahn_coefficients(n, p)
    return (A + C - z) / A * cur - C / A * prev


EXACT = {
    "legendre": exact_legendre,
    "laguerre": exact_laguerre,
    "charlier": exact_charlier,
    "krawtchouk": exact_krawtchouk,
    "hermite": exact_by_recurrence(hermite_step, lambda z, p: z),
    "jacobi": exact_by_recurrence(
        jacobi_step,
        lambda z, p: ((p["alpha"] + p["beta"] + 2) * z + p["alpha"] - p["beta"]) / 2,
    ),
    "meixner": exact_by_recurrence(
        meixner_step, lambda z, p: ((p["c"] - 1) * z + p["c"] * p["beta"]) / (p["c"] * p["beta"])
    ),
    "hahn": exact_by_recurrence(hahn_step, lambda z, p: hahn_step(z, 0, p, Fraction(1), 0)),
}


@pytest.mark.parametrize("kind", list(EXACT))
def test_eval_table_matches_exact_arithmetic(kind):
    """Every classical family up to degree 12 on its matched preset's input sample.

    The bound is relative to each column's RMS over the sample: for a discrete
    law all distinct values weighted by their counts, for a continuous law 300
    random draws. The 200 largest |z| of a continuous law are checked against
    the same bound.
    """
    name = next(n for n in preset_names() if get_preset(n).sweep.get("family", {}).get("kind") == kind)
    zeta = preset_stream(name)
    points, weights = np.unique(zeta, return_counts=True)
    if points.size > 1000:
        rng = np.random.default_rng(0)
        largest = zeta[np.argsort(np.abs(zeta))[-200:]]
        points = np.concatenate([largest, rng.choice(zeta, 300, replace=False)])
        weights = np.repeat([0, 1], [200, 300])
    block = get_preset(name).sweep["family"]
    family = PolynomialFamily(kind=kind, params=block.get("params", {}))
    table = eval_table(family, points, 12)
    params = {k: Fraction(v) for k, v in family.params.items()}
    exact = np.array([[float(v) for v in EXACT[kind](Fraction(z), 12, params)] for z in points])
    rms = np.sqrt(weights @ exact**2 / weights.sum())
    assert np.all(np.abs(table - exact) <= 1e-12 * rms)


def test_enumerate_small_set():
    specs = enumerate_chaos(2, 2)
    labels = [s.label() for s in specs]
    assert labels == ["1@1", "1@2", "2@1", "1@1*1@2", "2@2"]


def test_enumerate_single():
    assert [s.label() for s in enumerate_chaos(1, 1)] == ["1@1"]


def test_enumerate_count_formula():
    # sum over degrees d of C(S + d - 1, d) multisets
    specs = enumerate_chaos(4, 9)
    assert len(specs) == 9 + 45 + 165 + 495 == 714


def test_enumerate_deterministic_and_sorted():
    a = enumerate_chaos(3, 5)
    b = enumerate_chaos(3, 5)
    assert a == b
    orders = [s.total_degree for s in a]
    assert orders == sorted(orders)


def test_enumerate_temporal_cross_product():
    base = enumerate_chaos(2, 2)
    crossed = enumerate_chaos(2, 2, temporal=[1, 3])
    assert len(crossed) == len(base) * 5
    assert crossed[: len(base)] == base
    kinds = {spec.temporal for spec in crossed[len(base):]}
    assert kinds == {(1, "cos"), (1, "sin"), (3, "cos"), (3, "sin")}


def test_enumerate_degree_per_var_cap():
    specs = enumerate_chaos(3, 3, max_degree_per_var=1)
    assert all(n == 1 for s in specs for _, n in s.terms)
    assert "3@1" not in [s.label() for s in specs]


def test_chaos_spec_validation():
    with pytest.raises(ParameterError, match="increasing"):
        ChaosSpec(terms=((2, 1), (1, 1)))
    with pytest.raises(ParameterError, match="degrees"):
        ChaosSpec(terms=((1, 0),))
    with pytest.raises(ParameterError, match="delays"):
        ChaosSpec(terms=((0, 1),))
    with pytest.raises(ParameterError, match="harmonic"):
        ChaosSpec(terms=((1, 1),), temporal=(0, "cos"))
    with pytest.raises(ParameterError, match="phase"):
        ChaosSpec(terms=((1, 1),), temporal=(1, "tan"))


def test_label_roundtrip():
    for spec in (
        ChaosSpec(terms=((1, 1), (10, 1))),
        ChaosSpec(terms=((3, 2),), temporal=(4, "sin")),
        ChaosSpec(terms=((2, 5),)),
    ):
        assert ChaosSpec.from_label(spec.label()) == spec


def test_build_target_first_degree_is_shifted_input():
    zeta = np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    target = build_target(
        ChaosSpec(terms=((1, 1),)), PolynomialFamily(kind="legendre"), zeta, (2, 6)
    )
    expected = zeta[1:5]
    assert np.allclose(target.values, expected / np.linalg.norm(expected))
    assert target.norm == pytest.approx(np.linalg.norm(expected))


def test_build_target_cross_term_is_product():
    rng = np.random.default_rng(0)
    zeta = rng.uniform(-1.0, 1.0, 200)
    target = build_target(
        ChaosSpec(terms=((1, 1), (10, 1))), PolynomialFamily(kind="legendre"), zeta, (10, 200)
    )
    t = np.arange(10, 200)
    expected = zeta[t - 1] * zeta[t - 10]
    assert np.allclose(target.values, expected / np.linalg.norm(expected))


def test_build_target_temporal_factor():
    zeta = np.ones(8)
    target = build_target(
        ChaosSpec(terms=((1, 1),), temporal=(1, "cos")),
        PolynomialFamily(kind="legendre"),
        zeta,
        (2, 6),
    )
    assert target.norm == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert np.allclose(target.values, np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0), atol=1e-12)


def test_build_target_window_errors():
    zeta = np.zeros(50)
    family = PolynomialFamily(kind="legendre")
    with pytest.raises(WindowError, match="delay"):
        build_target(ChaosSpec(terms=((5, 1),)), family, zeta, (3, 20))
    with pytest.raises(WindowError, match="length"):
        build_target(ChaosSpec(terms=((1, 1),)), family, zeta, (5, 6))
    with pytest.raises(ShapeError, match="exceeds"):
        build_target(ChaosSpec(terms=((1, 1),)), family, zeta, (10, 60))


def test_build_target_degenerate_norm():
    with pytest.raises(DegenerateTargetError):
        build_target(
            ChaosSpec(terms=((1, 1),)), PolynomialFamily(kind="legendre"), np.zeros(100), (5, 80)
        )


def test_chaos_pairs_empirically_orthonormal():
    T = 100_000
    zeta = sample_stream(DistributionSpec(kind="uniform"), T, seed=23)
    family = PolynomialFamily(kind="legendre")
    window = (15, T)
    specs = [
        ChaosSpec(terms=((1, 1),)),
        ChaosSpec(terms=((3, 1),)),
        ChaosSpec(terms=((2, 2),)),
        ChaosSpec(terms=((1, 1), (2, 1))),
        ChaosSpec(terms=((1, 3),)),
    ]
    values = [build_target(s, family, zeta, window).values for s in specs]
    bound = 5.0 / math.sqrt(window[1] - window[0])
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert abs(float(values[i] @ values[j])) <= bound


def test_temporal_factors_orthogonal_across_harmonics():
    T = 100_000
    zeta = sample_stream(DistributionSpec(kind="uniform"), T, seed=29)
    family = PolynomialFamily(kind="legendre")
    window = (10, T)
    specs = [
        ChaosSpec(terms=((1, 1),), temporal=(3, "cos")),
        ChaosSpec(terms=((1, 1),), temporal=(5, "cos")),
        ChaosSpec(terms=((1, 1),), temporal=(3, "sin")),
    ]
    values = [build_target(s, family, zeta, window).values for s in specs]
    bound = 5.0 / math.sqrt(window[1] - window[0])
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert abs(float(values[i] @ values[j])) <= bound
