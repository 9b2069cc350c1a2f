"""Polynomial family values, Gram-Schmidt fitting, enumeration, and targets."""

import math

import numpy as np
import pytest

from ipcap import (
    ChaosSpec,
    DegeneracyError,
    DegenerateTargetError,
    DistributionSpec,
    ParameterError,
    PolynomialFamily,
    ShapeError,
    WindowError,
    build_target,
    enumerate_chaos,
    eval_table,
    fit_gram_schmidt,
    sample_stream,
)


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
    # psi2 = z^2 - c20 - c21 psi1 with exact uniform moments c20 = 1/3, c21 = 0
    assert family.gs_coeffs[2, 0] == pytest.approx(1.0 / 3.0, abs=0.01)
    assert family.gs_coeffs[2, 1] == pytest.approx(0.0, abs=0.01)
    assert family.gs_coeffs[1, 0] == pytest.approx(0.0, abs=0.01)


def test_gram_schmidt_empirical_orthogonality():
    samples = sample_stream(DistributionSpec(kind="uniform"), 20_000, seed=9)
    family = fit_gram_schmidt(samples, 8)
    table = eval_table(family, samples, 8)
    norms = np.linalg.norm(table, axis=0)
    gram = table.T @ table
    off = gram / np.outer(norms, norms) - np.eye(9)
    assert np.max(np.abs(off)) <= 1e-8


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
