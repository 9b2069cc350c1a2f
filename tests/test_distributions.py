"""Sampler determinism, support membership, moments, and input shaping."""

import math

import numpy as np
import pytest

from ipcap import (
    DistributionSpec,
    InputShaping,
    ParameterError,
    analytic_moments,
    sample_stream,
    shape_input,
)
from ipcap.distributions import LAWS

KINDS = tuple(LAWS)
DISCRETE = ("poisson", "binomial", "negative_binomial", "hypergeometric", "zipf", "bernoulli")


@pytest.mark.parametrize("kind", KINDS)
def test_determinism(kind):
    spec = DistributionSpec(kind=kind)
    a = sample_stream(spec, 512, seed=42)
    b = sample_stream(spec, 512, seed=42)
    c = sample_stream(spec, 512, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", KINDS)
def test_support_membership(kind):
    spec = DistributionSpec(kind=kind)
    vals = sample_stream(spec, 5000, seed=7)
    lo, hi = spec.support
    assert np.all(vals >= lo - 1e-12)
    assert np.all(vals <= hi + 1e-12)
    if kind in DISCRETE:
        assert np.array_equal(vals, np.round(vals))


def test_bernoulli_values_are_binary():
    vals = sample_stream(DistributionSpec(kind="bernoulli"), 100, seed=0)
    assert set(np.unique(vals)) <= {0.0, 1.0}


@pytest.mark.parametrize("kind", KINDS)
def test_moments_within_five_standard_errors(kind):
    n = 100_000
    spec = DistributionSpec(kind=kind)
    vals = sample_stream(spec, n, seed=11)
    mean, var = analytic_moments(spec)
    emp_mean = float(vals.mean())
    emp_var = float(vals.var())
    se_mean = math.sqrt(var / n)
    assert abs(emp_mean - mean) <= 5.0 * se_mean
    # standard error of the variance from the empirical fourth central
    # moment; the small relative cushion absorbs the ddof=0 bias and the
    # zero-kurtosis-excess corner (bernoulli at p=0.5)
    m4 = float(np.mean((vals - emp_mean) ** 4))
    se_var = math.sqrt(max(m4 - emp_var**2, 0.0) / n)
    assert abs(emp_var - var) <= 5.0 * se_var + 1e-3 * var


def test_uniform_mean_clt_bound():
    vals = sample_stream(DistributionSpec(kind="uniform"), 100_000, seed=3)
    assert abs(vals.mean()) <= 4.0 * (1.0 / math.sqrt(3.0)) / math.sqrt(100_000)


def test_poisson_mean_clt_bound():
    vals = sample_stream(DistributionSpec(kind="poisson"), 100_000, seed=3)
    assert abs(vals.mean() - 6.0) <= 4.0 * math.sqrt(6.0) / math.sqrt(100_000)


def test_shape_input_identity():
    out = shape_input(np.array([1.0, -1.0]), InputShaping(mu=0.0, kappa=1.0))
    assert np.array_equal(out, [1.0, -1.0])


def test_shape_input_asymmetric_range():
    sh = InputShaping.asymmetric(0.45)
    out = shape_input(np.array([1.0, -1.0]), sh)
    assert out == pytest.approx([0.45, 0.0], abs=1e-15)


def test_shape_input_limit_cycle_values():
    out = shape_input(np.array([0.5]), InputShaping(mu=0.2, kappa=1.5))
    assert out == pytest.approx([0.95], abs=1e-15)


def test_shaping_classmethods():
    assert InputShaping.symmetric(0.4) == InputShaping(mu=0.0, kappa=0.4)
    assert InputShaping.asymmetric(0.4) == InputShaping(mu=0.2, kappa=0.2)


def test_shaping_roundtrip():
    sh = InputShaping(mu=0.1, kappa=0.3)
    assert InputShaping.from_dict(sh.to_dict()) == sh


@pytest.mark.parametrize(
    "kind, params, field",
    [
        ("gamma", {"alpha": -2.0}, "alpha"),
        ("beta", {"beta": -1.5}, "beta"),
        ("uniform", {"low": 1.0, "high": -1.0}, "low"),
        ("poisson", {"a": 0.0}, "a"),
        ("binomial", {"p": 1.5}, "p"),
        ("binomial", {"n": 0}, "n"),
        ("negative_binomial", {"c": 1.0}, "c"),
        ("hypergeometric", {"draws": 0}, "draws"),
        ("pareto", {"shape": 2.0}, "shape"),
        ("zipf", {"s": 0.0}, "s"),
        ("zipf", {"k_max": 1}, "k_max"),
        ("bernoulli", {"p": -0.1}, "p"),
        # integer parameters are not truncated
        ("binomial", {"n": 2.5}, "n"),
        ("hypergeometric", {"m": 100.7}, "m"),
        ("zipf", {"k_max": 9.9}, "k_max"),
    ],
)
def test_parameter_errors_name_field(kind, params, field):
    with pytest.raises(ParameterError, match=field):
        DistributionSpec(kind=kind, params=params)


def test_unknown_kind_rejected():
    with pytest.raises(ParameterError, match="unknown distribution"):
        DistributionSpec(kind="cauchy")


def test_unknown_param_rejected():
    with pytest.raises(ParameterError, match="bogus"):
        DistributionSpec(kind="gaussian", params={"bogus": 1.0})


def test_mixed_gaussian_component_validation():
    with pytest.raises(ParameterError, match="component"):
        DistributionSpec(kind="mixed_gaussian", params={"components": ((1.0, 0.0, -1.0),)})


def test_spec_dict_roundtrip():
    for kind in KINDS:
        spec = DistributionSpec(kind=kind)
        again = DistributionSpec.from_dict(spec.to_dict())
        assert again == spec


def test_count_must_be_positive():
    with pytest.raises(ParameterError, match="count"):
        sample_stream(DistributionSpec(kind="uniform"), 0, seed=0)


@pytest.mark.parametrize(
    "kind, params, points",
    [
        ("bernoulli", {}, 2),
        ("zipf", {"k_max": 7}, 7),
        ("binomial", {"n": 4}, 5),
        ("hypergeometric", {"m": 3, "n": 1, "draws": 3}, 2),  # support 2 .. 3
        ("poisson", {}, None),
        ("uniform", {}, None),
    ],
)
def test_support_points_counts_the_values_a_law_takes(kind, params, points):
    spec = DistributionSpec(kind=kind, params=params)
    if points is None:
        assert spec.support_points == np.inf
    else:
        assert spec.support_points == points
        assert np.unique(sample_stream(spec, 5000, seed=3)).size == points
