"""SVD decomposition, capacity values, thresholds, detrending, and sweeps."""

import importlib
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ipcap import (
    ChaosSpec,
    DataError,
    DistributionSpec,
    ParameterError,
    PolynomialFamily,
    ShapeError,
    StateMatrix,
    ThresholdConfig,
    capacity_sweep,
    decompose,
    detrend,
    enumerate_chaos,
)
import ipcap.capacity
from ipcap.capacity import SvdBasis, _capacities, _panel_keep, _screen_constants
from ipcap.distributions import sample_stream
from ipcap.polychaos import _crossed
from oracles import literal_capacity, literal_target, surrogate_threshold


def unit_target(values):
    values = np.asarray(values, dtype=float)
    return values / float(np.linalg.norm(values))


def capacity(basis, phi):
    """The capacity of one unit-norm target through the kernel that the sweep and the panel share."""
    return float(_capacities(phi[None, :], basis.P)[0])


def regression_capacity(X, z):
    """Least-squares emulation score, the oracle for the projection form."""
    w, *_ = np.linalg.lstsq(X, z, rcond=None)
    resid = z - X @ w
    return 1.0 - float(resid @ resid) / float(z @ z)


def test_state_matrix_validation():
    with pytest.raises(DataError, match="more rows"):
        StateMatrix(np.zeros((3, 5)))
    with pytest.raises(DataError, match="non-finite"):
        StateMatrix(np.array([[1.0], [np.nan], [2.0]]))
    one_d = StateMatrix(np.arange(4.0))
    assert one_d.data.shape == (4, 1)
    with pytest.raises(DataError, match="labels"):
        StateMatrix(np.zeros((5, 2)), labels=("a",))


def test_decompose_rank_one():
    state = StateMatrix(np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]))
    assert decompose(state).rank == 1


def test_decompose_orthogonal_columns():
    X = np.vstack([np.eye(3), np.zeros((2, 3))])
    basis = decompose(StateMatrix(X))
    assert basis.rank == 3
    assert np.allclose(basis.sigma, 1.0)


def test_decompose_reconstructs():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 6))
    basis = decompose(StateMatrix(X))
    recon = basis.P @ np.diag(basis.sigma) @ basis.Q.T
    assert np.linalg.norm(recon - X) <= 1e-8 * np.linalg.norm(X)
    assert np.allclose(basis.P.T @ basis.P, np.eye(basis.rank), atol=1e-10)


def test_decompose_rank_tol_range():
    state = StateMatrix(np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(ParameterError, match="rank_tol"):
        decompose(state, rank_tol=2.0)


def test_capacity_perfect_emulation():
    z = np.array([0.3, -1.0, 0.7, 0.1, -0.4])
    basis = decompose(StateMatrix(z[:, None]))
    assert capacity(basis, unit_target(z)) == pytest.approx(1.0, abs=1e-12)


def test_capacity_orthogonal_target():
    basis = decompose(StateMatrix(np.array([[1.0], [1.0], [-1.0], [-1.0]])))
    assert capacity(basis, unit_target([1.0, -1.0, 1.0, -1.0])) == pytest.approx(
        0.0, abs=1e-12
    )


def test_capacity_hand_value():
    # C = (z.x)^2 / (|x|^2 |z|^2) = 4 / 8
    basis = decompose(StateMatrix(np.array([[1.0], [1.0], [-1.0], [-1.0]])))
    assert capacity(basis, unit_target([1.0, 0.0, -1.0, 0.0])) == pytest.approx(0.5)


def test_projection_matches_regression_form():
    rng = np.random.default_rng(7)
    for _ in range(50):
        X = rng.normal(size=(8, 3))
        z = rng.normal(size=8)
        basis = decompose(StateMatrix(X))
        got = capacity(basis, unit_target(z))
        assert got == pytest.approx(regression_capacity(X, z / np.linalg.norm(z)), abs=1e-8)
        assert -1e-12 <= got <= 1.0 + 1e-8


def test_capacity_invariant_under_column_recombination():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(30, 4))
    z = rng.normal(size=30)
    target = unit_target(z)
    base = capacity(decompose(StateMatrix(X)), target)
    for _ in range(5):
        M = rng.normal(size=(4, 4))
        while np.linalg.cond(M) > 1e4:
            M = rng.normal(size=(4, 4))
        mixed = capacity(decompose(StateMatrix(X @ M)), target)
        assert mixed == pytest.approx(base, abs=1e-8)


def test_threshold_config_validation():
    with pytest.raises(ParameterError, match="n_surrogates"):
        ThresholdConfig(n_surrogates=5)
    with pytest.raises(ParameterError, match="significance_pct"):
        ThresholdConfig(significance_pct=0.0)
    with pytest.raises(ParameterError, match="factor"):
        ThresholdConfig(factor=0.0)
    # 200 surrogates at 1% -> threshold is twice the largest surrogate value
    assert ThresholdConfig().quantile_index() == 1


def test_surrogate_threshold_keeps_true_signal():
    rng = np.random.default_rng(3)
    z = rng.normal(size=400)
    basis = decompose(StateMatrix(z[:, None]))
    target = unit_target(z)
    eps = surrogate_threshold(basis, target, seed=5)
    assert capacity(basis, target) == pytest.approx(1.0, abs=1e-12)
    assert eps < 0.2


def test_surrogate_threshold_zeroes_noise():
    rng = np.random.default_rng(4)
    basis = decompose(StateMatrix(rng.normal(size=(400, 3))))
    target = unit_target(rng.normal(size=400))
    raw = capacity(basis, target)
    eps = surrogate_threshold(basis, target, seed=6)
    assert raw <= eps


def test_surrogate_threshold_deterministic():
    rng = np.random.default_rng(5)
    basis = decompose(StateMatrix(rng.normal(size=(100, 2))))
    target = unit_target(rng.normal(size=100))
    a = surrogate_threshold(basis, target, seed=9)
    b = surrogate_threshold(basis, target, seed=9)
    assert a == b


def test_detrend_constant_column():
    state = StateMatrix(np.full((10, 1), 3.7))
    out = detrend(state, 0)
    assert np.allclose(out.data, 0.0)
    assert out.meta["detrend"]["means"] == [pytest.approx(3.7)]


def test_detrend_removes_exact_harmonic():
    T = 256
    t = np.arange(T)
    col = np.cos(2.0 * math.pi * 5.0 * t / T + 0.3)
    out = detrend(StateMatrix(col[:, None]), 1)
    assert np.linalg.norm(out.data) <= 1e-6 * np.linalg.norm(col)
    comp = out.meta["detrend"]["components"][0][0]
    assert comp["frequency"] == pytest.approx(5.0 / T)
    assert comp["amplitude"] == pytest.approx(1.0, abs=1e-6)


def test_detrend_mean_only_keeps_harmonics():
    T = 128
    col = np.sin(2.0 * math.pi * 3.0 * np.arange(T) / T)
    out = detrend(StateMatrix(col[:, None]), 0)
    assert np.linalg.norm(out.data) == pytest.approx(np.linalg.norm(col), rel=1e-9)


def test_mean_only_detrend_equals_the_per_column_subtraction():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(1000, 7)) * rng.uniform(0.1, 10.0, 7) + rng.uniform(-5.0, 5.0, 7)
    out = detrend(StateMatrix(X), 0)
    means = [float(X[:, j].mean()) for j in range(7)]
    assert out.meta["detrend"] == {"means": means, "components": [[] for _ in range(7)]}
    for j in range(7):
        assert np.array_equal(out.data[:, j], X[:, j] - means[j])


def test_detrend_validation():
    with pytest.raises(ParameterError, match="max_harmonics"):
        detrend(StateMatrix(np.arange(8.0)), -1)
    with pytest.raises(DataError, match="T >= 4"):
        detrend(StateMatrix(np.arange(3.0).reshape(3, 1)), 0)


def make_delay_line_state(zeta):
    """State row i equals the input at index i (the freshest delay-1 value)."""
    return StateMatrix(np.asarray(zeta)[:, None])


def test_memory_function_delay_line():
    zeta = sample_stream(DistributionSpec(kind="uniform"), 700, seed=31)
    # default end-aligned window pairs state row i with input zeta[100 + i]
    basis = decompose(make_delay_line_state(zeta[100:]))
    specs = [ChaosSpec(terms=((s, 1),)) for s in range(1, 6)]
    report = capacity_sweep(basis, specs, PolynomialFamily(kind="legendre"), zeta, threshold=ThresholdConfig())
    caps = {ChaosSpec.from_label(e.spec).max_delay: e.thresholded_capacity for e in report.entries}
    assert sorted(caps) == [1, 2, 3, 4, 5]
    assert caps[1] == pytest.approx(1.0, abs=1e-10)
    assert all(caps[s] == 0.0 for s in (2, 3, 4, 5))


def test_tipc_spectrum_peaks_at_construction_harmonic():
    T, k = 1000, 7
    zeta = sample_stream(DistributionSpec(kind="uniform"), T, seed=37)
    t = np.arange(T)
    state = StateMatrix((zeta * np.cos(2.0 * math.pi * k * t / T))[:, None])
    specs = _crossed([ChaosSpec(terms=((1, 1),))], range(1, 11))
    report = capacity_sweep(decompose(state), specs, PolynomialFamily(kind="legendre"), zeta)
    caps = {e.spec: e.thresholded_capacity for e in report.entries}
    by_harmonic = {h: (caps[f"1@1*cos@{h}"], caps[f"1@1*sin@{h}"]) for h in range(1, 11)}
    assert by_harmonic[k][0] == pytest.approx(1.0, abs=1e-6)
    others = [c for h, (c, s) in by_harmonic.items() if h != k]
    assert max(others) < 0.02


def test_sweep_reports_skipped_targets():
    zeta = sample_stream(DistributionSpec(kind="uniform"), 200, seed=41)
    basis = decompose(make_delay_line_state(zeta[100:]))
    specs = [ChaosSpec(terms=((1, 1),)), ChaosSpec(terms=((150, 1),))]
    report = capacity_sweep(
        basis, specs, PolynomialFamily(kind="legendre"), zeta, window=(101, 201)
    )
    assert len(report.entries) == 1
    assert report.skipped[0][0] == "1@150"
    assert "delay" in report.skipped[0][1]


def test_sweep_zero_state_reports_zero_everywhere():
    zeta = sample_stream(DistributionSpec(kind="uniform"), 300, seed=43)
    basis = decompose(StateMatrix(np.zeros((300, 2))))
    assert basis.rank == 0
    report = capacity_sweep(
        basis,
        enumerate_specs_small(),
        PolynomialFamily(kind="legendre"),
        zeta,
        threshold=ThresholdConfig(),
    )
    assert report.total == 0.0
    assert all(e.raw_capacity == 0.0 for e in report.entries)


def enumerate_specs_small():
    from ipcap import enumerate_chaos

    return enumerate_chaos(2, 3)


def test_sweep_totals_and_ordering():
    zeta = sample_stream(DistributionSpec(kind="uniform"), 2000, seed=47)
    basis = decompose(make_delay_line_state(zeta))
    report = capacity_sweep(
        basis,
        enumerate_specs_small(),
        PolynomialFamily(kind="legendre"),
        zeta,
        threshold=ThresholdConfig(),
    )
    assert report.total == pytest.approx(
        math.fsum(v for v in report.per_order_totals.values())
    )
    assert report.total == pytest.approx(
        math.fsum(e.thresholded_capacity for e in report.entries)
    )
    for e in report.entries:
        assert e.thresholded_capacity in (0.0, e.raw_capacity)
        assert -1e-12 <= e.raw_capacity <= 1.0 + 1e-8
    orders = [e.order for e in report.entries]
    assert orders == sorted(orders)


def test_sweep_matches_single_target_path():
    zeta = sample_stream(DistributionSpec(kind="uniform"), 1500, seed=53)
    rng = np.random.default_rng(59)
    state = StateMatrix(np.column_stack([zeta, rng.normal(size=1500)]))
    basis = decompose(state)
    family = PolynomialFamily(kind="legendre")
    specs = [ChaosSpec(terms=((1, 1),)), ChaosSpec(terms=((2, 2),))]
    report = capacity_sweep(basis, specs, family, zeta)
    for spec, entry in zip(specs, sorted(report.entries, key=lambda e: e.order)):
        phi = literal_target(spec, family, zeta, 1, 1500)
        assert entry.raw_capacity == pytest.approx(literal_capacity(basis, phi), abs=1e-12)

    # Several chunks of 3 targets. T = 600 rows end-aligned on 610 inputs puts
    # the window start at 11. zeta[0] is NaN, so the delay-11 target is
    # degenerate; delay 12 does not fit the window.
    zeta = sample_stream(DistributionSpec(kind="uniform"), 610, seed=53)
    zeta[0] = np.nan
    rng = np.random.default_rng(59)
    lagged = [zeta[11 - s : 611 - s] for s in (1, 2, 3)]
    state = StateMatrix(np.column_stack(lagged + [lagged[0] * lagged[1], rng.normal(size=600)]))
    basis = decompose(state)
    family = PolynomialFamily(kind="legendre")
    specs = [
        ChaosSpec(terms=((1, 1),)),
        ChaosSpec(terms=((2, 1), (11, 1))),  # degenerate, mid-chunk
        ChaosSpec(terms=((1, 1),), temporal=(3, "cos")),
        ChaosSpec(terms=((1, 1), (2, 1))),
        ChaosSpec(terms=((12, 1),)),  # skipped, mid-chunk
        ChaosSpec(terms=((3, 2),), temporal=(5, "sin")),
        ChaosSpec(terms=((2, 2),)),
        ChaosSpec(terms=((1, 1), (3, 3)), temporal=(1, "cos")),
        ChaosSpec(terms=((3, 1),)),
    ]
    kept = [spec for i, spec in enumerate(specs) if i not in (1, 4)]
    for threshold in (None, ThresholdConfig()):
        report = capacity_sweep(basis, specs, family, zeta, threshold=threshold, batch=3)
        assert [label for label, _ in report.skipped] == [specs[1].label(), specs[4].label()]
        assert "degenerate" in report.skipped[0][1] and "delay" in report.skipped[1][1]
        raws = {e.spec: e.raw_capacity for e in report.entries}
        assert sorted(raws) == sorted(spec.label() for spec in kept)
        for spec in kept:
            phi = literal_target(spec, family, zeta, 11, 600)
            assert raws[spec.label()] == pytest.approx(literal_capacity(basis, phi), abs=1e-12)


def full_panel_keep(basis, perms, phis, raws, threshold):
    """Exhaustive panel rule: keep iff raw > factor * (k-th largest of all surrogates)."""
    caps = np.array([[float(np.sum((phi @ basis.P[p]) ** 2)) for p in perms] for phi in phis])
    kth = np.sort(caps, axis=1)[:, -threshold.quantile_index()]
    return raws > threshold.factor * kth


def panel_draws(threshold, T):
    """The panel's permutation stream, plus a lookup that records the draws used."""
    rng = np.random.default_rng(threshold.seed)
    perms = [rng.permutation(T) for _ in range(threshold.n_surrogates)]
    used = []

    def perm(i):
        used.append(i)
        return perms[i]

    return perms, perm, used


def panel_raws(basis, phis):
    S = phis @ basis.P
    return np.einsum("br,br->b", S, S)


@pytest.mark.parametrize("pct", [1.0, 10.0, 30.0, 100.0])
def test_panel_early_exit_matches_full_panel(pct):
    T = 120
    threshold = ThresholdConfig(n_surrogates=40, significance_pct=pct, seed=3)
    rng = np.random.default_rng(61)
    X = rng.normal(size=(T, 4))
    bases = [
        decompose(StateMatrix(X)),
        decompose(StateMatrix(np.column_stack([X[:, 0], X[:, 1], X[:, 0] + X[:, 1]]))),
        decompose(StateMatrix(np.zeros((T, 2)))),
    ]
    assert [b.rank for b in bases] == [4, 2, 0]
    for basis in bases:
        signal = basis.P @ rng.normal(size=basis.rank)
        noise = rng.normal(size=(40, T))
        phis = np.geomspace(1e-3, 1.0, 40)[:, None] * signal + noise / math.sqrt(T)
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        raws = panel_raws(basis, phis)
        perms, perm, _ = panel_draws(threshold, T)
        keep = _panel_keep(basis, perm, phis.copy(), raws, threshold)
        assert keep.tolist() == full_panel_keep(basis, perms, phis, raws, threshold).tolist()
        if basis.rank == 4:
            assert 0 < keep.sum() < len(keep)
        if basis.rank == 0:
            assert not keep.any()


def test_panel_exact_tie_is_rejected_after_k_draws():
    # Hadamard rows all have squared norm r/T exactly, so a spike target scores
    # raw = r/T on every permutation: factor * cap == raw on every draw.
    H = np.array([[1.0]])
    for _ in range(4):
        H = np.kron(H, [[1.0, 1.0], [1.0, -1.0]])
    r = 4
    basis = SvdBasis(P=H[:, :r] / 4.0, sigma=np.ones(r), Q=np.eye(r), rank=r, rank_tol=1e-10)
    threshold = ThresholdConfig(n_surrogates=20, significance_pct=20.0, factor=1.0)
    assert threshold.quantile_index() == 2
    phis = np.eye(16)
    raws = panel_raws(basis, phis)
    assert (raws == r / 16).all()
    perms, perm, used = panel_draws(threshold, 16)
    keep = _panel_keep(basis, perm, phis.copy(), raws, threshold)
    assert not keep.any()
    assert not full_panel_keep(basis, perms, phis, raws, threshold).any()
    assert used == [0, 1]


def test_panel_runs_every_draw_when_all_targets_are_kept():
    T = 200
    threshold = ThresholdConfig(n_surrogates=30, significance_pct=10.0, seed=5)
    basis = decompose(StateMatrix(np.random.default_rng(67).normal(size=(T, 3))))
    phis = np.ascontiguousarray(basis.P.T)
    raws = panel_raws(basis, phis)
    perms, perm, used = panel_draws(threshold, T)
    keep = _panel_keep(basis, perm, phis.copy(), raws, threshold)
    assert keep.all()
    assert full_panel_keep(basis, perms, phis, raws, threshold).all()
    assert used == list(range(threshold.n_surrogates))


def ranked_panel_case(rank, rows, T=240):
    """A rank-`rank` basis and unit-norm rows from pure noise to mostly signal."""
    rng = np.random.default_rng(100 + rank)
    basis = decompose(StateMatrix(rng.normal(size=(T, rank))))
    signal = basis.P @ rng.normal(size=rank)
    signal *= math.sqrt(rank) / np.linalg.norm(signal)
    phis = rng.normal(size=(rows, T)) + np.geomspace(0.05, 3.0, rows)[:, None] * signal
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    return basis, phis


# ranks 1, 2 and 16 project 32, 16 and 2 draws per GEMM; ranks 17 and 24 one,
# and gather the rows once fewer rows than the rank are undecided
@pytest.mark.parametrize("rank, rows", [(1, 40), (2, 40), (16, 40), (17, 40), (24, 6)])
@pytest.mark.parametrize("n, pct", [(20, 30.0), (45, 10.0), (200, 5.0)])
def test_chunked_panel_matches_full_panel(rank, rows, n, pct):
    threshold = ThresholdConfig(n_surrogates=n, significance_pct=pct, factor=1.0, seed=rank)
    assert threshold.quantile_index() > 1
    basis, phis = ranked_panel_case(rank, rows)
    assert basis.rank == rank
    raws = panel_raws(basis, phis)
    perms, perm, used = panel_draws(threshold, basis.T)
    keep = _panel_keep(basis, perm, phis.copy(), raws, threshold)
    assert keep.tolist() == full_panel_keep(basis, perms, phis, raws, threshold).tolist()
    assert 0 < keep.sum() < rows
    # every draw is requested once, in stream order, and all of them for a kept row
    assert used == list(range(n))


def test_panel_exact_tie_at_rank_one_is_rejected_at_kth_hit():
    # every entry of a Hadamard column is +-1/4, so a spike target ties
    # factor * cap == raw on every draw; chunks of 1, 1, 2 and 4 draws
    # reach the 5th hit inside the fourth chunk
    H = np.array([[1.0]])
    for _ in range(4):
        H = np.kron(H, [[1.0, 1.0], [1.0, -1.0]])
    basis = SvdBasis(P=H[:, 1:2] / 4.0, sigma=np.ones(1), Q=np.eye(1), rank=1, rank_tol=1e-10)
    threshold = ThresholdConfig(n_surrogates=40, significance_pct=25.0, factor=1.0)
    assert threshold.quantile_index() == 5
    phis = np.eye(16)
    raws = panel_raws(basis, phis)
    assert (raws == 1 / 16).all()
    perms, perm, used = panel_draws(threshold, 16)
    keep = _panel_keep(basis, perm, phis.copy(), raws, threshold)
    assert not keep.any()
    assert not full_panel_keep(basis, perms, phis, raws, threshold).any()
    assert used == list(range(8))


# 128 rows outweigh twice the widest gather block: G is 32 rows at rank 1,
# P[perm] 17 columns at rank 17
@pytest.mark.parametrize("rank", [1, 17])
def test_panel_compacts_rows_in_place(rank):
    threshold = ThresholdConfig(n_surrogates=45, significance_pct=10.0, factor=1.0, seed=rank)
    basis, phis = ranked_panel_case(rank, 128, T=1000)
    raws = panel_raws(basis, phis)
    phis_before, raws_before = phis.copy(), raws.copy()
    perms, perm, _ = panel_draws(threshold, basis.T)
    tracemalloc.start()
    try:
        keep = _panel_keep(basis, perm, phis, raws, threshold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < keep.sum() < len(keep)
    assert np.array_equal(raws, raws_before)
    assert keep.tolist() == full_panel_keep(basis, perms, phis_before, raws, threshold).tolist()
    # no working copy of the rows: phis is the scratch that gets compacted
    assert peak < phis.nbytes / 2


def panel_sweep_case(columns=6):
    """A sweep with a few hundred borderline targets: basis, zeta, specs, threshold."""
    zeta = sample_stream(DistributionSpec(kind="uniform"), 410, seed=71)
    state = StateMatrix(np.random.default_rng(73).normal(size=(400, columns)))
    threshold = ThresholdConfig(n_surrogates=40, significance_pct=10.0, factor=1.0, seed=7)
    return decompose(state), zeta, enumerate_chaos(3, 10), threshold


def test_sweep_decisions_match_full_panel(monkeypatch):
    basis, zeta, specs, threshold = panel_sweep_case()
    family = PolynomialFamily(kind="legendre")
    flushes = []

    def recording_panel(basis, perm, phis, raws, threshold):
        flushes.append(len(raws))
        return _panel_keep(basis, perm, phis, raws, threshold)

    monkeypatch.setattr("ipcap.capacity._panel_keep", recording_panel)
    report = capacity_sweep(basis, specs, family, zeta, threshold=threshold)
    assert len(flushes) >= 2
    perms, _, _ = panel_draws(threshold, basis.T)
    by_label = {spec.label(): spec for spec in specs}
    for e in report.entries:
        phi = literal_target(by_label[e.spec], family, zeta, 11, 400)[None, :]
        expected = full_panel_keep(basis, perms, phi, np.array([e.raw_capacity]), threshold)[0]
        assert (e.thresholded_capacity != 0.0) == expected, e.spec


def test_sweep_decisions_do_not_depend_on_panel_thread_timing(monkeypatch):
    # three-row flushes that each sleep 5 ms keep the panel thread behind the
    # sweeping thread, so many jobs wait in its queue at once; a short switch
    # interval interleaves the two threads finely
    basis, zeta, specs, threshold = panel_sweep_case()
    family = PolynomialFamily(kind="legendre")
    flushes = []

    def slow_panel(basis, perm, phis, raws, threshold):
        flushes.append(len(raws))
        time.sleep(0.005)
        return _panel_keep(basis, perm, phis, raws, threshold)

    monkeypatch.setattr("ipcap.capacity._PANEL_ROWS", 3)
    monkeypatch.setattr("ipcap.capacity._panel_keep", slow_panel)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reports = [capacity_sweep(basis, specs, family, zeta, threshold=threshold, batch=32) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert max(flushes) == 3 and len(flushes) > 3 * 20
    for report in reports[1:]:
        assert report.entries == reports[0].entries
        assert report.skipped == reports[0].skipped
    perms, _, _ = panel_draws(threshold, basis.T)
    by_label = {spec.label(): spec for spec in specs}
    for e in reports[0].entries:
        phi = literal_target(by_label[e.spec], family, zeta, 11, 400)[None, :]
        expected = full_panel_keep(basis, perms, phi, np.array([e.raw_capacity]), threshold)[0]
        assert (e.thresholded_capacity != 0.0) == expected, e.spec


def counted_perm_stream(monkeypatch, gate=None):
    """Count the panel's permutation draws; with a gate, the panel thread waits for it first."""
    real = ipcap.capacity._perm_stream
    drawn = []

    def counted(seed, T):
        for p in real(seed, T):
            drawn.append(None)
            yield p

    def stream(seed, T):
        if gate is not None:
            gate.wait(timeout=10.0)
        return counted(seed, T)

    monkeypatch.setattr("ipcap.capacity._perm_stream", stream)
    return drawn


@pytest.mark.parametrize("ahead", [True, False])
@pytest.mark.parametrize("columns", [6, 20])
def test_sweep_decisions_do_not_depend_on_when_the_panel_draws(monkeypatch, ahead, columns):
    # ahead: the sweeping thread sleeps 1 ms per row filled, so the panel
    # thread waits on an empty queue with a row in hand and draws ahead.
    # Lazily: the panel thread starts only once every job is queued, so it
    # never finds the queue empty and draws on first use only. Above rank 16
    # the panel projects one draw at a time and never draws ahead.
    basis, zeta, specs, threshold = panel_sweep_case(columns)
    family = PolynomialFamily(kind="legendre")
    gate = None if ahead else threading.Event()
    drawn = counted_perm_stream(monkeypatch, gate)
    at_flush = []

    def recording_panel(basis, perm, phis, raws, threshold):
        at_flush.append(len(drawn))
        return _panel_keep(basis, perm, phis, raws, threshold)

    monkeypatch.setattr("ipcap.capacity._panel_keep", recording_panel)
    if ahead:
        real_fill = ipcap.capacity._fill_product

        def slow_fill(*args):
            time.sleep(0.001)
            real_fill(*args)

        monkeypatch.setattr("ipcap.capacity._fill_product", slow_fill)
    else:
        real_tiled = ipcap.capacity._tiled_raws

        def tiled_then_open(*args):
            yield from real_tiled(*args)
            gate.set()

        monkeypatch.setattr("ipcap.capacity._tiled_raws", tiled_then_open)
    report = capacity_sweep(basis, specs, family, zeta, threshold=threshold, batch=8)
    assert len(at_flush) >= 2
    assert at_flush[0] == (threshold.n_surrogates if ahead and columns < 16 else 0)
    perms, _, _ = panel_draws(threshold, basis.T)
    by_label = {spec.label(): spec for spec in specs}
    for e in report.entries:
        phi = literal_target(by_label[e.spec], family, zeta, 11, 400)[None, :]
        expected = full_panel_keep(basis, perms, phi, np.array([e.raw_capacity]), threshold)[0]
        assert (e.thresholded_capacity != 0.0) == expected, e.spec


def test_sweep_without_borderline_targets_draws_no_permutation(monkeypatch):
    T = 3000
    zeta = sample_stream(DistributionSpec(kind="uniform"), T + 10, seed=109)
    basis = decompose(StateMatrix(zeta[9 : T + 9]))  # the delay-2 input
    assert basis.rank == 1
    drawn = counted_perm_stream(monkeypatch)
    monkeypatch.setattr("ipcap.capacity._panel_keep", lambda *args: pytest.fail("no row is borderline"))
    specs = enumerate_chaos(2, 6)
    report = capacity_sweep(basis, specs, PolynomialFamily(kind="legendre"), zeta, threshold=ThresholdConfig())
    assert len(report.entries) == len(specs)
    assert [e.spec for e in report.entries if e.thresholded_capacity] == ["1@2"]
    assert drawn == []


def test_sweep_starts_the_panel_thread_only_with_a_threshold(monkeypatch):
    basis, zeta, specs, threshold = panel_sweep_case()
    family = PolynomialFamily(kind="legendre")
    started = []
    real_worker = ipcap.capacity._panel_worker

    def recording_worker(*args):
        started.append(threading.current_thread().name)
        real_worker(*args)

    monkeypatch.setattr("ipcap.capacity._panel_worker", recording_worker)
    capacity_sweep(basis, specs, family, zeta)
    assert started == []
    capacity_sweep(basis, specs, family, zeta, threshold=threshold)
    assert started == ["ipcap-panel"]


@pytest.mark.parametrize(
    "name, calls, exc",
    [
        ("ipcap.capacity._panel_keep", 2, MemoryError("panel")),  # panel thread, in a flush
        ("ipcap.polychaos._fill_product", 10, MemoryError("refill")),  # panel thread, in a refill
        ("ipcap.capacity._fill_product", 200, RuntimeError("tile")),  # sweeping thread
        ("ipcap.capacity._fill_product", 200, KeyboardInterrupt()),  # sweeping thread
    ],
)
def test_sweep_failure_joins_the_panel_thread(monkeypatch, name, calls, exc):
    basis, zeta, specs, threshold = panel_sweep_case()
    family = PolynomialFamily(kind="legendre")
    monkeypatch.setattr("ipcap.capacity._PANEL_ROWS", 3)
    flushed = threading.Event()
    real_panel = ipcap.capacity._panel_keep

    def recording_panel(*args):
        flushed.set()
        return real_panel(*args)

    monkeypatch.setattr("ipcap.capacity._panel_keep", recording_panel)
    module, attr = name.rsplit(".", 1)
    real = getattr(importlib.import_module(module), attr)
    made = []

    def failing(*args, **kwargs):
        made.append(None)
        if len(made) > calls:
            # raise only once the panel thread has had work
            flushed.wait(timeout=10.0)
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(name, failing)
    before = threading.active_count()
    with pytest.raises(type(exc)) as raised:
        capacity_sweep(basis, specs, family, zeta, threshold=threshold, batch=32)
    assert raised.value is exc and flushed.is_set()
    assert threading.active_count() == before
    assert not any(t.name == "ipcap-panel" for t in threading.enumerate())


def test_sweep_requires_specs():
    basis = decompose(StateMatrix(np.arange(10.0)))
    with pytest.raises(ParameterError, match="specs"):
        capacity_sweep(basis, [], PolynomialFamily(kind="legendre"), np.arange(10.0))


def test_sweep_window_length_checked():
    zeta = np.arange(20.0)
    basis = decompose(StateMatrix(zeta[:10]))
    for window, message in (((0, 15), "window length 15"), ((12, 22), "out of range")):
        with pytest.raises(ShapeError, match=message):
            capacity_sweep(
                basis,
                [ChaosSpec(terms=((1, 1),))],
                PolynomialFamily(kind="legendre"),
                zeta,
                window=window,
            )


@pytest.mark.parametrize("pct, factor", [(1.0, 2.0), (10.0, 1.0), (30.0, 2.0)])
def test_surrogate_threshold_is_the_panel_quantile(pct, factor):
    T = 150
    threshold = ThresholdConfig(n_surrogates=40, significance_pct=pct, factor=factor, seed=11)
    rng = np.random.default_rng(79)
    X = rng.normal(size=(T, 3)) + 2.0
    states = [X, np.column_stack([X, X[:, 0] - X[:, 1]]), np.zeros((T, 2))]
    perms, _, _ = panel_draws(threshold, T)
    for X in states:
        basis = decompose(StateMatrix(X))
        for values in (rng.normal(size=T) + 0.5, np.eye(T)[17], basis.P @ np.ones(basis.rank) + 0.01):
            target = unit_target(values)
            caps = []
            for p in perms:
                S = target[None, :] @ basis.P[p]
                caps.append(np.einsum("br,br->b", S, S)[0])
            kth = np.sort(caps)[-threshold.quantile_index()]
            assert surrogate_threshold(basis, target, **threshold.to_dict()) == factor * float(kth)


def test_surrogate_threshold_at_high_rank_is_the_panel_quantile():
    # at rank 24 the single target row is gathered by the inverse permutation,
    # so the capacities equal the per-draw basis gather up to rounding
    threshold = ThresholdConfig(n_surrogates=40, significance_pct=10.0, seed=13)
    basis, phis = ranked_panel_case(24, 3)
    perms, _, _ = panel_draws(threshold, basis.T)
    for phi in phis:
        caps = [float(np.sum((phi @ basis.P[p]) ** 2)) for p in perms]
        kth = np.sort(caps)[-threshold.quantile_index()]
        eps = surrogate_threshold(basis, phi, **threshold.to_dict())
        assert eps == pytest.approx(threshold.factor * kth, rel=1e-12)


def screen_case(rng, T, columns="lags", centred=False):
    """A decomposed state and input for the screen-versus-exact property test.

    Inputs are centred, offset (nonzero-mean targets) or spikes; the state
    holds noisy lagged inputs at random strengths, an offset, and sometimes a
    dependent column (rank-deficient basis). columns="one" keeps the first
    column only, and "wide" adds 20 noise columns, so the panel projects one
    draw at a time. centred removes the column means, as the presets'
    detrend does.
    """
    L = T + 12
    kind = rng.integers(3)
    if kind == 0:
        zeta = rng.uniform(-1.0, 1.0, L)
    elif kind == 1:
        zeta = rng.uniform(0.0, 1.0, L)
    else:
        zeta = np.where(rng.random(L) < 0.03, rng.normal(0.0, 5.0, L), 0.0)
    start = L + 1 - T
    lag = [zeta[start - s : start - s + T] for s in range(1, 6)]
    cols = [
        lag[0] + rng.uniform(0.0, 3.0) * rng.normal(size=T),
        lag[1] * lag[2] + rng.uniform(0.0, 3.0) * rng.normal(size=T),
        rng.normal(size=T),
    ]
    X = np.column_stack(cols) + rng.uniform(-2.0, 2.0, size=3)
    if rng.random() < 0.5:
        X = np.column_stack([X, X[:, 0] + X[:, 2]])
    if columns == "one":
        X = X[:, :1]
    elif columns == "wide":
        X = np.column_stack([X, rng.normal(size=(T, 20))])
    if centred:
        X = X - X.mean(axis=0)
    return decompose(StateMatrix(X)), zeta, start


def screen_cases(rng):
    """(basis, zeta, start, threshold) for the property test: 24 random cases, then the corners.

    The corners cross rank-1, low-rank and wide bases, offset and centred,
    with the smallest panel (20 draws), the default one (200) and quantiles
    from the largest surrogate (1%) to the median (100%); each corner runs
    on two random states.
    """
    for case in range(24):
        T = int(rng.integers(40, 601))
        basis, zeta, start = screen_case(rng, T)
        threshold = ThresholdConfig(
            n_surrogates=int(rng.integers(20, 60)),
            significance_pct=float(rng.choice([1.0, 5.0, 10.0, 30.0])),
            factor=float(rng.choice([1.0, 2.0])),
            seed=case,
        )
        yield basis, zeta, start, threshold
    corners = [
        (columns, centred, n, pct)
        for columns in ("one", "lags", "wide")
        for centred in (False, True)
        for n in (20, 200)
        for pct in (1.0, 60.0, 100.0)
    ] * 2
    for case, (columns, centred, n, pct) in enumerate(corners, 24):
        T = int(rng.integers(40, 601))
        basis, zeta, start = screen_case(rng, T, columns, centred)
        factor = float(rng.choice([1.0, 2.0]))
        yield basis, zeta, start, ThresholdConfig(n, pct, factor, seed=case)


def test_sweep_decisions_equal_surrogate_threshold(monkeypatch):
    family = PolynomialFamily(kind="legendre")
    specs = enumerate_chaos(3, 5)
    by_label = {spec.label(): spec for spec in specs}
    panel_rows = []

    def recording_panel(basis, perm, phis, raws, threshold):
        panel_rows.append(len(raws))
        return _panel_keep(basis, perm, phis, raws, threshold)

    monkeypatch.setattr("ipcap.capacity._panel_keep", recording_panel)
    decided = 0
    for case, (basis, zeta, start, threshold) in enumerate(screen_cases(np.random.default_rng(89))):
        T = basis.T
        report = capacity_sweep(basis, specs, family, zeta, threshold=threshold)
        for e in report.entries:
            target = literal_target(by_label[e.spec], family, zeta, start, T)
            eps = surrogate_threshold(basis, target, **threshold.to_dict())
            assert (e.thresholded_capacity != 0.0) == (e.raw_capacity > eps), (case, e.spec)
            decided += 1
    screened = decided - sum(panel_rows)
    assert screened > 500 and sum(panel_rows) > 100


def test_screen_keeps_rank_one_targets_at_a_large_quantile_index():
    # k = 30 of 100 draws lies near the median of a rank-1 surrogate, where
    # chi-square(1) is far below 2.3 v_max: a lower bound fixed at 2.3 v_max
    # zeroed 15 of these 55 targets that the exact rule keeps
    T = 600
    zeta = sample_stream(DistributionSpec(kind="uniform"), T + 10, seed=5)
    state = StateMatrix(zeta[10 : T + 10] + np.random.default_rng(3).normal(size=T))
    basis = decompose(state)
    assert basis.rank == 1
    family = PolynomialFamily(kind="legendre")
    specs = enumerate_chaos(3, 5)
    threshold = ThresholdConfig(n_surrogates=100, significance_pct=60.0, factor=1.0, seed=3)
    report = capacity_sweep(basis, specs, family, zeta, threshold=threshold)
    assert len(report.entries) == 55
    by_label = {spec.label(): spec for spec in specs}
    for e in report.entries:
        target = literal_target(by_label[e.spec], family, zeta, 11, T)
        eps = surrogate_threshold(basis, target, **threshold.to_dict())
        assert (e.thresholded_capacity != 0.0) == (e.raw_capacity > eps), e.spec


def test_screen_constants_at_the_default_panel():
    t, a, c, _ = _screen_constants(200, 1)
    assert t == pytest.approx(32.9, abs=0.05)
    assert a == pytest.approx(0.743, abs=0.002)
    assert c == pytest.approx(2.30, abs=0.005)


def binomial_tail(n, k, p):
    """P[Bin(n, p) >= k] summed term by term in floats."""
    return math.fsum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


@pytest.mark.parametrize("n", [20, 37, 200, 1000])
@pytest.mark.parametrize("pct", [1.0, 10.0, 60.0, 100.0])
def test_screen_miss_levels_are_the_largest_within_delta(n, pct):
    delta, share = ipcap.capacity._SCREEN_DELTA, ipcap.capacity._CROSS_SHARE
    k = ThresholdConfig(n_surrogates=n, significance_pct=pct).quantile_index()
    t, a, c, z = _screen_constants(n, k)
    q = math.exp(-((a / 2.0) ** 2))  # the chi-square terms' share of q_lo
    p_hi, q_lo = math.exp(-t), q / (1.0 - share)
    for hits, level in ((k, p_hi), (n - k + 1, q_lo)):
        assert binomial_tail(n, hits, level) <= delta < binomial_tail(n, hits, 1.01 * level)
    # c is the chi-square(1) quantile at q, and z the normal tail at the cross share
    assert math.erf(math.sqrt(c / 2.0)) == pytest.approx(q, rel=1e-9)
    assert 0.5 * math.erfc(z / math.sqrt(2.0)) == pytest.approx(share * q_lo, rel=1e-9)


# Spec order is not trie order. T = 600 rows on 610 inputs put the window
# start at 11. zeta[5] is NaN, so every target with a delay in 6..11 is
# degenerate; odd inputs are zero and Legendre F_1(0) == 0, so 1@1*1@2 and its
# children are zero everywhere.
TILED_SPECS = [
    ChaosSpec(terms=((1, 1), (3, 1))),
    ChaosSpec(terms=((12, 1),)),  # delay skip
    ChaosSpec(terms=((1, 1),)),
    ChaosSpec(terms=((1, 1),), temporal=(3, "cos")),  # its pure spec is swept
    ChaosSpec(terms=((2, 2),), temporal=(5, "sin")),  # its pure spec is not
    ChaosSpec(terms=((6, 1),)),  # NaN parent
    ChaosSpec(terms=((6, 1), (8, 2))),  # NaN child
    ChaosSpec(terms=((6, 1), (8, 2)), temporal=(1, "cos")),  # NaN temporal child
    ChaosSpec(terms=((1, 1), (2, 1))),  # zero norm
    ChaosSpec(terms=((1, 1), (2, 1), (3, 2))),  # zero-norm child
    ChaosSpec(terms=((1, 1), (3, 1), (4, 2))),
    ChaosSpec(terms=((1, 1), (3, 1), (4, 2)), temporal=(2, "sin")),
    ChaosSpec(terms=((3, 1), (12, 1))),  # delay skip between kept targets
    ChaosSpec(terms=((2, 1), (4, 1), (5, 2))),  # nearest swept ancestor is 1@2
    ChaosSpec(terms=((2, 1),)),
    ChaosSpec(terms=((3, 2),)),
    ChaosSpec(terms=((1, 2), (3, 1)), temporal=(4, "cos")),  # only a prefix is swept
    ChaosSpec(terms=((1, 2),)),
]
TILED_SKIPPED = (
    ("1@12", "delay 12 exceeds window start 11"),
    ("1@6", "degenerate target (norm nan)"),
    ("1@6*2@8", "degenerate target (norm nan)"),
    ("1@6*2@8*cos@1", "degenerate target (norm nan)"),
    ("1@1*1@2", "degenerate target (norm 0.0)"),
    ("1@1*1@2*2@3", "degenerate target (norm 0.0)"),
    ("1@3*1@12", "delay 12 exceeds window start 11"),
)


def tiled_sweep_case(columns=slice(None)):
    zeta = sample_stream(DistributionSpec(kind="uniform"), 610, seed=97)
    zeta[1::2] = 0.0
    zeta[5] = np.nan
    rng = np.random.default_rng(101)
    lagged = [zeta[11 - s : 611 - s] for s in (1, 2, 3, 4)]
    X = np.column_stack(lagged + [lagged[0] * lagged[2], rng.normal(size=600)])
    return decompose(StateMatrix(X[:, columns])), zeta


@pytest.mark.parametrize("tile", [7, 64])
@pytest.mark.parametrize("batch", [3, 256, None])
@pytest.mark.parametrize("threshold", [None, ThresholdConfig(n_surrogates=40, significance_pct=10.0, seed=3)])
def test_tiled_sweep_matches_literal_targets(monkeypatch, tile, batch, threshold):
    check_tiled_sweep(monkeypatch, tiled_sweep_case(), tile, batch, threshold)


@pytest.mark.parametrize("tile", [7, 64])
@pytest.mark.parametrize("threshold", [None, ThresholdConfig(n_surrogates=40, significance_pct=10.0, seed=3)])
def test_tiled_sweep_at_rank_two_matches_literal_targets(monkeypatch, tile, threshold):
    # the delay-1 input and the noise column: the default batch is 16 rows here, 256 at rank 6
    case = tiled_sweep_case([0, 5])
    assert case[0].rank == 2
    check_tiled_sweep(monkeypatch, case, tile, None, threshold)


def check_tiled_sweep(monkeypatch, case, tile, batch, threshold):
    basis, zeta = case
    family = PolynomialFamily(kind="legendre")
    untiled = capacity_sweep(basis, TILED_SPECS, family, zeta, threshold=threshold, batch=batch)
    monkeypatch.setattr("ipcap.capacity._TILE", tile)
    report = capacity_sweep(basis, TILED_SPECS, family, zeta, threshold=threshold, batch=batch)
    assert report.skipped == untiled.skipped == TILED_SKIPPED
    skipped = {label for label, _ in TILED_SKIPPED}
    kept = [spec for spec in TILED_SPECS if spec.label() not in skipped]
    raws = {e.spec: e.raw_capacity for e in report.entries}
    assert sorted(raws) == sorted(spec.label() for spec in kept)
    for spec in kept:
        phi = literal_target(spec, family, zeta, 11, 600)
        assert raws[spec.label()] == pytest.approx(literal_capacity(basis, phi), abs=1e-12)
    decisions = [(e.spec, e.thresholded_capacity != 0.0) for e in report.entries]
    assert decisions == [(e.spec, e.thresholded_capacity != 0.0) for e in untiled.entries]
    if threshold is not None:
        assert 0 < sum(kept for _, kept in decisions) < len(decisions)


@pytest.mark.parametrize("block_rows", [1, 5])
def test_tile_blocks_do_not_change_the_raws(monkeypatch, block_rows):
    # 16 planned rows in one batch of 256: blocks of 1 or of 5, 5, 5 and 1
    # rows, against the one block of 16 of the default
    basis, zeta = tiled_sweep_case()
    family = PolynomialFamily(kind="legendre")
    monkeypatch.setattr("ipcap.capacity._TILE", 64)
    whole = capacity_sweep(basis, TILED_SPECS, family, zeta, batch=256)
    monkeypatch.setattr("ipcap.capacity._BLOCK_ROWS", block_rows)
    report = capacity_sweep(basis, TILED_SPECS, family, zeta, batch=256)
    assert report.skipped == whole.skipped == TILED_SKIPPED
    assert report.entries == whole.entries


@pytest.mark.parametrize("width", [7, 64])
def test_tile_reductions_equal_the_per_row_dots(width):
    # the sweep reduces a ragged (b, width) view of its (b, _TILE) buffer
    rng = np.random.default_rng(113)
    Z = rng.normal(size=(8, 64)) * rng.uniform(0.0, 1e3, size=(8, 1))
    Z[1] = 0.0
    Z[2, 3] = np.nan
    Z[3, 1], Z[4, 2] = np.inf, -np.inf
    Z[5] = 1e200  # its squares overflow
    Z[6, :2] = np.inf, -np.inf
    Zt, ones = Z[:, :width], np.ones(64)[:width]
    with np.errstate(over="ignore", invalid="ignore"):
        ssq, sums = np.vecdot(Zt, Zt), np.vecdot(Zt, ones)
        per_row = [(row @ row, row @ ones) for row in Zt]
    np.testing.assert_array_equal(ssq.view(np.int64), np.array([a for a, _ in per_row]).view(np.int64))
    np.testing.assert_array_equal(sums.view(np.int64), np.array([b for _, b in per_row]).view(np.int64))


def test_rank_one_raws_do_not_depend_on_the_batch():
    # Three tiles of 8192 steps, the last one ragged, and no skipped target,
    # so a target sits at the same row modulo 16 in a batch of 16 or 256. A
    # rank-1 projection is a matrix-vector product, whose BLAS kernel takes
    # the rows in small groups: a batch of 3 puts rows in other groups and
    # rounds their projections differently in the last bits.
    T = 20_000
    zeta = sample_stream(DistributionSpec(kind="uniform"), T + 10, seed=127)
    basis = decompose(StateMatrix(np.tanh(zeta[10 : T + 10] + 0.5 * zeta[9 : T + 9])))
    assert basis.rank == 1
    specs = enumerate_chaos(3, 6) + _crossed(enumerate_chaos(1, 3), [1, 2])
    family = PolynomialFamily(kind="legendre")
    reports = {batch: capacity_sweep(basis, specs, family, zeta, batch=batch) for batch in (3, 16, 256, None)}
    raws = {batch: {e.spec: e.raw_capacity for e in report.entries} for batch, report in reports.items()}
    assert len(raws[256]) == len(specs)
    assert raws[16] == raws[256] == raws[None]
    assert raws[3].keys() == raws[256].keys()
    for spec, raw in raws[3].items():
        assert raw == pytest.approx(raws[256][spec], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("tile", [7, 64])
def test_tiled_sweep_on_a_rank_zero_basis(monkeypatch, tile):
    _, zeta = tiled_sweep_case()
    basis = decompose(StateMatrix(np.zeros((600, 2))))
    assert basis.rank == 0
    monkeypatch.setattr("ipcap.capacity._TILE", tile)
    family = PolynomialFamily(kind="legendre")
    for threshold in (None, ThresholdConfig()):
        report = capacity_sweep(basis, TILED_SPECS, family, zeta, threshold=threshold, batch=3)
        assert report.skipped == TILED_SKIPPED
        assert len(report.entries) == len(TILED_SPECS) - len(TILED_SKIPPED)
        assert all(e.raw_capacity == 0.0 for e in report.entries)


def test_sweep_memory_does_not_grow_with_batch_times_length():
    # without the time tiles the batch buffer alone is 300 x 1e5 doubles, 240 MB
    T = 100_000
    zeta = sample_stream(DistributionSpec(kind="uniform"), T + 14, seed=103)
    basis = decompose(StateMatrix(np.random.default_rng(107).normal(size=(T, 2))))
    assert basis.rank == 2
    specs = enumerate_chaos(3, 14)[:300]
    tracemalloc.start()
    try:
        report = capacity_sweep(basis, specs, PolynomialFamily(kind="legendre"), zeta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.entries) == 300
    assert peak < 64 * 2**20


def test_delay_skipped_targets_do_not_move_the_other_raws():
    # A target whose delay does not fit the window is set aside before the
    # batches are cut. Were it dropped inside its batch, the rows after it
    # would move up, and the rank-1 projection (a BLAS GEMV that takes rows
    # in small groups) would round them differently in the last bits.
    T, start = 20_000, 9
    zeta = sample_stream(DistributionSpec(kind="uniform"), T + start - 1, seed=131)
    basis = decompose(StateMatrix(np.tanh(zeta[start - 1 :] + 0.5 * zeta[start - 2 : -1])))
    assert basis.rank == 1
    specs = enumerate_chaos(3, 12)
    fit = [spec for spec in specs if spec.max_delay <= start]
    family = PolynomialFamily(kind="legendre")
    report = capacity_sweep(basis, specs, family, zeta)
    alone = capacity_sweep(basis, fit, family, zeta)
    assert [label for label, _ in report.skipped] == [s.label() for s in specs if s.max_delay > start]
    raws = {e.spec: e.raw_capacity for e in report.entries}
    assert len(raws) == len(fit)
    assert raws == {e.spec: e.raw_capacity for e in alone.entries}
