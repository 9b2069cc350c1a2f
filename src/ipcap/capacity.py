"""Capacity measurement: SVD basis, per-target capacities, thresholds, sweeps.

The capacity of a unit-norm target phi against a state matrix X = P S Q^T is
sum_j (p_j^T phi)^2 over the rank-r left singular directions, identical to the
least-squares emulation score but computed without forming (X^T X)^{-1}.
Sweeps take targets in prefix order, in batches, and build, project and
reduce each batch one time tile at a time, so no buffer spans a batch times
all T steps. A target whose term prefix, or whose pure version, sits in the
same batch is that row times one more factor, bitwise the product built from
scratch. Norms and projections are summed over the tiles.

Threshold rule: a target is kept iff raw > factor * (k-th largest capacity of
its n_surrogates time-shuffled copies), k = ThresholdConfig.quantile_index().
The shuffles come from one permutation stream per seed, shared by
surrogate_threshold and the sweep, so raw > surrogate_threshold(...) is the
sweep's decision (both round in the last bits only, through differently
shaped GEMMs). In the sweep, exact permutation-null moments decide most
targets and the shared surrogate panel decides the borderline ones. The
panel projects its draws in chunks of up to max(1, 32 // rank) draws per
GEMM and stops drawing for a target once its decision is fixed. A target's
decision is its hit count over all draws, so neither the chunking nor the
early stop can change it.

A thresholded sweep runs the panel on one background thread, the only
Python thread ipcap starts: borderline targets are queued to it while the
sweeping thread builds, projects and reduces the next tiles, and its
decisions are read after it is joined. The thread alone draws the
permutations, so how the two threads interleave cannot change a decision.
BLAS thread settings are left as they are, and a sweep without a threshold
starts no thread.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .polychaos import ChaosSpec, PolynomialFamily, TargetSeries, eval_table
from .polychaos import _crossed, _fill_product, _fill_target, _time_factor

# rows discarded from the head of every simulated trajectory before analysis
DEFAULT_WASHOUT = 1000

# Laurent-Massart style tail parameter for the screening bounds; e^-40 per
# target per surrogate leaves the mis-banding probability negligible even for
# 10^5-target sweeps.
_SCREEN_T = 40.0

# Basis columns per panel GEMM: a chunk projects max(1, _PANEL_COLS // rank)
# draws at once, so rank 1 reads each target row once per 32 draws.
_PANEL_COLS = 32

# Borderline targets collected per panel call in capacity_sweep.
_PANEL_ROWS = 128

# Time steps per tile of the sweep's batch buffer: one (batch, _TILE) buffer
# in place of (batch, T), and a 64 KiB tile row stays in L2 between its fill
# and its reductions.
_TILE = 8192


@dataclass(frozen=True, eq=False)
class StateMatrix:
    """T x N state trajectory, rows are time steps."""

    data: np.ndarray
    washout: int = 0
    labels: tuple[str, ...] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2:
            raise DataError(f"data: expected a 2-d array, got ndim={data.ndim}")
        T, N = data.shape
        if T <= N:
            raise DataError(f"data: need more rows than columns, got {T} x {N}")
        if not np.isfinite(data).all():
            raise DataError("data: non-finite entries in state matrix")
        object.__setattr__(self, "data", data)
        if self.labels is not None and len(self.labels) != N:
            raise DataError(f"labels: expected {N} names, got {len(self.labels)}")


@dataclass(frozen=True, eq=False)
class SvdBasis:
    """Orthonormal time-course basis P of the state matrix, with spectrum."""

    P: np.ndarray
    sigma: np.ndarray
    Q: np.ndarray
    rank: int
    rank_tol: float

    @property
    def T(self) -> int:
        return self.P.shape[0]


@dataclass(frozen=True)
class ThresholdConfig:
    """Shuffle-surrogate significance settings."""

    n_surrogates: int = 200
    significance_pct: float = 1.0
    factor: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n_surrogates < 20:
            raise ParameterError(f"n_surrogates: must be >= 20, got {self.n_surrogates}")
        if not 0.0 < self.significance_pct <= 100.0:
            raise ParameterError(
                f"significance_pct: must be in (0, 100], got {self.significance_pct}"
            )
        if self.factor <= 0.0:
            raise ParameterError(f"factor: must be > 0, got {self.factor}")

    def quantile_index(self) -> int:
        """k such that epsilon/factor is the k-th largest surrogate capacity."""
        k = math.ceil(self.n_surrogates * self.significance_pct / 200.0)
        return min(max(k, 1), self.n_surrogates)

    def to_dict(self) -> dict:
        return {
            "n_surrogates": self.n_surrogates,
            "significance_pct": self.significance_pct,
            "factor": self.factor,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CapacityEntry:
    spec: str
    order: int
    raw_capacity: float
    thresholded_capacity: float


@dataclass(frozen=True, eq=False)
class CapacityReport:
    entries: tuple[CapacityEntry, ...]
    per_order_totals: dict[int, float]
    total: float
    rank: int
    threshold_meta: dict
    skipped: tuple[tuple[str, str], ...] = ()
    meta: dict = field(default_factory=dict)


def decompose(state: StateMatrix, rank_tol: float | None = None) -> SvdBasis:
    """SVD of the state matrix with a relative rank cutoff.

    The default cutoff 1e-10 * sqrt(T) (relative to sigma_1) scales with the
    accumulation error of T-length inner products.
    """
    data = state.data
    if not np.isfinite(data).all():
        raise DataError("data: non-finite entries in state matrix")
    T = data.shape[0]
    if rank_tol is None:
        rank_tol = 1e-10 * math.sqrt(T)
    if not 0.0 < rank_tol < 1.0:
        raise ParameterError(f"rank_tol: must be in (0, 1), got {rank_tol}")
    U, s, Vt = np.linalg.svd(data, full_matrices=False)
    if s.size and s[0] > 0.0:
        r = int(np.count_nonzero(s > rank_tol * s[0]))
    else:
        r = 0
    return SvdBasis(P=U[:, :r], sigma=s[:r], Q=Vt[:r].T, rank=r, rank_tol=rank_tol)


def _capacities(phis: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Capacities sum_j (p_j^T phi)^2 of the unit-norm target rows phis against basis P."""
    S = phis @ P
    return np.einsum("br,br->b", S, S)


def _perm_stream(seed: int, T: int):
    """The surrogate panel of a seed: permutations of range(T) from default_rng(seed), in order."""
    rng = np.random.default_rng(seed)
    dtype = np.int32 if T < 2**31 else np.int64
    while True:
        yield rng.permutation(T).astype(dtype)


def _check_length(phi: np.ndarray, basis: SvdBasis) -> None:
    if phi.shape[0] != basis.T:
        raise ShapeError(
            f"target length {phi.shape[0]} does not match state length {basis.T}"
        )


def compute_capacity(basis: SvdBasis, target: TargetSeries) -> float:
    """Capacity sum_j (p_j^T phi)^2 of one unit-norm target."""
    _check_length(target.values, basis)
    return float(_capacities(target.values[None, :], basis.P)[0])


def apply_threshold(raw: float, epsilon: float) -> float:
    """Keep the capacity only if it strictly exceeds the threshold."""
    return raw if raw > epsilon else 0.0


def surrogate_threshold(
    basis: SvdBasis,
    target: TargetSeries,
    n_surrogates: int = 200,
    significance_pct: float = 1.0,
    factor: float = 2.0,
    seed: int = 0,
) -> float:
    """Significance cutoff from capacities of time-shuffled target copies.

    Returns factor times the k-th largest of the n_surrogates shuffled
    capacities (the threshold rule above); with the defaults (200 surrogates
    at 1%) that is twice the largest.
    """
    cfg = ThresholdConfig(n_surrogates, significance_pct, factor, seed)
    _check_length(target.values, basis)
    phi = target.values[None, :]
    perms = _perm_stream(seed, basis.T)
    # one draw per GEMM: a chunked block would project this single row with
    # another BLAS kernel, whose last bits differ from phi @ P[perm]
    caps = [_draw_capacities(phi, basis.P, None, [next(perms)], None)[0, 0] for _ in range(n_surrogates)]
    return factor * float(np.sort(caps)[-cfg.quantile_index()])


def detrend(state: StateMatrix, max_harmonics: int) -> StateMatrix:
    """Remove the time average and the largest Fourier components per column.

    max_harmonics = 0 removes the mean only. The subtracted components are
    recorded in the returned matrix's metadata as (amplitude, frequency,
    phase) triples of A cos(2 pi f t + theta).
    """
    if max_harmonics < 0:
        raise ParameterError(f"max_harmonics: must be >= 0, got {max_harmonics}")
    data = state.data
    T = data.shape[0]
    if T < 4:
        raise DataError(f"data: detrend needs T >= 4, got {T}")
    out = np.empty_like(data)
    means = []
    components = []
    for j in range(data.shape[1]):
        col = data[:, j]
        mean = float(col.mean())
        y = col - mean
        comps = []
        if max_harmonics > 0:
            spec = np.fft.rfft(y)
            # amplitude of bin k in the A cos(2 pi k t / T + theta) convention
            amp = np.abs(spec) * 2.0 / T
            if T % 2 == 0:
                amp[-1] = np.abs(spec[-1]) / T
            amp[0] = 0.0
            n_pick = min(max_harmonics, amp.size - 1)
            picked = np.argsort(amp)[::-1][:n_pick]
            picked = picked[amp[picked] > 0.0]
            keep = np.zeros_like(spec)
            keep[picked] = spec[picked]
            y = y - np.fft.irfft(keep, n=T)
            for k in sorted(int(k) for k in picked):
                comps.append(
                    {
                        "amplitude": float(amp[k]),
                        "frequency": k / T,
                        "phase": float(np.angle(spec[k])),
                    }
                )
        out[:, j] = y
        means.append(mean)
        components.append(comps)
    meta = dict(state.meta)
    meta["detrend"] = {"means": means, "components": components}
    return StateMatrix(data=out, washout=state.washout, labels=state.labels, meta=meta)


def _basis_screen_stats(basis: SvdBasis) -> dict:
    """Per-basis quantities entering the permutation-null moment bounds."""
    P = basis.P
    T = P.shape[0]
    pbar = P.mean(axis=0)
    pt_sq = np.clip(1.0 - T * pbar**2, 0.0, None)
    return {
        "T": T,
        "pbar_sq_sum": float(pbar @ pbar),
        "pt_sum": float(pt_sq.sum()),
        "pt_sq_sum": float(pt_sq @ pt_sq),
        "pt_max": float(pt_sq.max(initial=0.0)),
    }


def _screen_bounds(stats: dict, phi_mean: float) -> tuple[float, float]:
    """(lower, upper) bounds bracketing the exact surrogate quantile.

    For a random permutation the projection S_j = p_j^T phi_pi has exact mean
    T pbar_j phibar and variance |p_j - mean|^2 |phi - mean|^2 / (T - 1); the
    bounds wrap the resulting weighted chi-square sum with generous tails.
    """
    T = stats["T"]
    phit_sq = max(1.0 - T * phi_mean**2, 0.0)
    m_sq = (T * phi_mean) ** 2 * stats["pbar_sq_sum"]
    scale = phit_sq / (T - 1)
    v_sum = stats["pt_sum"] * scale
    v_sq_sum = stats["pt_sq_sum"] * scale**2
    v_max = stats["pt_max"] * scale
    hi_var = v_sum + 2.0 * math.sqrt(_SCREEN_T * v_sq_sum) + 2.0 * _SCREEN_T * v_max
    b_hi = min((math.sqrt(m_sq) + math.sqrt(hi_var)) ** 2, 1.0)
    b_lo = m_sq + max(2.3 * v_max, v_sum - 2.86 * math.sqrt(v_sq_sum), 0.0)
    return b_lo, b_hi


def _chunk_cap(rank: int) -> int:
    """Most draws one panel GEMM projects: max(1, _PANEL_COLS // rank)."""
    return max(1, _PANEL_COLS // max(rank, 1))


def _draw_chunks(n: int, cap: int):
    """Draw ranges of one panel: 1, 1, 2, 4, ... draws, at most cap each.

    The first chunks are single draws, so rows decided on the first draws
    never pay for a wide chunk.
    """
    i = 0
    while i < n:
        stop = i + min(max(i, 1), cap, n - i)
        yield range(i, stop)
        i = stop


def _draw_capacities(
    rows: np.ndarray,
    P: np.ndarray,
    Pt: np.ndarray | None,
    perms: list[np.ndarray],
    G: np.ndarray | None,
) -> np.ndarray:
    """(b, D) capacities of the unit-norm target rows against P gathered by each of D permutations.

    Column d is sum_j (p_j^T phi)^2 over the rows of P gathered by perms[d].
    A single draw projects onto P[perm], as one (T, r) gather. Several draws
    are gathered row-major from Pt, the C-contiguous P.T, into the first D*r
    rows of G, a (cap*r, T) block the caller reuses across chunks, and
    projected in one GEMM. At high rank (_chunk_cap(r) == 1) and with fewer
    rows than basis columns (b < r), the rows are gathered by the inverse
    permutation instead: the same capacity from b x T moved values in place
    of T x r. Below that rank the saving is at most _PANEL_COLS / 2 values
    per time step.
    """
    b, T = rows.shape
    r, D = P.shape[1], len(perms)
    if D == 1:
        (p,) = perms
        if b < r and _chunk_cap(r) == 1:
            inv = np.empty_like(p)
            inv[p] = np.arange(T, dtype=p.dtype)
            return _capacities(rows[:, inv], P)[:, None]
        return _capacities(rows, P[p])[:, None]
    G = G[: D * r]
    for d, p in enumerate(perms):
        # mode="clip" lets take write straight into G; every index is in range
        np.take(Pt, p, axis=1, out=G[d * r : (d + 1) * r], mode="clip")
    S = (rows @ G.T).reshape(b, D, r)
    return np.einsum("bdr,bdr->bd", S, S)


def _panel_keep(
    basis: SvdBasis, perm, phis: np.ndarray, raws: np.ndarray, threshold: ThresholdConfig
) -> np.ndarray:
    """Shuffle-surrogate keep/reject decisions for a batch of unit-norm target rows.

    Draw i hits a target when factor * cap_i >= raw; a target is kept iff it
    has fewer than k hits over all draws. Hits only grow, so a target is
    rejected once it has k hits, without the remaining draws (Besag & Clifford
    1991), and only undecided rows are projected. Draws are projected in
    chunks (_draw_chunks); the decision is the hit count over all draws, so
    the chunking cannot change it. Shuffling the target by pi gives the same
    capacity as gathering the basis rows by pi^{-1}; gathering by the drawn
    permutation perm(i) instead samples the identical uniform ensemble, so the
    basis is permuted once per draw for the whole batch. phis and raws are
    not modified.
    """
    k = threshold.quantile_index()
    cap = _chunk_cap(basis.rank)
    Pt, G = None, None
    if cap > 1:
        Pt = np.ascontiguousarray(basis.P.T)
        # one gather block for the widest chunk, shared by every chunk of the call
        G = np.empty((cap * basis.rank, basis.T))
    hits = np.zeros(raws.size, dtype=int)
    alive = np.arange(raws.size)
    rows = phis
    for draws in _draw_chunks(threshold.n_surrogates, cap):
        if alive.size == 0:
            break
        caps = _draw_capacities(rows, basis.P, Pt, [perm(i) for i in draws], G)
        hits[alive] += np.count_nonzero(threshold.factor * caps >= raws[:, None], axis=1)
        undecided = np.flatnonzero(hits[alive] < k)
        if undecided.size < alive.size:
            alive, raws = alive[undecided], raws[undecided]
            if rows is phis:
                # the one working copy; later shrinks compact it in place
                rows = phis[undecided]
            else:
                for dst, src in enumerate(undecided):
                    rows[dst] = rows[src]
                rows = rows[: undecided.size]
    return hits < k


def _panel_worker(
    basis: SvdBasis,
    table: np.ndarray,
    start: int,
    trig,
    threshold: ThresholdConfig,
    jobs: queue.SimpleQueue,
    stop: threading.Event,
    decided: dict,
    failed: list,
) -> None:
    """Body of capacity_sweep's panel thread: decide the borderline targets sent on jobs.

    Each job (spec, label, order, raw) is refilled at full length into the
    (_PANEL_ROWS, T) pending buffer, so the panel sees the one-pass row, and
    every full buffer goes to _panel_keep. The thread owns the buffer and the
    permutations, drawn on first use and shared by every flush. None ends the
    jobs: the last rows are flushed and the thread returns. Once stop is set,
    it returns at its next job without deciding anything more. Decisions go
    into decided, and an exception into failed; the sweep reads both after
    join.
    """
    try:
        stream, perms = _perm_stream(threshold.seed, basis.T), []
        pending = np.empty((_PANEL_ROWS, basis.T))
        info: list[tuple[str, int, float]] = []

        def perm(i: int) -> np.ndarray:
            while len(perms) <= i:
                perms.append(next(stream))
            return perms[i]

        def flush():
            raws = np.array([raw for _, _, raw in info])
            keep = _panel_keep(basis, perm, pending[: len(info)], raws, threshold)
            for (label, order, raw), kept in zip(info, keep):
                decided[label] = (order, raw, raw if kept else 0.0)
            info.clear()

        for spec, label, order, raw in iter(jobs.get, None):
            if stop.is_set():
                return
            _fill_target(pending[len(info)], spec, table, start, trig)
            info.append((label, order, raw))
            if len(info) == _PANEL_ROWS:
                flush()
        if info and not stop.is_set():
            flush()
    except BaseException as exc:  # capacity_sweep raises it again after join
        failed.append(exc)


def _sweep_window(
    specs: list[ChaosSpec], zeta: np.ndarray, T: int, window: tuple[int, int] | None
) -> tuple[int, int]:
    L = zeta.shape[0]
    if window is None:
        window = (L + 1 - T, L + 1)
    start, end = int(window[0]), int(window[1])
    if end - start != T:
        raise ShapeError(f"window length {end - start} does not match state length {T}")
    if start < 0 or end - 1 > L:
        raise ShapeError(f"window ({start}, {end}) out of range for input length {L}")
    return start, end


def _nearest_ancestor(rows: dict, spec: ChaosSpec) -> tuple[int | None, int]:
    """(row, depth) of spec's nearest ancestor in rows, or (None, 0) if none is there.

    rows maps (terms, temporal) to a row; the ancestor's row holds the product
    of spec's first depth terms. depth == len(spec.terms) is the pure row of
    a temporal spec, which lacks only the time factor.
    """
    terms = spec.terms
    if spec.temporal is not None and (terms, None) in rows:
        return rows[terms, None], len(terms)
    for depth in range(len(terms) - 1, 0, -1):
        row = rows.get((terms[:depth], None))
        if row is not None:
            return row, depth
    return None, 0


def _tiled_raws(
    basis: SvdBasis,
    specs: list[ChaosSpec],
    table: np.ndarray,
    start: int,
    trig,
    batch: int,
    skipped: list[tuple[int, str, str]],
):
    """Yield (spec, raw capacity, mean of the unit-norm target) for every swept spec.

    Specs are taken in prefix order, batch at a time, and each batch is
    built, projected and reduced one time tile at a time. Specs whose delays
    do not fit the window, or whose targets are degenerate, are appended to
    skipped as (spec index, label, reason) instead.
    """
    T = basis.T
    # prefix order: each spec after its term prefixes, a temporal one after its pure one
    trie_order = sorted(
        range(len(specs)),
        key=lambda i: (specs[i].terms, specs[i].temporal is not None, specs[i].temporal),
    )
    width = min(_TILE, T)
    Z = np.empty((min(batch, len(specs)), width))
    ones = np.ones(width)
    for lo in range(0, len(specs), batch):
        plan = []  # (spec index, ancestor row, terms left to multiply, time factor)
        rows = {}  # (terms, temporal) -> row in plan
        for i in trie_order[lo : lo + batch]:
            spec = specs[i]
            if start < spec.max_delay:
                skipped.append((i, spec.label(), f"delay {spec.max_delay} exceeds window start {start}"))
                continue
            base, depth = _nearest_ancestor(rows, spec)
            rows[spec.terms, spec.temporal] = len(plan)
            factor = trig(*spec.temporal) if spec.temporal is not None else None
            plan.append((i, base, spec.terms[depth:], factor))
        if not plan:
            continue
        b = len(plan)
        S, ssq, sums = np.zeros((b, basis.rank)), np.zeros(b), np.zeros(b)
        # Overflow and invalid operations here only arise in rows whose norm
        # comes out non-finite, and those are reported as degenerate below.
        with np.errstate(over="ignore", invalid="ignore"):
            for t0 in range(0, T, width):
                t1 = min(t0 + width, T)
                Zt, ones_t = Z[:b, : t1 - t0], ones[: t1 - t0]
                for j, (_, base, terms, factor) in enumerate(plan):
                    row = Zt[j]
                    _fill_product(
                        row,
                        terms,
                        table,
                        start + t0,
                        None if factor is None else factor[t0:t1],
                        None if base is None else Zt[base],
                    )
                    # reduced while the row is still in cache
                    ssq[j] += row @ row
                    sums[j] += row @ ones_t
                S += Zt @ basis.P[t0:t1]
        norms = np.sqrt(ssq)
        good = (0.0 < norms) & (norms < math.inf)
        for j in np.flatnonzero(~good):
            i = plan[j][0]
            skipped.append((i, specs[i].label(), f"degenerate target (norm {float(norms[j])})"))
        good = np.flatnonzero(good)
        norms = norms[good]
        Sn = S[good] / norms[:, None]
        raws = np.einsum("br,br->b", Sn, Sn)
        phi_means = sums[good] / norms / T
        for j, raw, phi_mean in zip(good, raws.tolist(), phi_means.tolist()):
            yield specs[plan[j][0]], raw, phi_mean


def capacity_sweep(
    basis: SvdBasis,
    specs: list[ChaosSpec],
    family: PolynomialFamily,
    zeta: np.ndarray,
    threshold: ThresholdConfig | None = None,
    window: tuple[int, int] | None = None,
    batch: int = 256,
    meta: dict | None = None,
) -> CapacityReport:
    """Capacities of many chaos targets against one decomposed state.

    The default window is end-aligned: state row i is paired with target time
    start + i, so delay 1 reads the most recent input of that row. Targets
    whose delays do not fit the window, or that are degenerate, are reported
    as skipped instead of aborting the sweep. With a threshold, the
    borderline targets go to one panel thread (_panel_worker) while this
    thread sweeps on. That thread is joined before the sweep returns or
    raises, and an exception raised on it is raised here.
    """
    if not specs:
        raise ParameterError("specs: sweep needs at least one chaos spec")
    z = np.asarray(zeta, dtype=float).ravel()
    T = basis.T
    start, _ = _sweep_window(specs, z, T, window)

    max_deg = max(n for spec in specs for _, n in spec.terms)
    # degree-major rows, so every factor below is a contiguous slice
    table = np.ascontiguousarray(eval_table(family, z, max_deg).T)
    trig = cache(partial(_time_factor, T))
    results: dict[str, tuple[int, float, float]] = {}
    skipped: list[tuple[int, str, str]] = []  # (spec index, label, reason)
    decided: dict[str, tuple[int, float, float]] = {}  # written by the panel thread
    failed: list[BaseException] = []
    worker = None
    if threshold is not None:
        stats = _basis_screen_stats(basis)
        jobs, stop = queue.SimpleQueue(), threading.Event()
        worker = threading.Thread(
            target=_panel_worker,
            args=(basis, table, start, trig, threshold, jobs, stop, decided, failed),
            name="ipcap-panel",
            # a second interrupt during join must not keep the process alive
            daemon=True,
        )
        worker.start()
    try:
        for spec, raw, phi_mean in _tiled_raws(basis, specs, table, start, trig, batch, skipped):
            label, order = spec.label(), spec.total_degree
            if threshold is None:
                results[label] = (order, raw, raw)
                continue
            b_lo, b_hi = _screen_bounds(stats, phi_mean)
            if raw > threshold.factor * b_hi:
                results[label] = (order, raw, raw)
            elif raw <= threshold.factor * b_lo:
                results[label] = (order, raw, 0.0)
            else:
                jobs.put((spec, label, order, raw))
    except BaseException:
        if worker is not None:
            # the jobs still queued are dropped; the sweep is failing anyway
            stop.set()
        raise
    finally:
        if worker is not None:
            jobs.put(None)
            worker.join()
    if failed:
        raise failed[0]
    results.update(decided)
    skipped.sort(key=lambda item: item[0])

    entries = [
        CapacityEntry(label, order, raw, thr)
        for label, (order, raw, thr) in results.items()
    ]
    entries.sort(key=lambda e: (e.order, -e.thresholded_capacity, -e.raw_capacity, e.spec))
    per_order: dict[int, float] = {}
    for order in sorted({e.order for e in entries}):
        per_order[order] = math.fsum(
            e.thresholded_capacity for e in entries if e.order == order
        )
    total = math.fsum(per_order.values())
    return CapacityReport(
        entries=tuple(entries),
        per_order_totals=per_order,
        total=total,
        rank=basis.rank,
        threshold_meta=threshold.to_dict() if threshold is not None else {},
        skipped=tuple((label, why) for _, label, why in skipped),
        meta=dict(meta or {}),
    )


def memory_function(
    basis: SvdBasis,
    family: PolynomialFamily,
    zeta: np.ndarray,
    max_delay: int,
    temporal: tuple[int, str] | None = None,
    threshold: ThresholdConfig | None = None,
    window: tuple[int, int] | None = None,
) -> list[tuple[int, float]]:
    """First-degree capacity versus delay, optionally with one time factor."""
    if max_delay < 1:
        raise ParameterError(f"max_delay: must be >= 1, got {max_delay}")
    specs = [ChaosSpec(terms=((s, 1),), temporal=temporal) for s in range(1, max_delay + 1)]
    report = capacity_sweep(basis, specs, family, zeta, threshold=threshold, window=window)
    by_label = {e.spec: e.thresholded_capacity for e in report.entries}
    return [(spec.terms[0][0], by_label[spec.label()]) for spec in specs if spec.label() in by_label]


def tipc_spectrum(
    basis: SvdBasis,
    family: PolynomialFamily,
    zeta: np.ndarray,
    delay: int,
    harmonics,
    threshold: ThresholdConfig | None = None,
    window: tuple[int, int] | None = None,
) -> list[tuple[int, float, float]]:
    """First-order temporal capacity at one delay versus harmonic."""
    if delay < 1:
        raise ParameterError(f"delay: must be >= 1, got {delay}")
    harmonics = [int(k) for k in harmonics]
    specs = _crossed([ChaosSpec(terms=((delay, 1),))], harmonics)
    report = capacity_sweep(basis, specs, family, zeta, threshold=threshold, window=window)
    by_label = {e.spec: e.thresholded_capacity for e in report.entries}
    return [
        (k, by_label.get(c.label(), 0.0), by_label.get(s.label(), 0.0))
        for k, c, s in zip(harmonics, specs[::2], specs[1::2])
    ]
