"""Capacity measurement: SVD basis, detrending, thresholds and the capacity sweep.

The capacity of a unit-norm target phi against a state matrix X = P S Q^T is
sum_j (p_j^T phi)^2 over the rank-r left singular directions, identical to the
least-squares emulation score but computed without forming (X^T X)^{-1}.
Sweeps take targets in prefix order, in batches, and build, project and
reduce each batch one time tile at a time, so no buffer spans a batch times
all T steps. A target whose term prefix, or whose pure version, sits in the
same batch is that row times one more factor, bitwise the product built from
scratch. Each tile is filled 16 rows at a time, and each 1 MiB block of 16
rows is reduced in two calls, its squared norms and its sums, while it is
in L2, with the per-row dot kernel of row @ row. A batch is one such block
at rank <= 2, where the tile's projection is a matrix-vector product that
then reads the block from L2 as well, and 256 rows at higher rank, where
the projection is a GEMM that wants tall batches. Norms and projections are
summed over the tiles.

Threshold rule: a target is kept iff raw > factor * (k-th largest capacity
of its n_surrogates time-shuffled copies), k =
ThresholdConfig.quantile_index(). The shuffles are the permutations of one
stream per seed (_perm_stream), taken in order. The rule's per-target form,
which projects one target on each draw in turn, lives in tests/oracles.py as
the reference the sweep's decisions are tested against; the two round in the
last bits only, through differently shaped GEMMs. In the sweep, a screen
decides most targets from the exact permutation-null moments of their
projections, and the shared surrogate panel decides the rest. The screen
keeps a target above factor * b_hi and rejects one at or below factor *
b_lo. Both bounds follow from the panel's (n, k) and one miss level delta =
1e-12 per target: under the Gaussian projection model, a surrogate reaches
b_hi with probability at most p_hi, the largest p with P[Bin(n, p) >= k] <=
delta, and falls below b_lo with probability at most q_lo, the largest q
with P[Bin(n, q) >= n - k + 1] <= delta. So the screen decides a target
otherwise than the panel with probability at most delta. The panel projects
its draws in chunks of up to max(1, 32 // rank) draws per GEMM and stops
drawing for a target once its decision is fixed. A target's decision is its
hit count over all draws, so neither the chunking nor the early stop can
change it. The panel compacts its pending rows in place as they are decided,
so it holds no copy of them.

A thresholded sweep runs the panel on one background thread: borderline
targets are queued to it while the sweeping thread builds, projects and
reduces the next tiles, and its decisions are read after it is joined. The
thread alone draws the permutations, in index order from one generator.
While it holds a pending row and no job waits, it uses the idle time where
it pays: where the panel projects chunks of draws (rank <= 16), it draws
ahead, so its first flush finds the stream drawn; where it projects one
draw at a time, it flushes, so the sweep's end finds few rows left. A sweep
that sends it no row draws none. How the two threads interleave changes
which rows share a single-draw flush, and BLAS may round a capacity in its
last bits differently for another row count, so timing can reach a
decision only through a draw that ties factor * cap with raw to rounding.
ipcap starts one other Python thread, the input draw thread of
narma.divergence_probability; each of the two owns its own generator. BLAS
thread settings are left as they are, and a sweep without a threshold
starts no thread.
"""

from __future__ import annotations

import math
import queue
import threading
from dataclasses import asdict, dataclass, field
from functools import cache, partial

import numpy as np

from .errors import DataError, ParameterError, ShapeError
from .polychaos import ChaosSpec, PolynomialFamily, eval_table
from .polychaos import _fill_product, _fill_target, _time_factor

# Probability, per target, that the screen decides otherwise than the panel,
# under the Gaussian projection model of _screen_bounds. At the default panel
# (200 draws, k = 1) it is 0.871^200: every surrogate of a rank-1 target
# below 2.30 v_max.
_SCREEN_DELTA = 1e-12

# Share of the lower bound's miss probability q_lo given to the cross term
# 2 mu^T Y of a nonzero-mean target; the chi-square terms get the rest.
_CROSS_SHARE = 1e-4

# Basis columns per panel GEMM: a chunk projects max(1, _PANEL_COLS // rank)
# draws at once, so rank 1 reads each target row once per 32 draws.
_PANEL_COLS = 32

# Borderline targets collected per panel call in capacity_sweep.
_PANEL_ROWS = 128

# Time steps per tile of the sweep's batch buffer: one (batch, _TILE) buffer
# in place of (batch, T).
_TILE = 8192

# Rows of a tile filled and then reduced together: a (16, _TILE) block is
# 1 MiB, so it stays in L2 from its fill through its reductions. At rank <= 2
# a batch is one block, and the tile's projection, a matrix-vector product,
# reads it from L2 too; at higher rank the projection is a GEMM, which needs
# the tall default batch.
_BLOCK_ROWS, _GEMM_BATCH = 16, 256


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
        return asdict(self)


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
    # each column's own mean: data.mean(axis=0) would sum in another order
    means = [float(data[:, j].mean()) for j in range(data.shape[1])]
    out = data - np.array(means)
    components: list[list[dict]] = [[] for _ in means]
    for j in range(data.shape[1]) if max_harmonics > 0 else ():
        y = out[:, j]
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
        out[:, j] = y - np.fft.irfft(keep, n=T)
        for k in sorted(int(k) for k in picked):
            components[j].append(
                {
                    "amplitude": float(amp[k]),
                    "frequency": k / T,
                    "phase": float(np.angle(spec[k])),
                }
            )
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


def _binomial_tail(n: int, k: int, p: float) -> float:
    """P[Bin(n, p) >= k], summed from j = k until the terms past the mode stop counting."""
    lp, lq, ln = math.log(p), math.log1p(-p), math.lgamma(n + 1)
    logs, top = [], -math.inf
    for j in range(k, n + 1):
        logs.append(ln - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lp + (n - j) * lq)
        top = max(top, logs[-1])
        if j >= n * p and logs[-1] < top - 40.0:
            break
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)


def _bisect(ok, good: float, bad: float) -> float:
    """The end of [good, bad] where ok holds, 64 halvings from the boundary ok changes at."""
    for _ in range(64):
        mid = 0.5 * (good + bad)
        good, bad = (mid, bad) if ok(mid) else (good, mid)
    return good


def _largest_p(n: int, k: int) -> float:
    """The largest p with P[Bin(n, p) >= k] <= _SCREEN_DELTA, bisected in log p.

    The tail is held 1e-9 below delta, so the tail's rounding cannot lift the
    returned p past delta.
    """
    level = _SCREEN_DELTA * (1.0 - 1e-9)
    return math.exp(_bisect(lambda u: _binomial_tail(n, k, math.exp(u)) <= level, -700.0, 0.0))


@cache
def _screen_constants(n: int, k: int) -> tuple[float, float, float, float]:
    """(t, a, c, z): the screen's tail constants for a panel of n draws and quantile index k.

    t = -ln p_hi, where p_hi is the largest p with P[Bin(n, p) >= k] <= delta.
    The lower bound's miss level q_lo is the largest q with
    P[Bin(n, q) >= n - k + 1] <= delta; _CROSS_SHARE of it goes to the
    cross term, one-sided normal at z, and the rest, q, to the chi-square
    terms: a = 2 sqrt(-ln q) and c, the chi-square(1) quantile at q. At
    (200, 1): t = 32.9, a = 0.744, c = 2.30, z = 3.75.
    """
    t = -math.log(_largest_p(n, k))
    q_lo = _largest_p(n, n - k + 1)
    q = q_lo * (1.0 - _CROSS_SHARE)
    a = 2.0 * math.sqrt(-math.log(q))
    # P[|Z| < sqrt(c)] <= q, and P[Z < -z] <= _CROSS_SHARE * q_lo
    c = _bisect(lambda x: math.erf(x / math.sqrt(2.0)) <= q, 0.0, 40.0) ** 2
    z = _bisect(lambda x: math.erfc(x / math.sqrt(2.0)) <= 2.0 * _CROSS_SHARE * q_lo, 40.0, 0.0)
    return t, a, c, z


def _screen_bounds(stats: dict, phi_mean: float, constants: tuple) -> tuple[float, float]:
    """(lower, upper) bounds bracketing the exact surrogate quantile.

    For a random permutation the projection S_j = p_j^T phi_pi has exact mean
    mu_j = T pbar_j phibar and variance v_j = |p_j - mean|^2 |phi - mean|^2 /
    (T - 1). The bounds model S as mu + Y with independent Y_j ~ N(0, v_j),
    so a surrogate capacity is m_sq + 2 mu^T Y + |Y|^2, m_sq = |mu|^2, and
    take their constants (t, a, c, z) from _screen_constants. A surrogate
    reaches the upper bound (|mu| + sqrt(h))^2 only if |Y|^2 >= h, the
    Laurent-Massart upper tail at e^-t = p_hi. It falls below the lower
    bound only if 2 mu^T Y < -2 z sqrt(m_sq v_max), or if |Y|^2 falls below
    the larger of v_sum - a sqrt(sum v_j^2), the Laurent-Massart lower tail,
    and c v_max, the largest direction's chi-square(1) quantile: with
    probability at most q_lo in all.
    """
    t, a, c, z = constants
    T = stats["T"]
    phit_sq = max(1.0 - T * phi_mean**2, 0.0)
    m_sq = (T * phi_mean) ** 2 * stats["pbar_sq_sum"]
    scale = phit_sq / (T - 1)
    v_sum = stats["pt_sum"] * scale
    v_sq_sum = stats["pt_sq_sum"] * scale**2
    v_max = stats["pt_max"] * scale
    hi_var = v_sum + 2.0 * math.sqrt(t * v_sq_sum) + 2.0 * t * v_max
    b_hi = min((math.sqrt(m_sq) + math.sqrt(hi_var)) ** 2, 1.0)
    cross = 2.0 * z * math.sqrt(m_sq * v_max)
    b_lo = m_sq - cross + max(c * v_max, v_sum - a * math.sqrt(v_sq_sum), 0.0)
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
    basis is permuted once per draw for the whole batch. phis is the
    caller's scratch: it is compacted in place as rows are decided, so the
    call allocates no copy of the rows. raws is not modified.
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
    every full buffer goes to _panel_keep, which compacts it in place; the
    next jobs refill it from the top. The thread owns the buffer and the
    permutations, drawn in index order and shared by every flush. While the
    buffer holds a row and no job waits, the thread works ahead: where
    _panel_keep projects chunks of draws, it draws the next permutation, so
    each is drawn on first use or earlier; where it projects one draw at a
    time, it flushes. None ends the jobs: the last rows are flushed and the
    thread returns. Once stop is set, it returns at its next job without
    deciding anything more. Decisions go into decided, and an exception into
    failed; the sweep reads both after join.
    """
    try:
        stream, perms = _perm_stream(threshold.seed, basis.T), []
        pending = np.empty((_PANEL_ROWS, basis.T))
        info: list[tuple[str, int, float]] = []
        # a chunk's draws are shared by every pending row, so a chunked panel
        # spends idle time drawing; a single-draw panel may stop after a few
        # draws, so it spends idle time deciding its rows instead
        chunked = _chunk_cap(basis.rank) > 1

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

        while True:
            if chunked:
                while info and len(perms) < threshold.n_surrogates and jobs.empty():
                    perm(len(perms))
            elif info and jobs.empty():
                flush()
            job = jobs.get()
            if job is None:
                break
            if stop.is_set():
                return
            spec, label, order, raw = job
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
    built, projected and reduced one time tile at a time. A tile's rows are
    filled in blocks of _BLOCK_ROWS, each block's squared norms and sums are
    reduced in one np.vecdot call each while it is in L2, and the tile is
    then projected in one product. np.vecdot runs the dot kernel of
    row @ row on each row, so the sums are bitwise the per-row ones. Specs
    whose delays do not fit the window, or whose targets are degenerate, are
    appended to skipped as (spec index, label, reason) instead.
    """
    T = basis.T
    # Unfit specs are set aside before the batches are cut: a gap in a batch
    # would shift the rows after it, and a rank-1 GEMV rounds rows by position.
    for i, spec in enumerate(specs):
        if start < spec.max_delay:
            skipped.append((i, spec.label(), f"delay {spec.max_delay} exceeds window start {start}"))
    # prefix order: each spec after its term prefixes, a temporal one after its pure one
    trie_order = sorted(
        (i for i, spec in enumerate(specs) if spec.max_delay <= start),
        key=lambda i: (specs[i].terms, specs[i].temporal is not None, specs[i].temporal),
    )
    width = min(_TILE, T)
    Z = np.empty((min(batch, len(trie_order)), width))
    ones = np.ones(width)
    for lo in range(0, len(trie_order), batch):
        plan = []  # (spec index, ancestor row, terms left to multiply, time factor)
        rows = {}  # (terms, temporal) -> row in plan
        for i in trie_order[lo : lo + batch]:
            spec = specs[i]
            base, depth = _nearest_ancestor(rows, spec)
            rows[spec.terms, spec.temporal] = len(plan)
            factor = trig(*spec.temporal) if spec.temporal is not None else None
            plan.append((i, base, spec.terms[depth:], factor))
        b = len(plan)
        S, ssq, sums = np.zeros((b, basis.rank)), np.zeros(b), np.zeros(b)
        # Overflow and invalid operations here only arise in rows whose norm
        # comes out non-finite, and those are reported as degenerate below.
        with np.errstate(over="ignore", invalid="ignore"):
            for t0 in range(0, T, width):
                t1 = min(t0 + width, T)
                Zt, ones_t = Z[:b, : t1 - t0], ones[: t1 - t0]
                for g in range(0, b, _BLOCK_ROWS):
                    blk = slice(g, g + _BLOCK_ROWS)
                    for j, (_, base, terms, factor) in enumerate(plan[blk], g):
                        _fill_product(
                            Zt[j],
                            terms,
                            table,
                            start + t0,
                            None if factor is None else factor[t0:t1],
                            None if base is None else Zt[base],
                        )
                    ssq[blk] += np.vecdot(Zt[blk], Zt[blk])
                    sums[blk] += np.vecdot(Zt[blk], ones_t)
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
    batch: int | None = None,
    meta: dict | None = None,
) -> CapacityReport:
    """Capacities of many chaos targets against one decomposed state.

    The default window is end-aligned: state row i is paired with target time
    start + i, so delay 1 reads the most recent input of that row. Targets
    whose delays do not fit the window, or that are degenerate, are reported
    as skipped instead of aborting the sweep. With a threshold, the
    borderline targets go to one panel thread (_panel_worker) while this
    thread sweeps on. That thread is joined before the sweep returns or
    raises, and an exception raised on it is raised here. batch, the target
    rows per batch, defaults to 16 at rank <= 2 and to 256 above.
    """
    if not specs:
        raise ParameterError("specs: sweep needs at least one chaos spec")
    if batch is None:
        batch = _BLOCK_ROWS if basis.rank <= 2 else _GEMM_BATCH
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
        constants = _screen_constants(threshold.n_surrogates, threshold.quantile_index())
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
            b_lo, b_hi = _screen_bounds(stats, phi_mean, constants)
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
