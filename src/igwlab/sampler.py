"""Random tree generation with per-replicate deterministic streams.

A tree is a pure function of (master seed, replicate index): vertex j of a
replicate consumes Philox block j of that replicate's key, giving one
uniform for its offspring draw and one for its parent-edge length.  The
vectorized engine therefore produces bit-identical trees no matter how
replicates are grouped into batches, and equals the scalar reference
sampler vertex for vertex.

Generation is breadth-first.  Heavy-tailed offspring laws make E[tree size]
infinite for critical laws, so every tree carries a node budget: a tree is
*censored* when more than ``budget`` non-root vertices exist at the end of
a BFS level (a value, not an error; breadth-first growth keeps the cutoff
depth-unbiased).  Offspring counts come from an inverse-CDF table with a
streaming tail fallback for draws beyond the table, which inverts the exact
tail once the float sum of pmf terms stops growing.

Two batch collectors cover the package's needs: summary statistics
(height/length/edge count plus the pooled histogram of every draw made,
no tree storage) and forests for the pruning experiments, yielded in
chunks to bound memory.  The draw loop is shared and carries one column
that a child copies from its parent: the parent's position in the chunk
for a forest, its depth for metric statistics.  Each collector does only
its own work per level, so a forest chunk carries no summary statistics.  A
chunk's forest is a columnar :class:`~igwlab.trees.Forest` in the order
the engine generates vertices (by level, then tree, then breadth-first id),
which the pruning engine consumes as is.  The engine writes these columns
itself as it draws (``trees._by_level`` lays out every other tree batch);
:class:`~igwlab.trees.MetricTree` objects are built only when a caller
indexes or iterates the forest.

Both collectors draw their chunks through one runner, on every CPU in the
process's affinity mask: a run of several chunks forks one worker per CPU,
keeps at most that many chunks in flight and hands them back in replicate
order, so the caller reduces one chunk while the next ones are drawn.  A
worker sends back only what its caller reads: a forest chunk's
:class:`~igwlab.trees.Forest`, or a statistics chunk's arrays.  Each chunk
is a pure function of its replicate range, so the outputs are identical on
any number of CPUs; ``taskset -c 0`` runs everything in one process.  Up
to (CPUs + 1) chunks can be held in memory at once.  ``iter_forest`` draws
chunks of the size its caller asks for.  ``sample_stats`` cuts its draw into
equal parts, at most one per CPU and more only where a part would exceed
``_STATS_CHUNK`` replicates; it stays in one process while a part would
hold fewer than ``_STATS_PART_MIN``, where forking does not pay.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .offspring import FiniteTable, OffspringDistribution
from .rng import block_uniforms, stream_key, stream_keys
from .trees import CombinatorialTree, Forest, MetricTree

__all__ = [
    "SampleConfig",
    "SampleOutcome",
    "StatsSample",
    "sample_shape",
    "sample_metric",
    "sample_stats",
    "iter_forest",
    "sample_forest",
]

_TABLE_KMAX = 1 << 20
_TABLE_TAIL_EPS = 1e-18
_HIST_SIZE = 512
_STATS_CHUNK = 131072   # most replicates in one sample_stats part (memory cap)
# fewest replicates per part for which sample_stats leaves the process.  On
# a 2-CPU machine at budget 1e6 and lambda 1, medians of one process against
# two forked halves: igw:2/3 (6 seeds) 0.156 -> 0.154 s at n = 10,000,
# 0.324 -> 0.262 s at 15,000, 0.387 -> 0.273 s at 20,000 and 0.624 -> 0.501 s
# at 30,000; binary 0.543 -> 0.553 s at 2,000 (6 seeds), 2.00 -> 1.51 s at
# 10,000 and 2.80 -> 1.79 s at 15,000 (4 seeds).  Starting the pool costs
# about 18 ms (n = 64: 4.8 against 22.9 ms).
_STATS_PART_MIN = 15000


@dataclass(frozen=True)
class SampleConfig:
    """Identity and limits of one replicate draw."""

    seed: int
    replicate: int = 0
    budget: int = 1_000_000
    edge_rate: float | None = None  # lambda; None = shape only

    def __post_init__(self):
        _check_limits(self.budget, self.edge_rate)


def _check_limits(budget: int, lam: float | None, d: OffspringDistribution | None = None,
                  n: int = 0, chunk: int = 1):
    """The limits every sampler takes: node budget, edge rate (None: shapes
    only), law (None: not known yet), and replicate count and chunk size."""
    if budget < 1:
        raise ValueError("node budget must be >= 1")
    if lam is not None and not lam > 0:
        raise ValueError("edge rate must be > 0")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if d is not None and d.classify() == "supercritical":
        raise ValueError("sampling requires a critical or subcritical law")


@dataclass(frozen=True)
class SampleOutcome:
    """One replicate: the tree, or a censored marker."""

    tree: MetricTree | CombinatorialTree | None
    censored: bool
    nodes_generated: int      # non-root vertices created before stopping
    draws_consumed: int       # Philox blocks used (= nodes generated)


@dataclass
class StatsSample:
    """Summary statistics of a batch; censored entries are NaN / -1."""

    censored: np.ndarray            # bool, per replicate
    edges: np.ndarray               # int64; -1 for censored replicates
    heights: np.ndarray | None      # float64; NaN for censored; None if shape-only
    lengths: np.ndarray | None
    offspring_hist: np.ndarray      # counts of every draw made, incl. censored trees

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())

    @property
    def censor_rate(self) -> float:
        return self.n_censored / max(len(self.censored), 1)


# --------------------------------------------------------------------- #
# Inverse-CDF tables                                                      #
# --------------------------------------------------------------------- #


class _CdfTable:
    """P(X <= k) lookup with a streaming fallback beyond the table."""

    def __init__(self, d: OffspringDistribution, kmax: int = _TABLE_KMAX):
        if isinstance(d, FiniteTable):
            cum = np.cumsum(d.probs)
            cum[-1] = 1.0  # mass defect <= construction tolerance
        else:
            cum = np.cumsum(d.pmf_array(kmax))
            cut = int(np.searchsorted(1.0 - cum < _TABLE_TAIL_EPS, True))
            if cut < len(cum) - 1:
                cum = cum[: cut + 1].copy()
                cum[-1] = 1.0
        self.cum = cum
        self.dist = d

    def lookup(self, u: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.cum, u, side="right").astype(np.int64)
        over = k == len(self.cum)
        if np.any(over):
            for i in np.flatnonzero(over):
                k[i] = self._walk_tail(float(np.asarray(u)[i]))
        return k

    def _walk_tail(self, u: float) -> int:
        acc = float(self.cum[-1])
        for k, pk in self.dist.pmf_tail_iter(len(self.cum)):
            nxt = acc + pk
            if u < nxt or (pk == 0.0 and nxt >= 1.0 - 1e-12):
                return k
            if nxt == acc:
                # pk fell below half an ulp of the sum; the tail pmf does not
                # increase, so the sum is stuck short of u: invert the tail
                return self._invert_tail(u, k)
            acc = nxt
        raise AssertionError("unreachable")

    def _invert_tail(self, u: float, k: int) -> int:
        """Smallest j >= k with P(X > j) < 1 - u, galloping then bisecting."""
        target = 1.0 - u
        tail = self.dist.tail_prob
        if tail(k + 1) < target:
            return k
        lo, step = k, 1  # tail(lo + 1) >= target
        while tail(lo + step + 1) >= target:
            lo += step
            step *= 2
        hi = lo + step   # tail(hi + 1) < target
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if tail(mid + 1) < target:
                hi = mid
            else:
                lo = mid
        return hi


_table_cache: dict = {}


def _tables(d: OffspringDistribution) -> _CdfTable:
    key = (type(d), d.params)
    tab = _table_cache.get(key)
    if tab is None:
        tab = _CdfTable(d)
        _table_cache[key] = tab
    return tab


# --------------------------------------------------------------------- #
# Scalar reference sampler                                                #
# --------------------------------------------------------------------- #


def sample_shape(d: OffspringDistribution, cfg: SampleConfig) -> SampleOutcome:
    return _sample_one(d, cfg, metric=False)


def sample_metric(d: OffspringDistribution, cfg: SampleConfig) -> SampleOutcome:
    if cfg.edge_rate is None:
        raise ValueError("sample_metric needs cfg.edge_rate")
    return _sample_one(d, cfg, metric=True)


def _sample_one(d: OffspringDistribution, cfg: SampleConfig, metric: bool) -> SampleOutcome:
    """Scalar BFS generation; the vectorized engine must match it exactly."""
    _check_limits(cfg.budget, cfg.edge_rate, d)
    tab = _tables(d)
    key = np.uint64(stream_key(cfg.seed, cfg.replicate))
    lam = cfg.edge_rate
    parents = [-1, 0]
    lengths = [0.0, 0.0]
    gen_starts = [0, 1, 2]
    frontier = [1]
    count = 1      # non-root vertices created
    processed = 0  # vertices whose draws were made (= Philox blocks used)
    while frontier:
        ctr = np.asarray(frontier, dtype=np.uint64)
        u_off, u_len = block_uniforms(np.full(len(ctr), key), ctr)
        ks = tab.lookup(u_off)
        processed += len(frontier)
        if metric:
            elens = -np.log(u_len) / lam
            for j, v in zip(frontier, elens):
                lengths[j] = float(v)
        nxt = []
        kid = count + 1
        for j, k in zip(frontier, ks):
            for _ in range(int(k)):
                parents.append(j)
                lengths.append(0.0)
                nxt.append(kid)
                kid += 1
        count += int(ks.sum())
        if count > cfg.budget:
            return SampleOutcome(None, True, count, processed)
        frontier = nxt
        if nxt:
            gen_starts.append(count + 1)
    parent = np.array(parents, dtype=np.int32)
    gs = np.asarray(gen_starts, dtype=np.int64)
    if metric:
        tree = MetricTree(parent, np.array(lengths), validate=False, gen_starts=gs)
    else:
        tree = CombinatorialTree(parent, validate=False, gen_starts=gs)
    return SampleOutcome(tree, False, count, processed)


# --------------------------------------------------------------------- #
# Vectorized batch engine                                                 #
# --------------------------------------------------------------------- #


def _batch(d: OffspringDistribution, keys: np.ndarray, budget: int,
           lam: float | None, want_trees: bool):
    """One chunk of replicates, generation-synchronous across trees.

    Returns the chunk's :class:`~igwlab.trees.Forest` when want_trees is
    True, and (censored, counts, hist, heights, lengths) otherwise.  The
    frontier carries one column a child copies from its parent: the
    parent's position in the whole chunk when drawing trees, its depth when
    drawing metric statistics, nothing for shape-only statistics.  A
    forest's columns are written level by level as the vertices are drawn;
    the vertices of censored trees are dropped at the end.
    """
    tab = _tables(d)
    R = len(keys)
    counts = np.ones(R, dtype=np.int64)
    censored = np.zeros(R, dtype=bool)

    # frontier state, kept sorted by slot; every vertex j >= 1 passes through
    f_slot = np.arange(R, dtype=np.int64)
    f_j = np.ones(R, dtype=np.int64)
    if want_trees:    # the columns, one array per level; each root is its own parent
        slot_col, parent_col, length_col = [f_slot], [f_slot], [np.zeros(R)]
        top = R       # the chunk position of the frontier's first vertex
        f_up = f_slot   # the roots come first
    else:
        hist = np.zeros(_HIST_SIZE, dtype=np.int64)
        heights = np.zeros(R) if lam is not None else None
        lengths = np.zeros(R) if lam is not None else None
        f_up = np.zeros(R) if lam is not None else None

    while len(f_slot):
        u_off, u_len = block_uniforms(keys[f_slot], f_j.astype(np.uint64))
        ks = tab.lookup(u_off)
        elen = -np.log(u_len) / lam if lam is not None else None
        # frontier is sorted by slot: all per-slot reductions via segments,
        # so per-generation work stays proportional to the frontier size
        seg = np.concatenate(([0], np.flatnonzero(np.diff(f_slot)) + 1))
        uslot = f_slot[seg]
        if want_trees:
            slot_col.append(f_slot)
            parent_col.append(f_up)
            length_col.append(elen)
            up = np.arange(top, top + len(f_slot))
            top += len(f_slot)
        else:
            hist += np.bincount(np.minimum(ks, _HIST_SIZE - 1), minlength=_HIST_SIZE)
            up = None
            if lam is not None:
                up = f_up + elen
                lengths[uslot] += np.add.reduceat(elen, seg)
                segmax = np.maximum.reduceat(np.where(ks == 0, up, -np.inf), seg)
                heights[uslot] = np.maximum(heights[uslot], segmax)
        seg_children = np.add.reduceat(ks, seg)
        total_children = int(ks.sum())
        if total_children == 0:
            break
        f_slot = np.repeat(f_slot, ks)
        f_up = np.repeat(up, ks) if up is not None else None
        block_start = np.concatenate(([0], np.cumsum(seg_children)[:-1]))
        rank = np.arange(total_children, dtype=np.int64) - np.repeat(block_start, seg_children)
        f_j = np.repeat(counts[uslot], seg_children) + 1 + rank
        counts[uslot] += seg_children
        over_seg = counts[uslot] > budget
        if np.any(over_seg):
            censored[uslot[over_seg]] = True
            keep = ~np.repeat(over_seg, seg_children)
            f_slot, f_j = f_slot[keep], f_j[keep]
            f_up = f_up[keep] if f_up is not None else None

    if not want_trees:
        return censored, counts, hist, heights, lengths
    # one mask pass drops the vertices of censored trees and the levels left empty
    level_starts = np.concatenate(([0], np.cumsum([len(c) for c in slot_col])))
    slot, parent = np.concatenate(slot_col), np.concatenate(parent_col)
    length = np.concatenate(length_col) if lam is not None else np.zeros(len(parent))
    if censored.any():
        keep = ~censored[slot]
        kept = np.cumsum(keep)   # a kept vertex's new position, plus one
        parent, slot, length = kept[parent[keep]] - 1, slot[keep], length[keep]
        # a level with no kept vertex has none below it either
        level_starts = np.unique(np.concatenate(([0], kept[level_starts[1:] - 1])))
    return Forest(parent, length, (np.cumsum(~censored) - 1)[slot], level_starts,
                  np.flatnonzero(~censored), censored, lam is not None)


# --------------------------------------------------------------------- #
# Public batch API                                                        #
# --------------------------------------------------------------------- #


def sample_stats(d: OffspringDistribution, seed: int, n: int, *,
                 budget: int = 1_000_000, lam: float | None = None) -> StatsSample:
    """Heights/lengths/edge counts for replicates 0..n-1.

    The draw runs in equal parts of at least ``_STATS_PART_MIN`` replicates,
    at most one per CPU (or else in one part, in this process), and in more
    where a part would exceed ``_STATS_CHUNK``; the outputs do not depend on
    the split (module docstring)."""
    _check_limits(budget, lam, d, n)
    censored = np.zeros(n, dtype=bool)
    edges = np.zeros(n, dtype=np.int64)
    heights = np.zeros(n) if lam is not None else None
    lengths = np.zeros(n) if lam is not None else None
    hist = np.zeros(_HIST_SIZE, dtype=np.int64)
    parts = max(min(_cpus(), n // _STATS_PART_MIN), -(-n // _STATS_CHUNK), 1)
    hi = 0
    for cen, counts, h, hts, lens in _chunks(d, seed, 0, n, max(1, -(-n // parts)),
                                             budget, lam, want_trees=False):
        lo, hi = hi, hi + len(cen)
        censored[lo:hi] = cen
        edges[lo:hi] = np.where(cen, -1, counts)
        if lam is not None:
            heights[lo:hi] = np.where(cen, np.nan, hts)
            lengths[lo:hi] = np.where(cen, np.nan, lens)
        hist += h
    return StatsSample(censored, edges, heights, lengths, hist)


def iter_forest(d: OffspringDistribution, seed: int, n: int, *,
                budget: int = 1_000_000, lam: float | None = None,
                replicate0: int = 0, chunk: int = 4096):
    """Yield (forest, censored_mask) chunk by chunk.  The chunk's
    :class:`~igwlab.trees.Forest` holds its uncensored trees; as a sequence
    it has one entry per replicate, None where censored.  The mask is the
    forest's own ``censored`` column; no summary statistic is computed."""
    _check_limits(budget, lam, d, n, chunk)
    for forest in _chunks(d, seed, replicate0, n, chunk, budget, lam, want_trees=True):
        yield forest, forest.censored


def _chunks(d, seed, replicate0, n, chunk, budget, lam, want_trees):
    """:func:`_batch` outputs for replicates replicate0..replicate0+n-1, ``chunk`` at
    a time, in order; several chunks are drawn on every CPU (module docstring)."""
    end = replicate0 + n
    starts = range(replicate0, end, chunk)
    jobs = ((d, seed, lo, min(lo + chunk, end), budget, lam, want_trees) for lo in starts)
    workers = min(_cpus(), len(starts))
    if workers > 1:
        _tables(d)  # built once here, inherited by every forked worker
        yield from _pooled(jobs, workers)
    else:
        for job in jobs:
            yield _chunk(*job)


def _chunk(d, seed, lo, hi, budget, lam, want_trees):
    """:func:`_batch` over replicates lo..hi-1."""
    keys = stream_keys(seed, np.arange(lo, hi, dtype=np.int64))
    return _batch(d, keys, budget, lam, want_trees)


def _cpus() -> int:
    """CPUs this process may draw chunks on.

    1 where processes cannot be forked or the affinity mask is unknown, and
    inside a daemonic process (such as a pool worker), which may not start
    processes of its own.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    mp = sys.modules.get("multiprocessing.process")
    if mp is not None and mp.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _pooled(jobs, workers: int):
    """Run :func:`_chunk` over ``jobs`` in forked workers, in order.

    While the caller reduces one chunk, every worker draws one of the next
    ``workers``; a chunk is submitted only when the caller asks for the
    next, so at most ``workers`` + 1 chunks are held at once.  When the
    generator finishes, is closed or raises, chunks not yet started are
    cancelled and the workers are joined once their current chunk is done.
    A worker is never killed mid-chunk: one killed while it writes its
    chunk to the shared result pipe leaves a partial message there, on
    which ``multiprocessing.Pool.terminate`` can wait forever.
    """
    # imported here, so that a run of one chunk and every import of igwlab skip them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy, scipy and igwlab
    # again and rebuild the CDF table, which costs about as much as a chunk
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    pending = deque()
    try:
        for job in jobs:
            pending.append(pool.submit(_chunk, *job))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def sample_forest(d: OffspringDistribution, seed: int, n: int, **kw):
    """Materialized :func:`iter_forest`: (list of trees or None, n_censored)."""
    trees: list = []
    ncen = 0
    for chunk_trees, cen in iter_forest(d, seed, n, **kw):
        trees.extend(chunk_trees)
        ncen += int(cen.sum())
    return trees, ncen
