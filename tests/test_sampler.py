"""Sampler: determinism contract, scalar/vector equality, budget censoring,
and statistical sanity of the generated laws."""

import itertools
import multiprocessing
import os
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from igwlab import offspring as O
from igwlab import sampler as S
from igwlab.rng import CounterStream
from igwlab.trees import Forest


class TestDeterminism:
    def test_same_seed_replicate_bit_identical(self):
        d = O.IGW(2 / 3)
        cfg = S.SampleConfig(seed=10, replicate=4, edge_rate=1.0)
        a = S.sample_metric(d, cfg)
        b = S.sample_metric(d, cfg)
        assert np.array_equal(a.tree.parent, b.tree.parent)
        assert np.array_equal(a.tree.length, b.tree.length)

    def test_scalar_equals_vectorized(self):
        """The batch engine must reproduce the reference sampler exactly."""
        for spec, lam in (("binary", 1.0), ("igw:0.8", 2.0), ("zipf:1.5", 0.7)):
            d = O.from_spec(spec)
            trees, ncen = S.sample_forest(d, 42, 40, lam=lam, budget=100000)
            for r in range(40):
                one = S.sample_metric(d, S.SampleConfig(seed=42, replicate=r,
                                                        budget=100000, edge_rate=lam))
                if one.censored:
                    assert trees[r] is None
                    continue
                assert np.array_equal(one.tree.parent, trees[r].parent)
                assert np.array_equal(one.tree.length, trees[r].length)
                assert np.array_equal(one.tree.gen_starts(), trees[r].gen_starts())

    def test_batch_composition_invariance(self):
        """Replicates do not interact: any sub-batch reproduces its slice."""
        d = O.from_spec("binary")
        allt, _ = S.sample_forest(d, 7, 30, lam=1.0, chunk=7)
        subt, _ = S.sample_forest(d, 7, 10, replicate0=13, lam=1.0, chunk=3)
        for a, b in zip(subt, allt[13:23]):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.length, b.length)

    @pytest.mark.parametrize("lam", [1.5, None], ids=["metric", "shape"])
    @pytest.mark.parametrize("spec", ["binary", "igw:0.5", "igw:0.8", "zipf:1.5", "geom:0.3",
                                      "table:[0.55,0,0.35,0.1]"])
    def test_stats_match_trees(self, spec, lam):
        """The statistics collector agrees with the trees the forest collector
        draws, censored trees included; heights and edges add in the same
        order, so they agree exactly."""
        d = O.from_spec(spec)
        trees, ncen = S.sample_forest(d, 5, 300, budget=400, lam=lam)
        st = S.sample_stats(d, 5, 300, budget=400, lam=lam)
        assert 0 < ncen == st.n_censored
        assert st.censored.tolist() == [t is None for t in trees]
        assert st.edges.tolist() == [-1 if t is None else t.n_edges for t in trees]
        if lam is None:
            assert st.heights is None and st.lengths is None
            return
        live = [t for t in trees if t is not None]
        assert st.heights[~st.censored].tolist() == [t.tree_height() for t in live]
        assert np.allclose(st.lengths[~st.censored], [t.tree_length() for t in live],
                           rtol=1e-12, atol=0)
        assert np.isnan(st.heights[st.censored]).all()


class TestForest:
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("lam", [1.0, None])
    def test_forest_equals_forest_of_its_trees(self, chunk, lam):
        """A sampled chunk's columns equal those of the list of its trees,
        censored slots included."""
        d = O.from_spec("binary")
        nslots = ncen = 0
        for forest, cen in S.iter_forest(d, 3, 40, budget=30, lam=lam, replicate0=9,
                                         chunk=chunk):
            trees = list(forest)
            assert len(trees) == len(forest) == len(cen)
            assert [t is None for t in trees] == cen.tolist()
            other = Forest.from_trees(trees)
            for col in ("parent", "length", "tree", "level_starts", "first", "slots",
                        "censored"):
                a, b = getattr(forest, col), getattr(other, col)
                assert a.dtype == b.dtype and np.array_equal(a, b), col
            for i in (0, len(forest) - 1):
                t = forest[i]
                assert (t is None) == (trees[i] is None)
                if t is not None:
                    assert np.array_equal(t.parent, trees[i].parent)
                    assert np.array_equal(t.gen_starts(), trees[i].gen_starts())
            nslots += len(forest)
            ncen += int(cen.sum())
        assert nslots == 40 and 0 < ncen < 40

    def test_forest_trees_equal_reference_sampler(self):
        """Trees built from a forest match the scalar sampler in dtype too."""
        d = O.from_spec("binary")
        (forest, cen), = S.iter_forest(d, 21, 30, budget=20, lam=1.0, replicate0=4)
        assert cen.any()
        for i, t in enumerate(forest):
            one = S.sample_metric(d, S.SampleConfig(seed=21, replicate=4 + i, budget=20,
                                                    edge_rate=1.0))
            assert (t is None) == one.censored
            if t is not None:
                assert t.parent.dtype == one.tree.parent.dtype == np.int32
                assert np.array_equal(t.parent, one.tree.parent)
                assert np.array_equal(t.length, one.tree.length)
                assert np.array_equal(t.gen_starts(), one.tree.gen_starts())


COLUMNS = ("parent", "length", "tree", "level_starts", "slots", "censored")


def _columns(dist, n, chunk, lam):
    """Every chunk's columns, in the order iter_forest yields them."""
    return [[getattr(forest, c) for c in COLUMNS]
            for forest, _ in S.iter_forest(O.from_spec(dist), 3, n, budget=30, lam=lam,
                                           replicate0=9, chunk=chunk)]


STATS = ("censored", "edges", "heights", "lengths", "offspring_hist")


def _stats(dist, n, lam):
    """sample_stats's arrays; heights and lengths are None for a shape-only draw."""
    st = S.sample_stats(O.from_spec(dist), 3, n, budget=30, lam=lam)
    return [getattr(st, c) for c in STATS]


def _draws(d):
    """Each batch sampler drawing 400 trees in 8 chunks, once _STATS_CHUNK is 50."""
    return (lambda: list(S.iter_forest(d, 3, 400, budget=100, chunk=50)),
            lambda: S.sample_stats(d, 3, 400, budget=100))


class TestWorkers:
    """Chunks drawn by forked workers are the chunks drawn in-process.

    The tests run both batch samplers; sample_stats's part sizes are patched
    small, so that its draws span several parts too."""

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("lam", [1.0, None])
    @pytest.mark.parametrize("dist", ["binary", "igw:0.5"])
    def test_one_and_two_cpus_give_equal_chunks(self, dist, lam, chunk, monkeypatch):
        n = 45 if chunk < 45 else chunk + 45   # several chunks, the last one short
        pools = []
        pooled = S._pooled
        monkeypatch.setattr(S, "_pooled", lambda jobs, k: pools.append(k) or pooled(jobs, k))
        monkeypatch.setattr(S, "_STATS_CHUNK", chunk)
        monkeypatch.setattr(S, "_STATS_PART_MIN", 1)
        got, stats = {}, {}
        for cpus in (1, 2):
            monkeypatch.setattr(S, "_cpus", lambda: cpus)
            with _time_limit(60):
                got[cpus] = _columns(dist, n, chunk, lam)
                stats[cpus] = _stats(dist, n, lam)
        assert pools == [2, 2]
        assert len(got[1]) == len(got[2]) == -(-n // chunk)
        assert any(cols[-1].any() for cols in got[1])   # the budget censors
        for one, two in zip(got[1], got[2]):
            for c, a, b in zip(COLUMNS, one, two):
                assert a.dtype == b.dtype and np.array_equal(a, b), c
        assert stats[1][0].any() and len(stats[1][0]) == n
        for c, a, b in zip(STATS, stats[1], stats[2]):
            if a is None:
                assert b is None and lam is None, c
            else:   # bit for bit: the NaNs of censored trees are equal too
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), c

    def test_closed_generator_stops_its_workers(self, monkeypatch):
        """tree-io's set-up breaks out of the loop after the first chunk,
        while the workers may still be sending chunks larger than a pipe's
        buffer.  Killing a worker mid-send hung the shutdown of a
        ``multiprocessing.Pool`` within a few such closes."""
        monkeypatch.setattr(S, "_cpus", lambda: 2)
        d = O.from_spec("binary")
        with _time_limit(120):
            for seed in range(20):
                it = S.iter_forest(d, seed, 1 << 20, budget=2047, lam=1.0, chunk=512)
                next(it)
                it.close()
                assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        """Forked workers inherit the patched engine; its error is raised
        in the parent, and no worker outlives it."""
        def fail(*a, **k):
            raise ValueError("engine failed in a worker")

        monkeypatch.setattr(S, "_cpus", lambda: 2)
        monkeypatch.setattr(S, "_STATS_CHUNK", 50)
        monkeypatch.setattr(S, "_STATS_PART_MIN", 1)
        monkeypatch.setattr(S, "_batch", fail)
        for draw in _draws(O.from_spec("binary")):
            with _time_limit(60), pytest.raises(ValueError, match="in a worker"):
                draw()
            assert multiprocessing.active_children() == []

    def test_dead_worker_fails_the_caller(self, monkeypatch):
        """A worker that dies (say, killed for memory) fails the run
        instead of leaving the caller waiting for its chunk."""
        from concurrent.futures.process import BrokenProcessPool

        monkeypatch.setattr(S, "_cpus", lambda: 2)
        monkeypatch.setattr(S, "_STATS_CHUNK", 50)
        monkeypatch.setattr(S, "_STATS_PART_MIN", 1)
        monkeypatch.setattr(S, "_batch", lambda *a, **k: os._exit(1))
        for draw in _draws(O.from_spec("binary")):
            with _time_limit(60), pytest.raises(BrokenProcessPool):
                draw()
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, n, stats_chunk", [
        (2, 30000, 131072), (2, 30001, 131072), (3, 45002, 131072), (8, 120007, 131072),
        (2, 300000, 131072), (2, 20003, 7000)])
    def test_stats_parts_are_equal(self, cpus, n, stats_chunk, monkeypatch):
        """A draw of at least _STATS_PART_MIN replicates per CPU gets one part
        per CPU, or more when a part would exceed _STATS_CHUNK.  Every part but
        the last has the same length, and the last is shorter by less than the
        number of parts: by at most one on 2 CPUs."""
        drawn, pools = [], []

        def chunk(d, seed, lo, hi, *args):   # one edge per tree, drawn at once
            drawn.append((lo, hi))
            return (np.zeros(hi - lo, bool), np.ones(hi - lo, np.int64),
                    np.zeros(S._HIST_SIZE, np.int64), np.zeros(hi - lo), np.zeros(hi - lo))

        monkeypatch.setattr(S, "_STATS_PART_MIN", 15000)
        monkeypatch.setattr(S, "_STATS_CHUNK", stats_chunk)
        monkeypatch.setattr(S, "_cpus", lambda: cpus)
        monkeypatch.setattr(S, "_chunk", chunk)
        monkeypatch.setattr(S, "_pooled", lambda jobs, k: pools.append(k) or (
            chunk(*job) for job in jobs))
        st = S.sample_stats(O.from_spec("binary"), 3, n, lam=1.0)
        assert (st.edges == 1).all() and len(st.edges) == n
        assert [lo for lo, _ in drawn] == [0] + [hi for _, hi in drawn[:-1]]
        assert drawn[-1][1] == n
        parts = [hi - lo for lo, hi in drawn]
        assert len(parts) == max(min(cpus, n // 15000), -(-n // stats_chunk)) >= 2
        assert pools == [min(cpus, len(parts))]
        assert parts[:-1] == [parts[0]] * (len(parts) - 1) and parts[0] <= stats_chunk
        assert 0 <= parts[0] - parts[-1] < len(parts)
        assert cpus > 2 or parts[0] - parts[-1] <= 1

    def test_small_stats_draw_starts_no_pool(self, monkeypatch):
        """A draw too small for two parts of _STATS_PART_MIN replicates stays
        in one process, in one part, however many CPUs there are."""
        monkeypatch.setattr(S, "_cpus", lambda: 8)
        monkeypatch.setattr(S, "_pooled", lambda jobs, k: pytest.fail("started a pool"))
        calls = []
        chunks = S._chunks
        monkeypatch.setattr(S, "_chunks", lambda *a, **k: calls.append(a[4]) or chunks(*a, **k))
        n = 2 * S._STATS_PART_MIN - 1
        st = S.sample_stats(O.from_spec("binary"), 3, n, budget=30, lam=1.0)
        assert calls == [n] and len(st.edges) == n and st.censored.any()

    def test_pool_worker_draws_in_process(self, monkeypatch):
        """A daemonic process may not start workers: a caller that runs
        iter_forest in its own pool worker gets the chunks drawn in-process."""
        monkeypatch.setattr(S.os, "sched_getaffinity", lambda pid: {0, 1})
        want = _columns("binary", 45, 7, 1.0)
        with _time_limit(60), multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply(_columns, ("binary", 45, 7, 1.0))
        assert len(got) == len(want)
        for one, two in zip(want, got):
            assert all(np.array_equal(a, b) for a, b in zip(one, two))


class TestStructure:
    def test_outputs_planted_and_reduced(self):
        for spec in ("binary", "igw:0.9", "zipf:1.5", "geom:0.5",
                     "table:[0.6,0,0.4]"):
            trees, _ = S.sample_forest(O.from_spec(spec), 3, 60, budget=50000)
            for t in trees:
                if t is not None:
                    assert t.is_planted and t.is_reduced

    def test_no_replicate_has_censor_rate_0(self):
        """censor_rate divided by the replicate count, so a draw of no
        replicate raised ZeroDivisionError."""
        st = S.sample_stats(O.from_spec("binary"), 1, 0)
        assert len(st.censored) == 0 and st.censor_rate == 0.0

    def test_point_mass_single_edge(self):
        st = S.sample_stats(O.FiniteTable([1.0]), 1, 2000)
        assert np.all(st.edges == 1)

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError):
            S.sample_shape(O.FiniteTable([0.4, 0, 0.6]), S.SampleConfig(seed=1))

    def test_budget_censors_as_value(self):
        d = O.from_spec("binary")
        out = [S.sample_shape(d, S.SampleConfig(seed=11, replicate=r, budget=8))
               for r in range(400)]
        ncen = sum(o.censored for o in out)
        assert 0 < ncen < 400
        for o in out:
            assert (o.tree is None) == o.censored
            if not o.censored:
                assert o.tree.n_edges <= 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            S.SampleConfig(seed=1, budget=0)
        with pytest.raises(ValueError):
            S.SampleConfig(seed=1, edge_rate=0.0)
        with pytest.raises(ValueError):
            S.sample_metric(O.from_spec("binary"), S.SampleConfig(seed=1))

    @pytest.mark.parametrize("kw", [dict(budget=0), dict(lam=0.0), dict(lam=-1.0),
                                    dict(chunk=0), dict(chunk=-1), dict(n=-3),
                                    dict(d="table:[0.2,0,0.8]")])
    def test_batch_samplers_check_limits(self, kw):
        """Budget 0 censored every replicate; lam 0 or below drew inf or
        negative edge lengths; chunk -1 or n -3 gave no chunk at all in
        iter_forest, and chunk 0 failed in range() with a message that named
        no argument.  sample_stats takes no chunk size, so the chunk cases
        check iter_forest only."""
        match = {"budget": "node budget", "lam": "edge rate", "chunk": "chunk must",
                 "n": "n must", "d": "critical or subcritical"}[next(iter(kw))]
        kw = {"d": "binary", "seed": 1, "n": 3, **kw}
        kw["d"] = O.from_spec(kw["d"])
        if "chunk" not in kw:
            with pytest.raises(ValueError, match=match):
                S.sample_stats(**kw)
        with pytest.raises(ValueError, match=match):
            next(S.iter_forest(**kw))


class TestStatistics:
    def test_offspring_frequencies_binary(self):
        st = S.sample_stats(O.from_spec("binary"), 77, 30000)
        tot = st.offspring_hist.sum()
        assert st.offspring_hist[0] / tot == pytest.approx(0.5, abs=0.005)
        assert st.offspring_hist[1] == 0

    def test_offspring_frequencies_heavy(self):
        st = S.sample_stats(O.IGW(2 / 3), 77, 30000)
        tot = st.offspring_hist.sum()
        assert st.offspring_hist[2] / tot == pytest.approx(0.25, abs=0.005)

    def test_inverse_cdf_draws_from_a_stream(self):
        d = O.IGW(2 / 3)
        st = CounterStream(5)
        draws = np.array([int(S._tables(d).lookup(np.array(st.uniform()))) for _ in range(20000)])
        assert (draws == 0).mean() == pytest.approx(2 / 3, abs=0.01)
        assert not np.any(draws == 1)

    def test_single_split_probability(self):
        """P(single edge) = q0: the progenitor's child dies immediately."""
        st = S.sample_stats(O.from_spec("binary"), 900, 20000)
        assert (st.edges == 1).mean() == pytest.approx(0.5, abs=0.01)

    def test_exponential_edge_lengths(self):
        """Pooled edge lengths are Exp(lam): mean 1/lam within 1%."""
        trees, _ = S.sample_forest(O.IGW(0.7), 13, 2000, lam=2.0)
        pooled = np.concatenate([t.length[1:] for t in trees if t is not None])
        assert len(pooled) > 30000
        assert pooled.mean() == pytest.approx(0.5, rel=0.01)
        assert np.all(pooled > 0)

    def test_single_edge_length_is_exponential(self):
        """Tree length of the point-mass law is Exp(lam): KS check."""
        from igwlab.gof import ks_statistic, ks_threshold

        st = S.sample_stats(O.FiniteTable([1.0]), 3, 20000, lam=1.0)
        ls = np.sort(st.lengths)
        D = ks_statistic(ls, lambda x: 1.0 - np.exp(-x))
        assert D <= ks_threshold(20000, 0.01)

    def test_empirical_height_cdf_binary(self):
        """P(height <= 2) = 1/2 for the binary law at rate 1."""
        st = S.sample_stats(O.from_spec("binary"), 21, 30000, lam=1.0)
        h = st.heights[~st.censored]
        assert (h <= 2.0).mean() == pytest.approx(0.5, abs=0.01)

    def test_censor_rate_heavy_law(self):
        """IGW(0.9) censor rate at budget 1e6 stays below 1.5e-3."""
        st = S.sample_stats(O.IGW(0.9), 8, 20000)
        assert st.censor_rate < 1.5e-3

    def test_draw_histogram_counts_censored_draws(self):
        """The histogram records every draw made, even in censored trees."""
        st = S.sample_stats(O.from_spec("binary"), 5, 500, budget=16)
        outs = [S.sample_shape(O.from_spec("binary"),
                               S.SampleConfig(seed=5, replicate=r, budget=16))
                for r in range(500)]
        assert st.offspring_hist.sum() == sum(o.draws_consumed for o in outs)


class TestTableCache:
    def test_distinct_parameters_get_distinct_tables(self):
        """Laws whose parameters print alike under %g keep their own tables."""
        a = S._tables(O.IGW(0.666667))
        b = S._tables(O.from_spec("igw:0.66666666666666663"))
        assert a is not b and a.dist.q != b.dist.q
        assert S._tables(O.IGW(0.666667)) is a


@contextmanager
def _time_limit(seconds: int):
    """Raise TimeoutError in the block after ``seconds`` instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestTailDraws:
    """Draws past the 2^20-entry CDF table walk the pmf term by term."""

    def test_stalled_walk_inverts_the_exact_tail(self):
        """At u = 1 - 3e-11 the zipf:1.5 terms fall below half an ulp of
        the running sum before it reaches u; the walk used to spin forever."""
        d = O.from_spec("zipf:1.5")
        tab = S._tables(d)
        u = 1.0 - 3e-11
        with _time_limit(5):
            k = int(tab.lookup(np.array([u]))[0])
        assert d.tail_prob(k + 1) < 1.0 - u <= d.tail_prob(k)

    def test_terminating_walk_keeps_its_value(self):
        # the value the float walk returned before stalls were detected
        tab = S._tables(O.from_spec("zipf:1.5"))
        assert int(tab.lookup(np.array([1.0 - 1e-10]))[0]) == 2446698

    def test_igw_tail_terms_equal_pmf(self):
        for q in (0.5, 2 / 3, 0.9):
            d = O.IGW(q)
            for k0 in (0, 1, 2, 50, 5000):
                terms = list(itertools.islice(d.pmf_tail_iter(k0), 200))
                assert terms == [(k, d.pmf(k)) for k in range(k0, k0 + 200)]

    def test_igw_draw_past_the_table_returns(self):
        """Each tail term used to recompute pmf(k) from k = 2, so one igw:0.9
        draw just past the table ran for many minutes."""
        tab = S._tables(O.IGW(0.9))
        u = tab.cum[-1] + (1.0 - tab.cum[-1]) * 0.01
        with _time_limit(5):
            assert int(tab.lookup(np.array([u]))[0]) == 1058103
