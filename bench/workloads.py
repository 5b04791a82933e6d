"""The four benchmark workloads.

Each workload turns the run seed into inputs, issues operations through
igwlab's public API in a closed loop of one caller, and checks every output.
A *step* is one call the loop makes; it returns :class:`StepOut` with the
wall times of the operations it contained (one experiment chunk, one law
evaluation or one tree each).  A *pass* is the fixed cycle of steps that
makes up the workload once.

Every function of igwlab is looked up on its module when a step runs, never
bound at import, so the tracer's wrappers see every call.

Correctness has three parts, all in this file:

* ``gate()`` draws a small fixed set of layer outputs, checks them against
  the scalar reference sampler and engines, and returns their digests;
* each step checks its own output against an oracle or its verdict;
* ``fingerprint`` of every step of pass 0 is compared with
  ``reference.json`` for the default seed (``same_pass0`` gives the rule).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from time import perf_counter as clock

import numpy as np


class Mismatch(AssertionError):
    """An output differs from its oracle, its reference or its verdict."""


@dataclass
class StepOut:
    ops: list                   # wall seconds per operation in this step
    fingerprint: tuple = ()
    failed: int = 0             # operations that raised an expected error
    replicates: int = 0         # replicates carried to a verdict
    evals: int = 0              # closed-form law evaluations
    check: object = None        # oracle comparison, run outside timing and tracing
    start: float = 0.0          # wall clock at the start of the step, set by the loop
    starts: list = None         # wall clock at the start of each operation, if not `start`


def derive(seed: int, *parts) -> int:
    """A 62-bit sub-seed from the run seed and a label; the same inputs give the same value."""
    h = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 2


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, (bytes, bytearray)):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:32]


def _tree_digest(t) -> str:
    return digest(np.asarray(t.parent), np.asarray(t.length))


def _forest_digest(trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        h.update(b"-" if t is None else _tree_digest(t).encode())
    return h.hexdigest()[:32]


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _scalar_redraw(d, seed, budget, lam, trees, limit=4, max_edges=5000):
    """Re-draw a few batch trees with the scalar reference sampler."""
    from igwlab import sampler as smp

    done = 0
    for r, t in enumerate(trees):
        if t is None or t.n_edges > max_edges or t.n_edges < 3:
            continue
        out = smp.sample_metric(d, smp.SampleConfig(seed=seed, replicate=r, budget=budget,
                                                    edge_rate=lam))
        _expect(not out.censored and np.array_equal(out.tree.parent, t.parent)
                and np.array_equal(out.tree.length, t.length),
                f"scalar re-draw of replicate {r} differs from the batch tree")
        done += 1
        if done == limit:
            break
    _expect(done > 0, "no replicate small enough for the scalar re-draw")


# --------------------------------------------------------------------- #
# stats-verify                                                            #
# --------------------------------------------------------------------- #


class StatsVerify:
    """run_verify_height/length/size on igw:0.5 and igw:2/3, budget 1e6, lambda 1.

    A 2000-tree binary batch is the smallest whose censor rate stays below
    the experiments' 5e-3 bound with near certainty; its cost swings with
    the number of censored trees (a million draws each).  The igw:2/3
    experiments run on 30,000 trees, which cost about as much as the 2000
    binary ones, so the median operation falls where both laws' operations
    are dense.  A pass runs each of the six experiments once.
    Verdicts use alpha = 1e-6: the benchmark runs thousands of verdicts, and
    one at 1% would fail runs by chance, not by defect.
    """

    name = "stats-verify"
    pass_s = 4.8  # typical wall seconds of one untraced pass
    laws = ("igw:0.5", "igw:0.6666666666666666")
    kinds = ("height", "length", "size")
    alpha = 1e-6

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.budget = 10 ** 6
        self.n = {"igw:0.5": 2000, "igw:0.6666666666666666": 30000}

    def prepare(self):
        pass

    def gate(self) -> dict:
        from igwlab import offspring as off
        from igwlab import sampler as smp

        out = {}
        for law in self.laws:
            d = off.from_spec(law)
            s = derive(self.seed, self.name, "gate", law)
            st = smp.sample_stats(d, s, 1024, budget=self.budget, lam=1.0)
            out[f"stats[{law}]"] = digest(st.censored, st.edges, st.heights, st.lengths,
                                          st.offspring_hist)
            trees, _ = smp.sample_forest(d, s, 64, budget=self.budget, lam=1.0)
            out[f"forest[{law}]"] = _forest_digest(trees)
            for r, t in enumerate(trees):
                if t is None:
                    _expect(st.censored[r], f"replicate {r} censored in one engine only")
                    continue
                _expect(st.edges[r] == t.n_edges and st.heights[r] == t.tree_height(),
                        f"sample_stats and iter_forest disagree on replicate {r}")
                _expect(abs(st.lengths[r] - t.tree_length()) <= 1e-12 * t.tree_length(),
                        f"total length of replicate {r} differs between engines")
            _scalar_redraw(d, s, self.budget, 1.0, trees)
        return out

    def steps(self):
        for p in count():
            for law in self.laws:
                for kind in self.kinds:
                    s = derive(self.seed, self.name, p, law, kind, 0)
                    yield p, (lambda kind=kind, law=law, s=s: self._verify(kind, law, s))

    def _verify(self, kind, law, s):
        from igwlab import experiments as xp

        spec = xp.ExperimentSpec(dist=law, lam=1.0, n=self.n[law], seed=s,
                                 budget=self.budget, alpha=self.alpha)
        fn = getattr(xp, f"run_verify_{kind}")
        t0 = clock()
        rep = fn(spec)
        t = clock() - t0
        _expect(rep.passed, f"verdict failed: {rep}")
        return StepOut([t], (kind, law, rep.statistic, rep.n), replicates=spec.n)

    same_pass0 = staticmethod(lambda ref, cur: ref == cur)


# --------------------------------------------------------------------- #
# forest-prune                                                            #
# --------------------------------------------------------------------- #


class ForestPrune:
    """run_thinning (binary, phi = length) and run_coloring (binary, p = 0.5).

    Thinning runs at budget 1e4, which keeps it to seconds.  Coloring runs
    at budget 1e5: its verdicts use only uncensored trees, and censoring
    biases both.  The survival rate is compared with the fixed point at a
    fixed tolerance of 0.01; at 1e5 censoring biases it by about -0.0008,
    and 49,152 trees put the verdict 4.5 standard deviations inside the
    tolerance.  The first-branch law is a chi-square test on some 34,000
    surviving trees; at budget 1e4 its bias gave statistics near 6 on one
    degree of freedom, and a run failed at alpha 1e-6, while at 1e5 they
    stay near 1.  Sizes are whole multiples of the 4096-tree chunk, so every
    operation (one chunk) carries the same number of trees.  (Chunks of
    2048 trees halved the peak memory, but measured less steadily.)
    """

    name = "forest-prune"
    pass_s = 13.5  # typical wall seconds of one untraced pass
    laws = ("binary",)
    alpha = 1e-6

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.budget = 10 ** 4        # thinning and the gate
        self.budget_color = 10 ** 5
        self.chunk = 1024 if small else 4096
        self.n_thin = 2 * self.chunk if small else 5 * self.chunk
        self.n_color = 4 * self.chunk if small else 12 * self.chunk

    def prepare(self):
        pass

    def _spec(self, s, n, budget, **kw):
        from igwlab import experiments as xp

        return xp.ExperimentSpec(dist="binary", lam=1.0, n=n, seed=s, budget=budget,
                                 chunk=self.chunk, alpha=self.alpha, **kw)

    def gate(self) -> dict:
        from igwlab import offspring as off
        from igwlab import pruning as pr
        from igwlab import sampler as smp
        from igwlab.rng import CounterStream

        d = off.from_spec("binary")
        s = derive(self.seed, self.name, "gate")
        cs = derive(self.seed, self.name, "gate-color")
        trees, _ = smp.sample_forest(d, s, 2048, budget=self.budget, lam=1.0, chunk=1024)
        live = [t for t in trees if t is not None]
        thr = 3.0
        pf = pr.PrunedForest(live, "length", thr)
        cf = pr.color_forest(live, 0.5, cs)
        checked = 0
        for i, t in enumerate(live):
            if t.n_vertices > 3000 or checked == 16:
                continue
            checked += 1
            g = pr.gdp_prune(t, "length", thr)
            _expect(bool(pf.survived[i]) == g.survived and pf.red_edges[i] == g.tree.n_edges,
                    f"forest and scalar length pruning disagree on tree {i}")
            if g.survived:
                a = np.sort(pf.extract_reduced(i).length[1:])
                b = np.sort(g.tree.length[1:])
                _expect(np.allclose(a, b, rtol=1e-9, atol=0.0),
                        f"pruned edge lengths of tree {i} differ between engines")
            c = pr.bernoulli_color(t, 0.5, CounterStream(cs, i))
            _expect(bool(cf.survived[i]) == c.survived and cf.red_edges[i] == c.tree.n_edges,
                    f"forest and scalar coloring disagree on tree {i}")
        _scalar_redraw(d, s, self.budget, 1.0, trees)
        return {
            "forest": _forest_digest(trees),
            "pruned": digest(pf.survived, pf.k1, pf.m1, pf.first_branch, pf.red_edges,
                             pf.pooled_lengths()),
            "colored": digest(cf.survived, cf.first_branch, cf.red_edges, cf.pooled_lengths()),
        }

    def steps(self):
        for p in count():
            s = derive(self.seed, self.name, p, "thinning")
            yield p, (lambda s=s: self._run("thinning", s))
            s = derive(self.seed, self.name, p, "coloring")
            yield p, (lambda s=s: self._run("coloring", s))

    def _run(self, which, s):
        from igwlab import experiments as xp

        if which == "thinning":
            spec = self._spec(s, self.n_thin, self.budget, phi="length")
        else:
            spec = self._spec(s, self.n_color, self.budget_color, p=0.5)
        m0 = len(self.marks) if self.marks is not None else 0
        t0 = clock()
        out = getattr(xp, f"run_{which}")(spec)
        t1 = clock()
        if which == "thinning":
            _expect(out.passed, f"verdict failed: {out}")
            fp = (which, out.statistic, out.details["p_hat"], out.n)
        else:
            _expect(out["passed"], f"coloring verdicts failed: {out['survival']} {out['thinned']}")
            fp = (which, out["survival"].statistic, out["thinned"].statistic, out["g0_hat"])
        ops, starts = self._chunk_times(m0, t0, t1)
        return StepOut(ops, fp, replicates=spec.n, starts=starts)

    marks = None  # set by the runner to the chunk clock's marks in untraced executions

    def _chunk_times(self, m0, t0, t1):
        """Durations and starts of the chunks between wall times t0 and t1.

        A chunk runs from the resumption after the previous request (or t0)
        to the request for the next chunk; the last one runs to t1, less
        the pause the clock made after it.
        """
        marks = self.marks[m0:] if self.marks is not None else []
        if not marks:
            return [t1 - t0], [t0]
        starts = [t0] + [resumed for _, resumed in marks[:-1]]
        ends = [asked for asked, _ in marks[:-1]] + [t1 - (marks[-1][1] - marks[-1][0])]
        return [b - a for a, b in zip(starts, ends)], starts

    same_pass0 = staticmethod(lambda ref, cur: ref == cur)


# --------------------------------------------------------------------- #
# exact-laws                                                              #
# --------------------------------------------------------------------- #


def _binary_size_cdf(N: int) -> Fraction:
    """P(#edges <= N) of the critical binary tree: Catalan numbers, exactly.

    A planted binary tree with m branch points has 2m + 1 edges and
    probability C_m / 2^(2m+1).
    """
    total = Fraction(0)
    c = 1
    for m in range((N - 1) // 2 + 1):
        total += Fraction(c, 2 ** (2 * m + 1))
        c = c * 2 * (2 * m + 1) // (m + 2)
    return total


class ExactLaws:
    """Closed-form laws only: mpmath and Fraction arithmetic, no sampling.

    Evaluation points come from the seed within narrow bands, so a pass
    costs about the same on every seed: N in [395, 405] for the size law,
    p in 10^[-3.02, -2.98] for the Zipf pushforward, x in [115, 125] for the
    length law (well inside the mpmath branch of the series policy).
    Oracles: Catalan sums for the binary size law, the Bessel closed forms
    for the q = 1/2 length law, sqrt(1 - p) for binary coloring survival.
    """

    name = "exact-laws"
    pass_s = 1.45  # typical wall seconds of one untraced pass
    laws = ()
    rtol = 1e-9     # float law values against their oracle
    ref_rtol = 1e-12  # float law values against reference.json

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def prepare(self):
        pass

    def gate(self) -> dict:
        from igwlab import analytics as ana
        from igwlab import offspring as off

        N = 101 if self.small else 301
        exact = ana.size_cdf(Fraction(1, 2), N)
        _expect(exact == _binary_size_cdf(N), f"exact size_cdf(1/2, {N}) differs from Catalan sum")
        oracle = ana.size_pmf_oracle(off.from_spec("igw:0.5"), 30, exact=True)
        for n in range(1, 31):
            _expect(oracle[n] == ana.size_pmf(Fraction(1, 2), n),
                    f"size_pmf(1/2, {n}) differs from the convolution oracle")
        return {"size_cdf_exact": digest(str(exact)),
                "size_pmf_oracle": digest(str([oracle[n] for n in range(1, 31)]))}

    def steps(self):
        for p in count():
            rng = np.random.default_rng([self.seed, p, 0xE1])
            n_lo, n_hi = (100, 110) if self.small else (395, 405)
            params = {
                "size_exact": int(rng.integers(n_lo, n_hi + 1)),
                "size_float": int(rng.integers(n_lo, n_hi + 1)),
                "pushforward": float(10 ** -rng.uniform(2.0, 2.02) if self.small
                                     else 10 ** -rng.uniform(2.98, 3.02)),
                "length_cdf": float(rng.uniform(115.0, 125.0)),
                "length_pdf": float(rng.uniform(115.0, 125.0)),
                "coloring": float(rng.uniform(0.2, 0.8)),
                "attractor": float(rng.uniform(0.2, 0.6)),
            }
            for kind, v in params.items():
                yield p, (lambda kind=kind, v=v: self._eval(kind, v))

    def _eval(self, kind, v):
        from igwlab import analytics as ana
        from igwlab import experiments as xp
        from igwlab import offspring as off

        t0 = clock()
        if kind == "size_exact":
            val = ana.size_cdf(Fraction(1, 2), v)
        elif kind == "size_float":
            val = ana.size_cdf(0.5, v)
        elif kind == "pushforward":
            val = ana.pushforward_offspring(off.from_spec("zipf:1.5"), v)
        elif kind in ("length_cdf", "length_pdf"):
            val = getattr(ana, kind)(0.5, 1.0, v)
        elif kind == "coloring":
            val = ana.coloring_survival(off.from_spec("binary"), v)
        else:
            val = xp.run_attractor_gf(xp.ExperimentSpec(dist=f"geom:{v!r}"))
        t = clock() - t0
        if kind == "size_exact":
            fp = (kind, v, digest(str(val)))
        elif kind == "pushforward":
            fp = (kind, v, val.g0, float(val.pmf.sum()), val.tail_mass)
        elif kind == "attractor":
            fp = (kind, v, val["g0_final"])
        else:
            fp = (kind, v, val)
        return StepOut([t], fp, evals=1, check=lambda: self._check(kind, v, val))

    def _check(self, kind, v, val):
        from igwlab import analytics as ana

        if kind == "size_exact":
            _expect(val == _binary_size_cdf(v), f"size_cdf(1/2, {v}) differs from Catalan sum")
            return
        if kind == "pushforward":
            total = float(val.pmf.sum()) + val.tail_mass
            _expect(np.all(val.pmf >= 0) and abs(total - 1.0) <= 1e-8 and 0 < val.g0 < 1,
                    f"pushforward(zipf:1.5, {v}) is not a probability law")
            return
        if kind == "attractor":
            _expect(val["passed"], f"attractor_gf verdict failed for geom:{v!r}")
            return
        if kind == "size_float":
            want = float(_binary_size_cdf(v))
        elif kind == "coloring":
            want = math.sqrt(1.0 - v)
        else:
            want = getattr(ana, f"{kind}_bessel_binary")(1.0, v)
        _expect(abs(val - want) <= self.rtol * abs(want), f"{kind}({v}) = {val!r}, oracle {want!r}")

    @classmethod
    def same_pass0(cls, ref, cur):
        """Exact rationals by digest, floats within ``ref_rtol``."""
        if len(ref) != len(cur):
            return False
        for a, b in zip(ref, cur):
            if len(a) != len(b) or a[:2] != b[:2]:
                return False
            for x, y in zip(a[2:], b[2:]):
                if isinstance(x, float):
                    if not abs(x - y) <= cls.ref_rtol * max(abs(x), abs(y)):
                        return False
                elif x != y:
                    return False
        return True


# --------------------------------------------------------------------- #
# tree-io                                                                 #
# --------------------------------------------------------------------- #


class TreeIO:
    """The per-tree loop of ``igwlab sample/prune/color``: binary, budget 1e6, lambda 1.

    Per tree: ``to_newick``, ``from_newick``, scalar ``gdp_prune`` (height,
    t = 2, the README setting), ``bernoulli_color`` with a fresh
    ``CounterStream`` (seed, tree, domain 7) as the CLI does, and
    ``semigroup_check`` on every fourth medium tree (below).  Small trees
    skip it, so that every operation near the median does the same steps.

    Tree cost grows faster than size and sizes are heavy-tailed, so a plain
    forest of affordable size would let its few largest trees set every
    timing.  The forest is therefore built from four groups, each the first
    trees of its own seeded stream that fall in an edge-count range:

    * 512 trees below 256 edges, in their natural proportions: most
      operations, and the median operation;
    * 48 trees of 1024-2047 edges: most of the pass time;
    * 4 trees of 8192-9010 edges, whose cost varies little: the tail;
    * 1 tree at least 768 levels deep (and at most 2^18 edges).  The Newick
      code recurses once per level and raises ``RecursionError`` on it, and
      on any other tree deeper than about 490 levels; each counts as a
      failed operation.  Any other error, or an error in another stage,
      is a defect and fails the run.

    A stream with budget B yields exactly the budget-1e6 trees of at most B
    edges, so each group is drawn at its own budget, which keeps input
    generation cheap.
    """

    name = "tree-io"
    pass_s = 4.0  # typical wall seconds of one untraced pass
    laws = ("binary",)
    prune_t = 2.0
    # (label, fewest edges, budget = most edges, fewest levels, count)
    groups = (("small", 1, 255, 0, 512), ("medium", 1024, 2047, 0, 48),
              ("large", 8192, 9010, 0, 4), ("deep", 1, 1 << 18, 768, 1))

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self.trees: list = []

    def prepare(self):
        from igwlab import offspring as off
        from igwlab import sampler as smp

        d = off.from_spec("binary")
        groups = self.groups[:2] if self.small else self.groups
        for label, lo, budget, levels, n in groups:
            if self.small:
                n = n // 8
            s = derive(self.seed, self.name, label)
            got = []
            # chunks of at most ~2^24 budgeted vertices, so that a censored
            # tree's rows do not set the peak memory of the run
            chunk = min(512, max(64, (1 << 24) // budget))
            for trees, _ in smp.iter_forest(d, s, 1 << 20, budget=budget, lam=1.0, chunk=chunk):
                got += [t for t in trees if t is not None and t.n_edges >= lo
                        and len(t.gen_starts()) - 1 >= levels][: n - len(got)]
                if len(got) == n:
                    break
            self.trees += got
        self.color_seed = derive(self.seed, self.name, "color")

    def gate(self) -> dict:
        from igwlab import offspring as off
        from igwlab import sampler as smp

        d = off.from_spec("binary")
        s = derive(self.seed, self.name, "gate")
        trees, _ = smp.sample_forest(d, s, 256, budget=10 ** 4, lam=1.0)
        _scalar_redraw(d, s, 10 ** 4, 1.0, trees)
        return {"inputs": digest(*[_tree_digest(t) for t in self.trees]),
                "forest": _forest_digest(trees)}

    def steps(self):
        for p in count():
            for i, t in enumerate(self.trees):
                yield p, (lambda i=i, t=t: self._tree(i, t))

    def _tree(self, i, t):
        from igwlab import newick as nw
        from igwlab import pruning as pr
        from igwlab.rng import CounterStream

        stage = "write"
        t0 = clock()
        try:
            text = nw.to_newick(t)
            stage = "read"
            back = nw.from_newick(text)
        except RecursionError as e:  # the known depth limit: one failed operation
            t1 = clock()
            return StepOut([t1 - t0], (i, "raised", stage, type(e).__name__), failed=1)
        pres = pr.gdp_prune(t, "height", self.prune_t)
        cres = pr.bernoulli_color(t, 0.5, CounterStream(self.color_seed, i, domain=7))
        eq = True
        if i % 4 == 0 and 1024 <= t.n_edges and t.n_vertices <= 2048:
            eq, _, _ = pr.semigroup_check(t, "height", 0.3, 0.3)
        t1 = clock()
        fp = (i, "ok", hashlib.sha256(text.encode()).hexdigest()[:16],
              _tree_digest(pres.tree)[:16], _tree_digest(cres.tree)[:16])
        return StepOut([t1 - t0], fp,
                       check=lambda: self._check(i, t, back, pres, cres, eq))

    def _check(self, i, t, back, pres, cres, eq):
        from igwlab.rng import CounterStream

        _expect(back.n_vertices == t.n_vertices
                and np.array_equal(np.sort(back.length), np.sort(t.length))
                and np.array_equal(np.sort(back.children_counts()), np.sort(t.children_counts())),
                f"tree {i} does not survive the Newick round trip")
        h = t.tree_height()
        _expect(pres.survived == (h > self.prune_t), f"height pruning survival wrong on tree {i}")
        if pres.survived:
            _expect(abs(pres.tree.tree_height() - (h - self.prune_t)) <= 1e-9 * h,
                    f"pruned height of tree {i} is not height - t")
        nleaves = int(np.count_nonzero(t.children_counts() == 0))
        kept = int(CounterStream(self.color_seed, i, domain=7).bernoulli(nleaves, 0.5).sum())
        _expect(cres.survived == (kept > 0) and cres.tree.leaf_count() == kept,
                f"colored tree {i} does not keep exactly the selected leaves")
        _expect(eq, f"height pruning is not a semigroup on tree {i}")

    @staticmethod
    def same_pass0(ref, cur):
        """Trees that passed at recording must give the same outputs; trees
        that raised at recording may now pass (a fix), checked by oracles."""
        if len(ref) != len(cur):
            return False
        return all(a == b or a[1] == "raised" for a, b in zip(ref, cur))


WORKLOADS = {w.name: w for w in (StatsVerify, ForestPrune, ExactLaws, TreeIO)}
