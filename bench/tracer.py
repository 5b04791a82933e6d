"""Span tracing and a chunk clock installed on igwlab from outside ``src/``.

Both installers replace module attributes and class methods at run time and
put the originals back on ``uninstall``.  A function is replaced in every
``igwlab.*`` module that holds it, so ``from .rng import block_uniforms`` in
the sampler is caught as well as ``rng.block_uniforms``; methods are
replaced on their class, which catches every caller.

* :class:`ChunkClock` is all the untraced run installs: a clock on the
  resumptions of ``sampler.iter_forest``, so that forest-prune can time each
  experiment chunk (one chunk per resumption), and take machine-speed
  samples between chunks.  ``iter_forest`` does not recurse, so its extra
  frame changes no recursion depth.
* :class:`Tracer` wraps the public functions and methods of every layer.
  Each call is one span (name, start, end, parent); spans stay in compact
  arrays until the run ends.  Self time is a span's duration minus the
  durations of its direct children (one thread, so children never overlap).
  Each wrapper adds one Python frame, and the recursive Newick code raises
  ``RecursionError`` at a fixed depth; so a wrapper raises the recursion
  limit by one while its frame is on the stack, and the traced program
  fails on exactly the trees the untraced one fails on.

Every clock here is the wall clock (``perf_counter``), so work that a layer
hands to other threads or processes is counted in the time it takes.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from array import array
from sys import getrecursionlimit, setrecursionlimit
from fractions import Fraction
from time import perf_counter as clock

import numpy as np

LAYERS = ("rng", "offspring", "sampler", "trees", "newick", "pruning",
          "analytics", "gof", "experiments")

# private callables that carry a layer's work and have no public entry
_EXTRA = {
    ("sampler", "_CdfTable", "__init__"): "offspring.table_build",
    ("pruning", "_ForestArrays", "__init__"): "pruning._ForestArrays.__init__",
}

# the forest engine of pruning.py; every other pruning span is the scalar engine
_FOREST = {"pruning._ForestArrays.__init__", "pruning.ForestReduction.__init__",
           "pruning.PrunedForest.__init__", "pruning.color_forest",
           "pruning.ForestReduction.pooled_lengths",
           "pruning.ForestReduction.extract_reduced", "pruning.ForestReduction.scatter"}
_SCALAR_TREE_CALLS = {"pruning.gdp_prune", "pruning.bernoulli_color"}
_WRITE = {"newick.to_newick", "newick.to_json"}
_READ = {"newick.from_newick", "newick.from_json"}
_PUSHFORWARD = {"analytics.pushforward_offspring", "analytics.pushforward_Q",
                "analytics.pushforward_Q_prime"}
_SERIES = {"analytics.length_pdf", "analytics.length_cdf", "analytics.length_cdf_grid",
           "analytics.length_pdf_bessel_binary", "analytics.length_cdf_bessel_binary",
           "analytics.bessel_i0", "analytics.bessel_i1", "analytics.size_pmf[float]",
           "analytics.size_cdf[float]"}
_SIZE_EXACT = {"analytics.size_pmf[exact]", "analytics.size_cdf[exact]",
               "analytics.size_pmf_oracle", "analytics.B_fraction"}

# per-layer totals, reported per pass; the other metrics are rates, shares and maxima
PER_PASS = ("rng.calls", "rng.blocks", "rng.busy_s", "sampler.self_s", "sampler.vertices",
            "sampler.censored_trees", "offspring.table_build_s", "offspring.busy_s",
            "pruning.forest_self_s", "pruning.scalar_self_s", "trees.self_s", "trees.calls",
            "newick.write_s", "newick.read_s", "newick.fail_count", "analytics.self_s",
            "analytics.calls", "analytics.size_exact_s", "analytics.pushforward_s",
            "analytics.series_s", "gof.self_s", "gof.samples", "experiments.self_s",
            "trace.spans")


def _igwlab_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "igwlab" or k.startswith("igwlab."))]


class _Patcher:
    """A planned set of attribute replacements, applied and undone as one."""

    def __init__(self):
        self._plan: list = []  # (owner, name, original, replacement)

    def everywhere(self, original, replacement):
        for mod in _igwlab_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._plan.append((mod, name, value, replacement))

    def on_class(self, cls, attr, replacement):
        self._plan.append((cls, attr, cls.__dict__[attr], replacement))

    def install(self):
        for owner, name, _, new in self._plan:
            setattr(owner, name, new)

    def uninstall(self):
        for owner, name, old, _ in reversed(self._plan):
            setattr(owner, name, old)


def _targets():
    """(owner, attribute, raw object, span name) for every wrapped callable."""
    import igwlab  # noqa: F401  (loads every layer module)

    out = []
    for layer in LAYERS:
        mod = sys.modules[f"igwlab.{layer}"]
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            extra = {k[2]: v for k, v in _EXTRA.items() if k[:2] == (layer, name)}
            if name.startswith("_") and not extra:
                continue
            if inspect.isfunction(obj):
                out.append((mod, name, obj, f"{layer}.{name}"))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                is_dc = dataclasses.is_dataclass(obj)
                for attr, raw in list(vars(obj).items()):
                    if attr in extra:
                        out.append((obj, attr, raw, extra[attr]))
                        continue
                    if name.startswith("_") or (attr.startswith("_") and attr != "__init__"):
                        continue
                    if attr == "__init__" and is_dc:
                        continue
                    if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                        out.append((obj, attr, raw, f"{layer}.{name}.{attr}"))
    return out


def _plan(patcher, targets, make):
    for owner, attr, raw, span in targets:
        if isinstance(raw, (staticmethod, classmethod)):
            patcher.on_class(owner, attr, type(raw)(make(raw.__func__, span)))
        elif inspect.isclass(owner):
            patcher.on_class(owner, attr, make(raw, span))
        else:
            patcher.everywhere(raw, make(raw, span))


# --------------------------------------------------------------------- #
# Chunk clock (untraced runs)                                             #
# --------------------------------------------------------------------- #


class ChunkClock:
    """Wall clock at every request for the next chunk of ``iter_forest``.

    Each request appends ``(asked, resumed)`` to ``marks``: when the caller
    asked for the next chunk, and when the chunk's work resumed after
    ``between`` (a machine-speed sample) ran.
    """

    def __init__(self, between):
        self.marks: list = []
        self._patch = _Patcher()
        import igwlab.sampler as smp

        iter_forest = smp.iter_forest

        def clocked(*a, **k):
            marks = self.marks
            for item in iter_forest(*a, **k):
                yield item
                asked = clock()
                between()
                marks.append((asked, clock()))

        self._patch.everywhere(iter_forest, clocked)

    def install(self):
        self._patch.install()

    def uninstall(self):
        self._patch.uninstall()


# --------------------------------------------------------------------- #
# Tracer                                                                  #
# --------------------------------------------------------------------- #


class Tracer:
    """Span recorder over every public callable of the layer modules."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict = {}
        self.clear()
        self._patch = _Patcher()
        _plan(self._patch, _targets(), self._wrap)

    def clear(self):
        self.sid = array("q")
        self.nid = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.raised = array("b")
        self.stack: list = []
        self.n = 0
        self.counts: dict = {}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def install(self):
        self._patch.install()

    def uninstall(self):
        self._patch.uninstall()

    def _wrap(self, f, name):
        hook = _HOOKS.get(name)
        if name in ("analytics.size_pmf", "analytics.size_cdf"):
            hook = _size_kind(name)
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(f):
            return self._wrap_generator(f, nid, hook)
        tr = self

        def wrapper(*a, **k):
            stack = tr.stack
            parent = stack[-1] if stack else -1
            sid = tr.n
            tr.n = sid + 1
            stack.append(sid)
            failed = 1
            limit = getrecursionlimit()
            setrecursionlimit(limit + 1)  # this frame is the tracer's, not the program's
            t0 = clock()
            try:
                r = f(*a, **k)
                failed = 0
                return r
            finally:
                t1 = clock()
                setrecursionlimit(limit)
                stack.pop()
                span = nid
                if hook is not None and not failed:
                    span = hook(tr, a, k, r) or nid
                tr._record(sid, span, t0, t1, parent, failed)

        wrapper.__wrapped__ = f
        return wrapper

    def _wrap_generator(self, f, nid, hook):
        """The layers' generators (``iter_forest``) do not recurse, so this
        wrapper leaves the recursion limit alone."""
        tr = self

        def wrapper(*a, **k):
            it = f(*a, **k)
            while True:
                stack = tr.stack
                parent = stack[-1] if stack else -1
                sid = tr.n
                tr.n = sid + 1
                stack.append(sid)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    tr._record(sid, nid, t0, clock(), parent, 0)
                    stack.pop()
                    return
                except BaseException:
                    tr._record(sid, nid, t0, clock(), parent, 1)
                    stack.pop()
                    raise
                t1 = clock()
                stack.pop()
                if hook is not None:
                    hook(tr, a, k, item)
                tr._record(sid, nid, t0, t1, parent, 0)
                yield item

        wrapper.__wrapped__ = f
        return wrapper

    def _record(self, sid, nid, t0, t1, parent, failed):
        self.sid.append(sid)
        self.nid.append(nid)
        self.t0.append(t0)
        self.t1.append(t1)
        self.parent.append(parent)
        self.raised.append(failed)

    # -- results ---------------------------------------------------------- #

    def arrays(self):
        """Span columns ordered by span id: name, t0, t1, parent, raised."""
        order = np.argsort(np.frombuffer(self.sid, dtype=np.int64), kind="stable")
        cols = {k: np.frombuffer(getattr(self, k), dtype=dt)[order]
                for k, dt in (("nid", np.int32), ("t0", np.float64), ("t1", np.float64),
                              ("parent", np.int64), ("raised", np.int8))}
        return cols

    def save(self, path):
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)

    def layer_metrics(self, passes: int) -> dict:
        """Every per-layer metric of the benchmark, from the recorded spans.

        The spans cover ``passes`` complete passes of the workload; totals
        (counts and seconds) are given per pass, so that runs of different
        ``--seconds`` compare.
        """
        c = self.arrays()
        n = len(c["nid"])
        names = np.array(self.names + [""])
        span_name = names[c["nid"]] if n else np.array([], dtype=str)
        layer = np.array([s.split(".", 1)[0] for s in span_name]) if n else span_name
        dur = c["t1"] - c["t0"]
        par = c["parent"]
        has_par = par >= 0
        child = np.zeros(n)
        np.add.at(child, par[has_par], dur[has_par])
        self_t = dur - child

        def sel(names_set):
            return np.isin(span_name, list(names_set)) if n else np.zeros(0, dtype=bool)

        def top(mask):
            """Spans of the set whose parent is outside it: inclusive time."""
            if not n:
                return mask
            inside = np.zeros(n, dtype=bool)
            inside[has_par] = mask[par[has_par]]
            return mask & ~inside

        def rate(num, den):
            return float(num) / float(den) if den > 0 else 0.0

        is_layer = {L: layer == L for L in LAYERS}
        incl = {L: float(dur[top(is_layer[L])].sum()) for L in LAYERS}
        selfs = {L: float(self_t[is_layer[L]].sum()) for L in LAYERS}
        cnt = self.counts

        philox = sel({"rng.philox4x32"})
        forest = sel(_FOREST)
        scalar = is_layer["pruning"] & ~forest
        scalar_top = top(scalar)
        write = top(sel(_WRITE))
        read = top(sel(_READ))
        newick_top = top(is_layer["newick"])
        ana_top = top(is_layer["analytics"])
        sampler_vertices = cnt.get("sampler.vertices", 0)

        m = {
            "rng.calls": int(philox.sum()),
            "rng.blocks": int(cnt.get("rng.blocks", 0)),
            "rng.busy_s": incl["rng"],
            "rng.blocks_per_s": rate(cnt.get("rng.blocks", 0), dur[philox].sum()),
            "rng.lanes_max": int(cnt.get("rng.lanes_max", 0)),
            "sampler.self_s": selfs["sampler"],
            "sampler.vertices": int(sampler_vertices),
            "sampler.vertices_per_s": rate(sampler_vertices, incl["sampler"]),
            "sampler.censored_trees": int(cnt.get("sampler.censored", 0)),
            "sampler.useful_share": rate(cnt.get("sampler.useful", 0), sampler_vertices),
            "offspring.table_build_s": float(dur[sel({"offspring.table_build"})].sum()),
            "offspring.busy_s": incl["offspring"],
            "pruning.forest_self_s": float(self_t[forest].sum()),
            "pruning.forest_vertices_per_s": rate(cnt.get("pruning.forest_vertices", 0),
                                                  dur[top(forest)].sum()),
            "pruning.survivor_share": rate(cnt.get("pruning.survivors", 0),
                                           cnt.get("pruning.forest_trees", 0)),
            "pruning.scalar_self_s": float(self_t[scalar].sum()),
            "pruning.scalar_trees_per_s": rate((scalar_top & sel(_SCALAR_TREE_CALLS)).sum(),
                                               dur[scalar_top].sum()),
            "trees.self_s": selfs["trees"],
            "trees.calls": int(is_layer["trees"].sum()),
            "newick.write_s": float(dur[write].sum()),
            "newick.read_s": float(dur[read].sum()),
            "newick.write_mb_per_s": rate(cnt.get("newick.bytes_written", 0) / 1e6,
                                          dur[write].sum()),
            "newick.read_mb_per_s": rate(cnt.get("newick.bytes_read", 0) / 1e6,
                                         dur[read].sum()),
            "newick.fail_count": int((newick_top & (c["raised"] == 1)).sum()),
            "analytics.self_s": selfs["analytics"],
            "analytics.calls": int(ana_top.sum()),
            "analytics.calls_per_s": rate(ana_top.sum(), incl["analytics"]),
            "analytics.size_exact_s": float(dur[top(sel(_SIZE_EXACT))].sum()),
            "analytics.pushforward_s": float(dur[top(sel(_PUSHFORWARD))].sum()),
            "analytics.series_s": float(dur[top(sel(_SERIES))].sum()),
            "gof.self_s": selfs["gof"],
            "gof.samples": int(cnt.get("gof.samples", 0)),
            "experiments.self_s": selfs["experiments"],
            "trace.spans": n,
        }
        for k in PER_PASS:
            m[k] = m[k] / passes
        return m


# --------------------------------------------------------------------- #
# Count hooks: (tracer, args, kwargs, result) -> optional span-name id    #
# --------------------------------------------------------------------- #


def _philox(tr, a, k, r):
    lanes = int(np.size(a[1] if len(a) > 1 else k["counter"]))
    tr.add("rng.blocks", lanes)
    if lanes > tr.counts.get("rng.lanes_max", 0):
        tr.counts["rng.lanes_max"] = lanes


def _block_uniforms(tr, a, k, r):
    tr.add("sampler.vertices", int(np.size(a[1] if len(a) > 1 else k["counter"])))


def _sample_stats(tr, a, k, st):
    tr.add("sampler.censored", int(st.censored.sum()))
    tr.add("sampler.useful", int(st.edges[~st.censored].sum()))


def _iter_forest(tr, a, k, item):
    trees, cen = item
    tr.add("sampler.censored", int(cen.sum()))
    tr.add("sampler.useful", sum(t.n_vertices - 1 for t in trees if t is not None))


def _sample_one(tr, a, k, out):
    if out.censored:
        tr.add("sampler.censored", 1)
    else:
        tr.add("sampler.useful", int(out.nodes_generated))


def _forest_arrays(tr, a, k, r):
    tr.add("pruning.forest_vertices", int(a[0].V))


def _forest_result(red):
    def hook(tr, a, k, r):
        obj = a[0] if red == "self" else r
        tr.add("pruning.survivors", int(obj.survived.sum()))
        tr.add("pruning.forest_trees", int(obj.fa.R))
    return hook


def _newick_out(tr, a, k, text):
    tr.add("newick.bytes_written", len(text))


def _newick_in(tr, a, k, r):
    tr.add("newick.bytes_read", len(a[0] if a else k["text"]))


def _gof_len(tr, a, k, r):
    tr.add("gof.samples", len(a[0]))


def _gof_counts(tr, a, k, r):
    tr.add("gof.samples", int(np.asarray(a[0]).sum()))


def _size_kind(name):
    """Rename the span after the arithmetic: exact rationals or floats."""
    def hook(tr, a, k, r):
        q = a[0] if a else k["q"]
        return tr._name_id(f"{name}[{'exact' if isinstance(q, Fraction) else 'float'}]")
    return hook


_HOOKS = {
    "rng.philox4x32": _philox,
    "rng.block_uniforms": _block_uniforms,
    "sampler.sample_stats": _sample_stats,
    "sampler.iter_forest": _iter_forest,
    "sampler.sample_metric": _sample_one,
    "sampler.sample_shape": _sample_one,
    "pruning._ForestArrays.__init__": _forest_arrays,
    "pruning.PrunedForest.__init__": _forest_result("self"),
    "pruning.color_forest": _forest_result("result"),
    "newick.to_newick": _newick_out,
    "newick.to_json": _newick_out,
    "newick.from_newick": _newick_in,
    "newick.from_json": _newick_in,
    "gof.ks_statistic": _gof_len,
    "gof.fit_exponential_rate": _gof_len,
    "gof.shape_frequency": _gof_len,
    "gof.chi_square_pmf": _gof_counts,
}
