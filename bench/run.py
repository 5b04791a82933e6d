"""Benchmark of igwlab: one seeded workload per process, closed loop of one caller.

Run from the repository root:

    python3 bench/run.py --workload stats-verify --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
measures the same operations twice, untraced and then under the span tracer,
and reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Lines above it, starting with ``#``, give every metric with
its unit and sample count, the machine, and the load average.

The exit code is 0 only when every output passed its check.  The benchmark
imports igwlab from ``src/`` of the checkout it sits in and never from an
installed copy.  ``--record`` rewrites this workload's entry of
``bench/reference.json`` from a run at the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

# one thread per process for numpy's libraries, here and in the set-up children
THREAD_CAP = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_CAP)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 0
SETUP_REPEATS = 3

sys.path.insert(0, HERE)

from speed import Speed  # noqa: E402
from workloads import WORKLOADS, StepOut  # noqa: E402


def _import_igwlab():
    if not os.path.isfile(os.path.join(SRC, "igwlab", "__init__.py")):
        sys.exit(f"bench: no igwlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import igwlab

    if os.path.dirname(os.path.abspath(igwlab.__file__)) != os.path.join(SRC, "igwlab"):
        sys.exit(f"bench: imported igwlab from {igwlab.__file__}, not from {SRC}")
    return igwlab


# --------------------------------------------------------------------- #
# Machine record and set-up time                                          #
# --------------------------------------------------------------------- #


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_cap": THREAD_CAP,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            def read(f):
                with open(os.path.join(base, idx, f)) as fh:
                    return fh.read().strip()
            if read("type") != "Instruction":
                info[f"L{read('level')}"] = read("size")
    except OSError:
        pass
    return info


_SETUP_CODE = """
import sys, time
w0 = time.perf_counter()
sys.path.insert(0, {src!r})
import igwlab
from igwlab import offspring, sampler
for law in {laws!r}:
    sampler.sample_stats(offspring.from_spec(law), 0, 1, budget=1)
print(time.perf_counter() - w0)
"""


def setup_seconds(laws, repeats, speed) -> list:
    """(wall seconds, speed factor) of import plus CDF-table builds, each in a fresh interpreter."""
    code = _SETUP_CODE.format(src=SRC, laws=tuple(laws))
    out = []
    for _ in range(repeats):
        speed.sample()
        t0 = perf_counter()
        r = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                           text=True, timeout=120, env={**os.environ, **THREAD_CAP})
        if r.returncode != 0:
            sys.exit(f"bench: set-up child failed:\n{r.stderr}")
        t1 = perf_counter()
        speed.sample()
        out.append((float(r.stdout.split()[-1]), speed.factor(t0, t1)))
    return out


# --------------------------------------------------------------------- #
# The closed loop                                                         #
# --------------------------------------------------------------------- #


class Phase:
    """The closed loop: one caller issues the workload's steps for ``passes`` passes.

    Operations are timed on the wall clock.  Between steps, and between the
    chunks of a forest experiment, the loop samples the machine speed (see
    speed.py).  A run makes a whole number of passes, fixed by the workload and
    ``--seconds`` (see :func:`pass_count`), so every run of a seed issues the
    same operations and reports the same ``attempted`` and ``failed``.

    With a tracer, every step runs twice, untraced and traced, in alternating
    order so that warm caches favour neither; the CDF-table cache is emptied
    before each execution so both build their tables.  The untraced results
    are kept in ``steps``, the traced ones in ``traced``.  Both executions go
    through the same frames of this class, so the program runs at the same
    stack depth in both.

    A step that raises is a defect: it is recorded in ``mismatches`` and the
    run fails.  The errors a workload expects are caught by the workload and
    counted in ``StepOut.failed``.
    """

    def __init__(self, chunks, speed, tracer=None):
        self.chunks = chunks
        self.speed = speed
        self.tracer = tracer
        self.steps: list = []   # (pass index, StepOut)
        self.traced: list = []
        self.mismatches: list = []

    def run(self, wl, passes):
        import igwlab.sampler as smp

        order = (False,) if self.tracer is None else (False, True)
        self.passes = passes
        self.chunks.install()
        try:
            for k, (p, fn) in enumerate(wl.steps()):
                if p == passes:
                    break
                self.speed.maybe_sample()
                for traced in (order if k % 2 == 0 else order[::-1]):
                    if self.tracer is not None:
                        smp._table_cache.clear()
                    out = self._execute(wl, k, fn, traced)
                    self._check(wl, k, out)
                    (self.traced if traced else self.steps).append((p, out))
                if self.tracer is not None and (
                        self.traced[-1][1].fingerprint != self.steps[-1][1].fingerprint):
                    self.mismatches.append(f"{wl.name} step {k}: traced output differs")
        finally:
            self.chunks.uninstall()
        self.speed.sample()
        return self

    def _execute(self, wl, k, fn, traced):
        if not traced:
            return self._call(wl, k, fn)
        self.chunks.uninstall()
        self.tracer.install()
        try:
            return self._call(wl, k, fn)
        finally:
            self.tracer.uninstall()
            self.chunks.install()

    def _call(self, wl, k, fn):
        w0 = perf_counter()
        try:
            out = fn()
        except Exception as e:  # a wrong verdict (Mismatch) or a defect: the run fails
            traceback.print_exc()
            self.mismatches.append(f"{wl.name} step {k}: {type(e).__name__}: {e}")
            out = StepOut([perf_counter() - w0], ("raised", type(e).__name__), failed=1)
        out.start = w0
        return out

    def _check(self, wl, k, out):
        """The step's oracle comparison, outside timing and tracing."""
        if out.check is None:
            return
        try:
            out.check()
        except Exception as e:
            traceback.print_exc()
            self.mismatches.append(f"{wl.name} step {k}: {type(e).__name__}: {e}")
            out.failed += 1

    def fingerprints(self, p=None):
        return [out.fingerprint for q, out in self.steps if p is None or q == p]

    def _times(self, out, calibrated):
        """The step's operation times, each scaled by the machine speed around it."""
        if not calibrated:
            return [float(t) for t in out.ops]
        starts = out.starts or [out.start] * len(out.ops)
        return [float(t) * self.speed.factor(s, s + t) for s, t in zip(starts, out.ops)]

    def ops(self, which="steps", calibrated=False) -> list:
        return [t for _, out in getattr(self, which) for t in self._times(out, calibrated)]

    def total(self, attr) -> int:
        return sum(getattr(out, attr) for _, out in self.steps)


def _tail(xs):
    """Highest percentile with at least 10 samples beyond it, and that percentile."""
    xs = sorted(xs)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def pass_count(wl, seconds, traced) -> int:
    """Passes a run makes: the fewest that fill ``seconds`` at the workload's
    typical pass time (``pass_s``), at least one.  A traced run executes
    every step twice, so each of its passes takes twice as long."""
    per = wl.pass_s * (2 if traced else 1)
    return max(1, math.ceil(seconds / per))


def _jsonable(x):
    return json.loads(json.dumps(x, default=lambda o: o.item()))


# --------------------------------------------------------------------- #
# Main                                                                    #
# --------------------------------------------------------------------- #


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny sizes, for the smoke tests")
    ap.add_argument("--record", action="store_true",
                    help="rewrite this workload's entry of reference.json")
    args = ap.parse_args(argv)

    load_before = os.getloadavg()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    _import_igwlab()
    from tracer import ChunkClock, Tracer

    mach = machine()
    wl = WORKLOADS[args.workload](args.seed, small=args.small)
    speed = Speed()
    setups = setup_seconds(wl.laws, 1 if args.small else SETUP_REPEATS, speed)
    chunks = ChunkClock(between=speed.maybe_sample)
    tracer = Tracer() if args.trace else None
    wl.marks = chunks.marks
    t0 = perf_counter()
    wl.prepare()
    prepare_s = perf_counter() - t0
    passes = pass_count(wl, args.seconds, tracer is not None)
    a = Phase(chunks, speed, tracer).run(wl, passes)
    # peak memory of the loop, before the gate draws its own forests
    rss = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    layer = {}
    if tracer is not None:
        layer = tracer.layer_metrics(a.passes)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.npz"))
    mismatches = list(a.mismatches)
    pass0 = _jsonable(a.fingerprints(0))
    t0 = perf_counter()
    gate = wl.gate()
    if tracer is not None:
        tracer.clear()
        tracer.install()
        try:
            traced_gate = wl.gate()
        finally:
            tracer.uninstall()
        if traced_gate != gate:
            mismatches.append("traced gate digests differ from the untraced ones")
    gate_s = perf_counter() - t0

    checked_ref = False
    if args.seed == DEFAULT_SEED and not args.small:
        if args.record:
            _record(wl.name, gate, pass0, mach)
        ref = _load_reference().get("workloads", {}).get(wl.name)
        if ref is not None:
            checked_ref = True
            if ref["gate"] != gate:
                mismatches.append(f"gate digests differ from reference.json: {gate}")
            if not wl.same_pass0(ref["pass0"], pass0):
                mismatches.append("pass-0 outputs differ from reference.json")

    ops = a.ops(calibrated=True)
    measured = sum(ops)
    tail, tail_pct = _tail(ops)
    attempted = len(ops)
    failed = a.total("failed")
    raw = a.ops()
    e2e = {
        "setup_s": (statistics.median(w * f for w, f in setups), "s"),
        "wall_s": (measured / a.passes, "s"),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }
    info = {
        "setup_raw_s": (statistics.median(w for w, _ in setups), "s"),
        "wall_raw_s": (sum(raw) / a.passes, "s"),
        "op_raw_p50_ms": (statistics.median(raw) * 1e3, "ms"),
        "op_raw_tail_ms": (_tail(raw)[0] * 1e3, "ms"),
        "kernel_ms": (statistics.median(speed.wall) * 1e3, "ms"),
        "replicates_per_s": (a.total("replicates") / measured, "1/s"),
        "evals_per_s": (a.total("evals") / measured, "1/s"),
        "fail_share": (failed / attempted, "share"),
    }
    if tracer is not None:
        base = sum(raw)
        layer["trace.overhead_share"] = (sum(a.ops("traced")) - base) / base
        # the traced executions draw exactly the vertices the untraced ones do
        info["vertices_per_s"] = (layer["sampler.vertices"] * a.passes / measured, "1/s")
    correct = not mismatches
    load_after = os.getloadavg()

    print(f"# igwlab benchmark  workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} small={args.small}")
    print(f"# machine {json.dumps(mach)}")
    print(f"# loadavg before={list(load_before)} after={list(load_after)}")
    print(f"# samples setup={len(setups)} passes={a.passes} ops={attempted} "
          f"op_tail=p{tail_pct:.1f} prepare_s={prepare_s:.3f} gate_s={gate_s:.3f} "
          f"reference_checked={checked_ref}")
    for name, (v, unit) in {**e2e, **info}.items():
        print(f"# {name} = {v!r} {unit}")
    for name, v in layer.items():
        print(f"# {name} = {v!r} {units[name]}")
    raised = Counter(" ".join(map(str, out.fingerprint[-2:]))
                     for _, out in a.steps for _ in range(out.failed))
    if raised:
        print(f"# failed operations by stage and error: {dict(raised)}")
    for m in mismatches:
        print(f"# MISMATCH {m}")
    if args.trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _record(name, gate, pass0, mach):
    ref = _load_reference()
    ref["default_seed"] = DEFAULT_SEED
    ref.setdefault("workloads", {})[name] = {"gate": gate, "pass0": pass0, "machine": mach}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
