"""Command-line front end.

Verbs: sample, prune, color, dist, verify, invariance, falsify, attractor,
semigroup, thinning, report.  Distributions are addressed by spec strings
(igw:0.5, zipf:1.5, geom:0.5, binary, table:<path>).  Exit code 0 means
every verdict in the run passed.

A config file (flat ``key = value`` lines, # comments) can preload any
experiment option; command-line flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from itertools import islice

import numpy as np

from . import analytics as ana
from . import experiments as xp
from . import pruning as pr
from . import sampler as smp
from .newick import from_newick, to_newick
from .offspring import from_spec

_SPEC_FIELDS = {f: t for f, t in (
    ("dist", str), ("lam", float), ("phi", str), ("threshold", float),
    ("survival_target", float), ("n", int), ("seed", int), ("budget", int),
    ("p", float), ("max_censor_rate", float), ("alpha", float), ("chunk", int),
)}


def read_config(path: str) -> dict:
    """Flat key = value lines; types follow the experiment spec fields."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            k, v = (s.strip() for s in line.split("=", 1))
            if k not in _SPEC_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown key {k!r}")
            out[k] = _SPEC_FIELDS[k](v)
    return out


def _spec_from(args) -> xp.ExperimentSpec:
    kw = {}
    if getattr(args, "config", None):
        kw.update(read_config(args.config))
    for f in _SPEC_FIELDS:
        v = getattr(args, f, None)
        if v is not None:
            kw[f] = v
    return xp.ExperimentSpec(**kw)


def _add_spec_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--dist", help="offspring law spec, e.g. igw:0.5")
    p.add_argument("--lam", "--lambda", dest="lam", type=float, help="edge rate")
    p.add_argument("--phi", choices=["height", "length", "leaves", "ord"])
    p.add_argument("--threshold", "--t", dest="threshold", type=float)
    p.add_argument("--survival-target", dest="survival_target", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--p", type=float, help="coloring parameter")
    p.add_argument("--alpha", type=float)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="igwlab", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("sample", help="draw random trees")
    _add_spec_args(p)
    p.add_argument("--out", required=True, help="*.newick for trees, *.json for stats")

    p = sub.add_parser("prune", help="generalized dynamical pruning of a forest")
    _add_spec_args(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="CSV of interior cut points")

    p = sub.add_parser("color", help="Bernoulli leaf coloring of a forest")
    _add_spec_args(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("dist", help="closed-form law values on a grid")
    p.add_argument("law", choices=["height", "length", "size"])
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--x-grid", default="0:10:0.1", help="lo:hi:step")
    p.add_argument("--prec-bits", type=int, default=0,
                   help="series precision for length/size: 0 = automatic, else >= 53")
    p.add_argument("--out", help="CSV path (default stdout)")

    p = sub.add_parser("verify", help="distribution-law Monte Carlo checks")
    p.add_argument("law", choices=["height", "length", "size"])
    _add_spec_args(p)

    for verb in ("invariance", "falsify", "thinning", "coloring", "semigroup"):
        p = sub.add_parser(verb)
        _add_spec_args(p)

    p = sub.add_parser("attractor", help="pushforward limits (gf) or Monte Carlo (mc)")
    p.add_argument("mode", choices=["gf", "mc"])
    _add_spec_args(p)
    p.add_argument("--iterations", type=int, help="leaf-pruning rounds for phi=ord")

    p = sub.add_parser("report", help="re-emit a JSON-lines report as text")
    p.add_argument("path")

    args = ap.parse_args(argv)
    return _dispatch(args)


# sample writes, and prune and color read, this many trees at a time
_CHUNK = 4096


def _read_chunks(path):
    """(index of the first tree, trees) for each run of ``_CHUNK`` trees of
    a Newick file, one tree per line."""
    with open(path) as fh:
        lines = (line for line in fh if line.strip())
        lo = 0
        while trees := [from_newick(line) for line in islice(lines, _CHUNK)]:
            yield lo, trees
            lo += len(trees)


def _write_forest(trees, fh):
    for t in trees:
        fh.write(to_newick(t) + "\n")


def _survivors(red: pr.ForestReduction):
    return [red.extract_reduced(s) for s in np.flatnonzero(red.survived)]


def _dispatch(args) -> int:
    verb = args.verb
    if verb == "sample":
        spec = _spec_from(args)
        d = from_spec(spec.dist)
        if args.out.endswith(".json"):
            st = smp.sample_stats(d, spec.seed, spec.n, budget=spec.budget,
                                  lam=spec.lam)
            payload = {
                "dist": spec.dist, "lam": spec.lam, "n": spec.n, "seed": spec.seed,
                "censor_rate": st.censor_rate,
                "edges_mean": float(st.edges[~st.censored].mean()),
                "height_mean": None if st.heights is None
                else float(np.nanmean(st.heights)),
                "length_mean": None if st.lengths is None
                else float(np.nanmean(st.lengths)),
            }
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2)
        else:
            ncen = 0
            with open(args.out, "w") as fh:
                for forest, cen in smp.iter_forest(d, spec.seed, spec.n, budget=spec.budget,
                                                   lam=spec.lam, chunk=_CHUNK):
                    _write_forest(forest.live(), fh)
                    ncen += int(cen.sum())
            if ncen:
                print(f"censored replicates skipped: {ncen}", file=sys.stderr)
        return 0

    if verb == "prune":
        spec = _spec_from(args)
        if spec.threshold is None or spec.threshold <= 0:
            print("igwlab prune: a positive threshold --t is required", file=sys.stderr)
            return 2
        n = survived = 0
        with open(args.out, "w") as out, \
                (open(args.log, "w") if args.log else nullcontext()) as log:
            if log:
                log.write("tree,edge_child,offset\n")
            for lo, trees in _read_chunks(args.infile):
                pf = pr.PrunedForest(trees, spec.phi, spec.threshold)
                _write_forest(_survivors(pf), out)
                if log:
                    fa = pf.fa
                    rows = zip((lo + fa.slots[pf.cut_slot]).tolist(),
                               fa.local_id[pf.cut_idx].tolist(), pf.cut_piece.tolist())
                    for row in rows:
                        log.write(",".join(map(str, row)) + "\n")
                n += len(trees)
                survived += int(pf.survived.sum())
        print(f"survived {survived}/{n}")
        return 0

    if verb == "color":
        spec = _spec_from(args)
        n = survived = 0
        with open(args.out, "w") as out:
            for lo, trees in _read_chunks(args.infile):
                # tree i of the file draws from the stream (seed, i) in domain 7
                cf = pr.color_forest(trees, spec.p, spec.seed, replicate0=lo, domain=7)
                _write_forest(_survivors(cf), out)
                n += len(trees)
                survived += int(cf.survived.sum())
        print(f"survived {survived}/{n}")
        return 0

    if verb == "dist":
        try:
            lo, hi, step = map(float, args.x_grid.split(":"))
        except ValueError:
            lo = hi = step = float("nan")
        if not (math.isfinite(lo + hi + step) and lo <= hi and step > 0):
            print(f"igwlab dist: --x-grid {args.x_grid!r} is not lo:hi:step "
                  "with lo <= hi and step > 0", file=sys.stderr)
            return 2
        xs = np.arange(lo, hi + step / 2, step)
        rows = []
        try:
            for x in xs.tolist():
                if args.law == "height":
                    rows.append((x, ana.height_cdf(args.q, args.lam, x)))
                elif args.law == "length":
                    rows.append((x, ana.length_cdf(args.q, args.lam, x,
                                                   prec_bits=args.prec_bits)))
                else:
                    n = max(int(x), 1)
                    rows.append((n, float(ana.size_cdf(args.q, n, prec_bits=args.prec_bits))))
        except (ValueError, ana.CancellationError) as e:
            print(f"igwlab dist {args.law}: {e}", file=sys.stderr)
            return 2
        lines = ["x,cdf"] + [f"{x!r},{v!r}" for x, v in rows]
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            print("\n".join(lines))
        return 0

    if verb == "verify":
        spec = _spec_from(args)
        fn = {"height": xp.run_verify_height, "length": xp.run_verify_length,
              "size": xp.run_verify_size}[args.law]
        rep = fn(spec)
        print(rep)
        return 0 if rep.passed else 1

    if verb == "invariance":
        spec = _spec_from(args)
        out = xp.run_invariance(spec)
        print(out["offspring"])
        print(out["rate"])
        return 0 if (out["offspring"].passed and out["rate"].passed) else 1

    if verb == "falsify":
        rep = xp.run_uniqueness_falsification(_spec_from(args))
        print(rep)
        return 0 if rep.passed else 1

    if verb == "thinning":
        rep = xp.run_thinning(_spec_from(args))
        print(rep)
        return 0 if rep.passed else 1

    if verb == "coloring":
        out = xp.run_coloring(_spec_from(args))
        print(out["survival"])
        print(out["thinned"])
        print("variant adjudication:", out["adjudication"])
        return 0 if out["passed"] else 1

    if verb == "semigroup":
        out = xp.run_semigroup(_spec_from(args))
        for phi in ("height", "ord", "length"):
            print(phi, json.dumps(out[phi]))
        return 0 if out["passed"] else 1

    if verb == "attractor":
        spec = _spec_from(args)
        if args.mode == "gf":
            out = xp.run_attractor_gf(spec)
            for row in out["rows"]:
                print(json.dumps(row))
            print(f"g0 -> {out['g0_final']:.5f} expected {out['g0_expected']:.5f}")
        else:
            out = xp.run_attractor_mc(spec, iterations=args.iterations)
            print(json.dumps(out, indent=2, default=str))
        return 0 if out["passed"] else 1

    if verb == "report":
        with open(args.path) as fh:
            for line in fh:
                d = json.loads(line)
                print(("PASS" if d["passed"] else "FAIL"),
                      d["test"], d["statistic"], "<=", d["threshold"])
        return 0

    raise AssertionError(verb)


if __name__ == "__main__":
    raise SystemExit(main())
