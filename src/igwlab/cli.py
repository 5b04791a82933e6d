"""Command-line front end.

Verbs: sample, prune, color, dist, verify, invariance, falsify, thinning,
coloring, semigroup, attractor, report.  Distributions are addressed by
spec strings (igw:0.5, zipf:1.5, geom:0.5, binary, table:<path>).

Each verb takes only the flags it reads (``igwlab <verb> --help``).  A flag
the verb, or the mode of dist, verify or attractor, would ignore is a usage
error.  Exit code 0 means every verdict in the run passed, 1 that one
failed, 2 a usage error or a failed run (which leaves every file as it was).

A config file (flat ``key = value`` lines, # comments) given by --config
may set any experiment spec field, so that one file serves several verbs;
flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from contextlib import nullcontext
from itertools import islice

import numpy as np

from . import analytics as ana
from . import experiments as xp
from . import pruning as pr
from . import sampler as smp
from .newick import NewickError, from_newick, to_newick
from .offspring import from_spec

# spec field -> its type, float | None read as float
_SPEC_TYPES = {f: next((a for a in typing.get_args(t) if a is not type(None)), t)
               for f, t in typing.get_type_hints(xp.ExperimentSpec).items()}


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
            if k not in _SPEC_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {k!r}")
            out[k] = _SPEC_TYPES[k](v)
    return out


def _spec_from(args) -> xp.ExperimentSpec:
    kw = read_config(args.config) if getattr(args, "config", None) else {}
    kw.update((f, v) for f in _SPEC_TYPES if (v := getattr(args, f, None)) is not None)
    return xp.ExperimentSpec(**kw)


# sample writes, and prune and color read, this many trees at a time
_CHUNK = 4096


def _tmp(path):
    """The file an output is written to until the run succeeds."""
    return f"{path}.{os.getpid()}.tmp"


def _read_tree(path, lineno, line):
    try:
        return from_newick(line)
    except (NewickError, RecursionError) as e:
        why = "nested too deeply to read" if isinstance(e, RecursionError) else e
        raise ValueError(f"{path}, line {lineno}: {why}") from None


def _read_chunks(path):
    """(index of the first tree, trees) for each run of ``_CHUNK`` trees of
    a Newick file, one tree per line; a line that cannot be read is a
    ValueError naming the file and the line."""
    with open(path) as fh:
        lines = ((n, line) for n, line in enumerate(fh, 1) if line.strip())
        lo = 0
        while trees := [_read_tree(path, n, line) for n, line in islice(lines, _CHUNK)]:
            yield lo, trees
            lo += len(trees)


# One handler per verb: (spec, args) -> the experiment's result, whose
# verdict sets the exit code, or None for a verb without one.
def _sample(spec, args):
    d = from_spec(spec.dist)
    if args.out.endswith(".json"):
        st = smp.sample_stats(d, spec.seed, spec.n, budget=spec.budget, lam=spec.lam)
        some = not st.censored.all()

        def mean(x):  # over the uncensored trees (NaN at the others); null if none
            return float(np.nanmean(x)) if some and x is not None else None

        payload = {
            "dist": spec.dist, "lam": spec.lam, "n": spec.n, "seed": spec.seed,
            "censor_rate": st.censor_rate, "edges_mean": mean(st.edges[~st.censored]),
            "height_mean": mean(st.heights), "length_mean": mean(st.lengths),
        }
        with open(_tmp(args.out), "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
        return
    ncen = 0
    with open(_tmp(args.out), "w") as fh:
        for forest, cen in smp.iter_forest(d, spec.seed, spec.n, budget=spec.budget,
                                           lam=spec.lam, chunk=_CHUNK):
            fh.writelines(to_newick(t) + "\n" for t in forest.live())
            ncen += int(cen.sum())
    if ncen:
        print(f"censored replicates skipped: {ncen}", file=sys.stderr)


def _reduce_file(args, reduce):
    """Reduce the forest of --in chunk by chunk with reduce(trees, index of
    the first tree); write the survivors to --out, the cuts to prune's --log."""
    n = survived = 0
    with open(_tmp(args.out), "w") as out, \
            (open(_tmp(args.log), "w") if getattr(args, "log", None) else nullcontext()) as log:
        if log:
            log.write("tree,edge_child,offset\n")
        for lo, trees in _read_chunks(args.infile):
            red = reduce(trees, lo)
            out.writelines(to_newick(t) + "\n" for t in red.reduced().live())
            if log:
                fa = red.fa
                rows = zip((lo + fa.slots[red.cut_slot]).tolist(),
                           fa.local_id[red.cut_idx].tolist(), red.cut_piece.tolist())
                log.writelines(",".join(map(str, row)) + "\n" for row in rows)
            n += len(trees)
            survived += int(red.survived.sum())
    print(f"survived {survived}/{n}")


def _prune(spec, args):
    if spec.threshold is None:
        raise ValueError("a positive threshold --t is required")
    _reduce_file(args, lambda trees, lo: pr.PrunedForest(trees, spec.phi, spec.threshold))


def _color(spec, args):
    # tree i of the file draws from the stream (seed, i) in domain 7
    _reduce_file(args, lambda trees, lo: pr.color_forest(trees, spec.p, spec.seed,
                                                         replicate0=lo, domain=7))


def _dist(spec, args):
    try:
        lo, hi, step = map(float, args.x_grid.split(":"))
    except ValueError:
        lo = hi = step = float("nan")
    if not (math.isfinite(lo + hi + step) and lo <= hi and step > 0):
        raise ValueError(f"--x-grid {args.x_grid!r} is not lo:hi:step "
                         "with lo <= hi and step > 0")
    grid = np.arange(lo, hi + step / 2, step).tolist()
    if args.mode == "height":
        rows = [(x, ana.height_cdf(args.q, spec.lam, x)) for x in grid]
    elif args.mode == "length":
        prec_bits = args.prec_bits or 0
        rows = [(x, ana.length_cdf(args.q, spec.lam, x, prec_bits=prec_bits)) for x in grid]
    else:  # each edge count once, however fine the grid
        rows = [(n, ana.size_cdf(args.q, n)) for n in dict.fromkeys(max(int(x), 1) for x in grid)]
    with open(_tmp(args.csv), "w") if args.csv else nullcontext(sys.stdout) as fh:
        fh.write("\n".join(["x,cdf"] + [f"{x!r},{v!r}" for x, v in rows]) + "\n")


def _shown(rep):
    print(rep)
    return rep


def _invariance(spec, args):
    out = xp.run_invariance(spec)
    print(out["offspring"])
    print(out["rate"])
    return out


def _coloring(spec, args):
    out = xp.run_coloring(spec)
    print(out["survival"])
    print(out["thinned"])
    print("variant adjudication:", out["adjudication"])
    return out


def _semigroup(spec, args):
    out = xp.run_semigroup(spec)
    for phi in ("height", "ord", "length"):
        print(phi, json.dumps(out[phi]))
    return out


def _attractor(spec, args):
    if args.mode == "gf":
        out = xp.run_attractor_gf(spec)
        for row in out["rows"]:
            print(json.dumps(row))
        print(f"g0 -> {out['g0_final']:.5f} expected {out['g0_expected']:.5f}")
    else:
        out = xp.run_attractor_mc(spec, iterations=args.iterations)
        print(json.dumps(out, indent=2, default=str))
    return out


def _report(spec, args):
    lineno = 0
    with open(args.path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                d = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{args.path}, line {lineno}, column {e.colno}: {e.msg}") from None
            for key in ("test", "statistic", "threshold", "passed"):
                if not isinstance(d, dict) or key not in d:
                    raise ValueError(f"{args.path}, line {lineno}: the record has no {key!r}")
            print(("PASS" if d["passed"] else "FAIL"),
                  d["test"], d["statistic"], "<=", d["threshold"])
    if not lineno:
        raise ValueError(f"{args.path}: the file has no record")


def _prec_bits(text: str) -> int:
    """--prec-bits: 0 (automatic) or an explicit precision of at least 53 bits."""
    bits = int(text) if text.isdecimal() else -1
    if bits != 0 and bits < 53:
        raise argparse.ArgumentTypeError(f"{text!r} is neither 0 (automatic) nor an int >= 53")
    return bits


# every option by the name it is read under: (flags, argparse keywords).  A
# spec field takes its type from ExperimentSpec; max_censor_rate and chunk
# have no flag and are set in config files only.  Empty flags: a positional.
_OPTIONS = {
    "config": (["--config"], dict(help="key = value file; it may set any spec field")),
    "dist": (["--dist"], dict(help="offspring law spec, e.g. igw:0.5")),
    "lam": (["--lam", "--lambda"], dict(help="edge rate")),
    "phi": (["--phi"], dict(choices=["height", "length", "leaves", "ord"])),
    "threshold": (["--threshold", "--t"], {}), "survival_target": (["--survival-target"], {}),
    "n": (["--n"], {}), "seed": (["--seed"], {}), "budget": (["--budget"], {}),
    "p": (["--p"], dict(help="coloring parameter")), "alpha": (["--alpha"], {}),
    "infile": (["--in"], dict(required=True)),
    "out": (["--out"], dict(required=True, help="output file; sample writes stats to *.json")),
    "log": (["--log"], dict(help="CSV of interior cut points")),
    "q": (["--q"], dict(type=float, required=True)),
    "x_grid": (["--x-grid"], dict(default="0:10:0.1", help="lo:hi:step")),
    "prec_bits": (["--prec-bits"],
                  dict(type=_prec_bits, help="0 = automatic (default), else >= 53")),
    "csv": (["--out"], dict(help="CSV path (default stdout)")),
    "iterations": (["--iterations"], dict(type=int, help="leaf-pruning rounds, phi ord")),
    "path": ([], {}),
}

_FOREST = ("config", "dist", "lam", "n", "seed", "budget")
_PRUNED = _FOREST + ("phi", "threshold", "survival_target", "chunk")
_VERIFY = ("config", "dist", "n", "seed", "budget", "alpha")
_VERIFY_RUNS = {"height": xp.run_verify_height, "length": xp.run_verify_length,
                "size": xp.run_verify_size}

# verb -> (handler, help, {mode: the options it reads}); mode None: no modes
_VERBS = {
    "sample": (_sample, "draw random trees", {None: _FOREST + ("out",)}),
    "prune": (_prune, "generalized dynamical pruning of a forest",
              {None: ("config", "phi", "threshold", "infile", "out", "log")}),
    "color": (_color, "Bernoulli leaf coloring of a forest",
              {None: ("config", "p", "seed", "infile", "out")}),
    "dist": (_dist, "closed-form law values on a grid", {
        "height": ("q", "lam", "x_grid", "csv"),
        "length": ("q", "lam", "x_grid", "prec_bits", "csv"),
        "size": ("q", "x_grid", "csv")}),
    "verify": (lambda spec, args: _shown(_VERIFY_RUNS[args.mode](spec)),
               "distribution-law Monte Carlo checks", {
                   "height": _VERIFY + ("lam", "max_censor_rate"),
                   "length": _VERIFY + ("lam", "max_censor_rate"), "size": _VERIFY}),
    "invariance": (_invariance, "pruned invariant laws keep their law",
                   {None: _PRUNED + ("alpha",)}),
    "falsify": (lambda spec, args: _shown(xp.run_uniqueness_falsification(spec)),
                "pruning changes a non-invariant law", {None: _PRUNED + ("alpha",)}),
    "thinning": (lambda spec, args: _shown(xp.run_thinning(spec)),
                 "binomial thinning at the first branch point", {None: _PRUNED + ("alpha",)}),
    "coloring": (_coloring, "survival and offspring law under Bernoulli coloring",
                 {None: ("config", "dist", "p", "n", "seed", "budget", "alpha", "chunk")}),
    "semigroup": (_semigroup, "composition of pruning per functional",
                  {None: _FOREST + ("chunk",)}),
    "attractor": (_attractor, "pushforward limits (gf) or Monte Carlo (mc)", {
        "gf": ("config", "dist"), "mc": _PRUNED + ("iterations",)}),
    "report": (_report, "re-emit a JSON-lines report as text", {None: ("path",)}),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="igwlab", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)
    parsers = {}
    for verb, (_, help_, modes) in _VERBS.items():
        p = sub.add_parser(verb, help=help_, allow_abbrev=False)
        if None not in modes:
            p.add_argument("mode", choices=list(modes))
        names = list(dict.fromkeys(sum(modes.values(), ())))
        for name in filter(_OPTIONS.__contains__, names):
            flags, kw = _OPTIONS[name]
            if flags:
                p.add_argument(*flags, dest=name, **{"type": _SPEC_TYPES.get(name), **kw})
            else:
                p.add_argument(name, **kw)
        parsers[verb] = p, names
    args = ap.parse_args(argv)
    run, _, modes = _VERBS[args.verb]
    mode = getattr(args, "mode", None)
    label = f"{args.verb} {mode}" if mode else args.verb
    p, names = parsers[args.verb]
    for name in names:
        # flags of another mode; an unset flag is None
        if name not in modes[mode] and getattr(args, name, None) is not None:
            p.error(f"{_OPTIONS[name][0][0]} is not read by {label}")
    # outputs are renamed over their paths only when the run succeeds
    outputs = [f for f in (getattr(args, k, None) for k in ("out", "log", "csv")) if f]
    try:
        out = run(_spec_from(args), args)
        for f in outputs:
            os.replace(_tmp(f), f)
    except (ValueError, OSError, ana.CancellationError) as e:
        print(f"igwlab {label}: {e}", file=sys.stderr)
        return 2
    finally:
        for f in filter(os.path.exists, map(_tmp, outputs)):
            os.remove(f)
    return 0 if out is None or xp.passed(out) else 1


if __name__ == "__main__":
    raise SystemExit(main())
