"""The verb table: each verb and mode takes exactly the spec flags it reads.

``CASES`` holds the contract, written out here rather than read from the
table: a spec flag outside it must fail in the parser (exit 2, the flag
named on stderr, no file written).  The drift guard checks the table
against the experiments: a spec field a verb does not declare cannot
change its result.
"""

import argparse
import dataclasses
import json
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from igwlab import analytics as ana
from igwlab import cli
from igwlab import experiments as xp
from igwlab.cli import main as cli_main

# spec field -> the flag and a valid value; config files take every field
FLAGS = {
    "config": ["--config", "spec.cfg"], "dist": ["--dist", "binary"], "lam": ["--lam", "2"],
    "phi": ["--phi", "length"], "threshold": ["--threshold", "2"],
    "survival_target": ["--survival-target", "0.3"], "n": ["--n", "50"],
    "seed": ["--seed", "5"], "budget": ["--budget", "100"], "p": ["--p", "0.7"],
    "alpha": ["--alpha", "0.05"],
}
FOREST = "config dist lam n seed budget"
PRUNED = FOREST + " phi threshold survival_target"
VERIFY = "config dist n seed budget alpha"

# (verb, mode) -> a valid invocation without spec flags, and the spec flags it reads
CASES = {
    ("sample", None): (["sample", "--out", "trees.newick"], FOREST),
    ("prune", None): (["prune", "--in", "forest.newick", "--out", "pruned.newick",
                       "--log", "cuts.csv"], "config phi threshold"),
    ("color", None): (["color", "--in", "forest.newick", "--out", "colored.newick"],
                      "config p seed"),
    ("dist", "height"): (["dist", "height", "--q", "0.5", "--out", "cdf.csv"], "lam"),
    ("dist", "length"): (["dist", "length", "--q", "0.5", "--out", "cdf.csv"], "lam"),
    ("dist", "size"): (["dist", "size", "--q", "0.5", "--out", "cdf.csv"], ""),
    ("verify", "height"): (["verify", "height"], VERIFY + " lam"),
    ("verify", "length"): (["verify", "length"], VERIFY + " lam"),
    ("verify", "size"): (["verify", "size"], VERIFY),
    ("invariance", None): (["invariance"], PRUNED + " alpha"),
    ("falsify", None): (["falsify"], PRUNED + " alpha"),
    ("thinning", None): (["thinning"], PRUNED + " alpha"),
    ("coloring", None): (["coloring"], "config dist p n seed budget alpha"),
    ("semigroup", None): (["semigroup"], FOREST),
    ("attractor", "gf"): (["attractor", "gf"], "config dist"),
    ("attractor", "mc"): (["attractor", "mc"], PRUNED),
    ("report", None): (["report", "reports.jsonl"], ""),
}
UNREAD = [(case, f) for case, (_, reads) in CASES.items() for f in FLAGS
          if f not in reads.split()]


def _label(case):
    return " ".join(filter(None, case))


def test_spec_flag_pairs():
    """Each of the 10 verbs that take --config took all 11 spec flags: 110
    (verb, flag) pairs, --config counted."""
    pairs = {(verb, f) for verb, (_, _, modes) in cli._VERBS.items()
             for reads in modes.values() if "config" in reads for f in reads if f in FLAGS}
    assert len({verb for verb, _ in pairs}) == 10 and len(pairs) == 71


@pytest.mark.parametrize("case", CASES, ids=_label)
def test_table_declares_the_contract(case):
    verb, mode = case
    declared = cli._VERBS[verb][2][mode]
    assert sorted(f for f in declared if f in FLAGS) == sorted(CASES[case][1].split())


@pytest.mark.parametrize("case,field", UNREAD, ids=lambda x: x if isinstance(x, str)
                         else _label(x))
def test_unread_flag_is_a_usage_error(case, field, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "forest.newick").write_text("((:1,:3):1);\n")
    (tmp_path / "reports.jsonl").write_text("")
    # a tiny spec, so that a flag accepted by mistake fails the test quickly
    (tmp_path / "spec.cfg").write_text("n = 20\nbudget = 50\n")
    before = set(os.listdir("."))
    argv, reads = CASES[case]
    if "config" in reads.split():
        argv = [*argv, *FLAGS["config"]]
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, *FLAGS[field]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{FLAGS[field][0]} " in err.splitlines()[-1] + " "
    assert set(os.listdir(".")) == before


def test_iterations_need_phi_ord(capsys):
    """--iterations used to be ignored unless --phi was ord."""
    assert cli_main(["attractor", "mc", "--phi", "height", "--iterations", "3",
                     "--n", "50"]) == 2
    assert "phi ord" in capsys.readouterr().err


# each exits 2; they used to leave an empty output file, and a missing
# --in ended in a traceback
FAILED_RUNS = {
    "supercritical-law": ["sample", "--dist", "table:[0.2,0,0.8]", "--n", "5",
                          "--out", "trees.newick"],
    "malformed-tree": ["prune", "--phi", "length", "--t", "1", "--in", "bad.newick",
                       "--out", "pruned.newick", "--log", "cuts.csv"],
    "missing-input": ["color", "--in", "missing.newick", "--out", "colored.newick"],
}


@pytest.mark.parametrize("case", sorted(FAILED_RUNS))
def test_failed_run_writes_no_file(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.newick").write_text("((:1,:3):1);\n((:1,:2;\n")
    before = set(os.listdir("."))
    argv = FAILED_RUNS[case]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err.startswith(f"igwlab {argv[0]}: ")
    assert set(os.listdir(".")) == before


@pytest.mark.parametrize("case", sorted(FAILED_RUNS))
def test_failed_run_keeps_existing_files(case, tmp_path, monkeypatch, capsys):
    """Each output used to be emptied before the run failed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.newick").write_text("((:1,:3):1);\n((:1,:2;\n")
    for name in ("trees.newick", "pruned.newick", "cuts.csv", "colored.newick"):
        (tmp_path / name).write_text("(:1.0);\n")
    before = {name: (tmp_path / name).read_text() for name in os.listdir(".")}
    assert cli_main(FAILED_RUNS[case]) == 2
    capsys.readouterr()
    assert {name: (tmp_path / name).read_text() for name in os.listdir(".")} == before


# each exits 2 and writes nothing; they used to exit 0 (an empty file,
# lengths that prune rejects, every replicate censored, a verdict on
# nothing), end in a traceback (survival target 0 with phi length never
# ended, thinning with no survivor divided by zero) or print a false failed
# verdict and exit 1 (verify size at a budget below 30)
OUT_OF_RANGE = {
    "n": ["sample", "--dist", "binary", "--n", "0", "--out", "trees.newick"],
    "n-verify": ["verify", "height", "--dist", "igw:0.5", "--n", "0"],
    "lam-negative": ["sample", "--dist", "binary", "--n", "3", "--lam", "-1",
                     "--out", "trees.newick"],
    "lam-zero": ["sample", "--dist", "binary", "--n", "3", "--lam", "0", "--out", "trees.newick"],
    "budget": ["sample", "--dist", "binary", "--n", "3", "--budget", "0",
               "--out", "trees.newick"],
    "alpha": ["verify", "height", "--dist", "igw:0.5", "--n", "1000", "--alpha", "0"],
    "chunk": ["semigroup", "--dist", "igw:0.5", "--n", "50", "--config", "chunk.cfg"],
    "survival-target": ["thinning", "--dist", "binary", "--phi", "height",
                        "--survival-target", "0", "--n", "200"],
    "budget-size": ["verify", "size", "--dist", "igw:0.5", "--n", "100", "--budget", "1"],
    "no-survivor": ["thinning", "--dist", "binary", "--phi", "length", "--t", "1e9",
                    "--n", "200", "--budget", "300", "--seed", "1"],
    "threshold-nan": ["attractor", "mc", "--phi", "height", "--t", "nan", "--n", "2000"],
    "threshold-negative": ["invariance", "--phi", "height", "--t", "-1", "--n", "2000"],
    "iterations": ["attractor", "mc", "--phi", "ord", "--iterations", "0", "--n", "2000"],
}
# what the message must say, where it used to name neither the option nor the value
NAMED = {"threshold-nan": "threshold must be finite and > 0, not nan",
         "threshold-negative": "threshold must be finite and > 0, not -1.0",
         "iterations": "iterations must be >= 1, not 0"}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_value_exits_2(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chunk.cfg").write_text("chunk = -1\n")
    argv = OUT_OF_RANGE[case]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"igwlab {argv[0]}")
    assert NAMED.get(case, "") in err
    assert os.listdir(".") == ["chunk.cfg"]


def test_censor_rate_overrun_exits_2(capsys):
    """It raised a bare RuntimeError: a traceback and exit 1, the code of a
    failed verdict."""
    argv = ["verify", "height", "--dist", "igw:0.5", "--n", "500", "--budget", "10"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "igwlab verify height: censor rate 0.266 above bound 0.005\n"


def test_all_censored_sample_writes_null_means(tmp_path, monkeypatch):
    """It printed four numpy RuntimeWarnings and wrote NaN, which is not JSON."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["sample", "--dist", "binary", "--n", "2", "--seed", "5", "--budget", "1",
                         "--lam", "1", "--out", "s.json"]) == 0
    text = (tmp_path / "s.json").read_text()
    got = json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in {text}"))
    assert got["censor_rate"] == 1.0
    assert [got[k] for k in ("edges_mean", "height_mean", "length_mean")] == [None] * 3


@pytest.mark.parametrize("record, key", [
    ({"test": "a", "threshold": 1.0, "passed": True}, "statistic"),
    ({"test": "a", "statistic": 0.5, "passed": True}, "threshold"),
    ({"test": "a", "statistic": 0.5, "threshold": 1.0}, "passed"),
    (5, "test")])
def test_report_bad_record_exits_2(record, key, tmp_path, monkeypatch, capsys):
    """A missing key ended in a KeyError traceback, and a record that is not
    a JSON object in a TypeError one: exit 1, the code of a failed verdict."""
    monkeypatch.chdir(tmp_path)
    good = {"test": "a", "statistic": 0.5, "threshold": 1.0, "passed": True}
    (tmp_path / "r.jsonl").write_text(f"{json.dumps(good)}\n{json.dumps(record)}\n")
    assert cli_main(["report", "r.jsonl"]) == 2
    assert capsys.readouterr().err == f"igwlab report: r.jsonl, line 2: the record has no {key!r}\n"


def test_report_line_not_json_exits_2(tmp_path, monkeypatch, capsys):
    """Each line was decoded alone, so the message counted lines within the
    bad line (line 1) and named neither the file nor its line."""
    monkeypatch.chdir(tmp_path)
    good = json.dumps({"test": "a", "statistic": 0.5, "threshold": 1.0, "passed": True})
    (tmp_path / "r.jsonl").write_text(f"{good}\n" * 4 + "{bad\n")
    assert cli_main(["report", "r.jsonl"]) == 2
    assert capsys.readouterr().err == ("igwlab report: r.jsonl, line 5, column 2: Expecting "
                                       "property name enclosed in double quotes\n")


def test_report_empty_file_exits_2(tmp_path, monkeypatch, capsys):
    """An empty file printed nothing and exited 0, as if every record passed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "r.jsonl").write_text("")
    assert cli_main(["report", "r.jsonl"]) == 2
    assert capsys.readouterr() == ("", "igwlab report: r.jsonl: the file has no record\n")


# lines the Newick reader cannot take: a path 3,000 levels deep, as deep as
# trees `sample` writes, and a malformed tree
UNREADABLE = {"deep": "(" * 3000 + ":1" + "):1" * 2999 + ");", "malformed": "((:1,:2;"}
REDUCERS = {"prune": ["prune", "--phi", "length", "--t", "1"], "color": ["color", "--p", "0.5"]}


@pytest.mark.parametrize("verb", sorted(REDUCERS))
@pytest.mark.parametrize("line", sorted(UNREADABLE))
def test_unreadable_line_exits_2_naming_file_and_line(verb, line, tmp_path, monkeypatch, capsys):
    """The deep line ended in a RecursionError traceback and exit 1, the code
    of a failed verdict; the malformed one named neither file nor line."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.newick").write_text(f"((:1,:3):1);\n\n{UNREADABLE[line]}\n(:2);\n")
    (tmp_path / "out.newick").write_text("(:1.0);\n")
    assert cli_main(REDUCERS[verb] + ["--in", "in.newick", "--out", "out.newick"]) == 2
    assert capsys.readouterr().err.startswith(f"igwlab {verb}: in.newick, line 3: ")
    assert sorted(os.listdir(".")) == ["in.newick", "out.newick"]
    assert (tmp_path / "out.newick").read_text() == "(:1.0);\n"


def test_successful_run_replaces_existing_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trees.newick").write_text("(:1.0);\n")
    assert cli_main(["sample", "--dist", "binary", "--n", "5", "--out", "trees.newick"]) == 0
    assert os.listdir(".") == ["trees.newick"]
    assert len((tmp_path / "trees.newick").read_text().splitlines()) == 5


def test_dist_size_prints_each_edge_count_once(capsys):
    """A grid finer than 1 printed n = 1 four times and n = 2 twice."""
    assert cli_main(["dist", "size", "--q", "0.5", "--x-grid", "0:3:0.5"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert [n for n, _ in rows] == ["x", "1", "2", "3"]
    assert cli_main(["dist", "size", "--q", "0.5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(",")[0] for line in rows] == [str(n) for n in range(1, 11)]


# --------------------------------------------------------------------- #
# Drift guard                                                             #
# --------------------------------------------------------------------- #

COMMON = dict(n=400, budget=300, seed=11, chunk=128)
EXPERIMENTS = {
    ("verify", "height"): dict(dist="igw:0.5", max_censor_rate=1.0),
    ("verify", "length"): dict(dist="igw:0.5", max_censor_rate=1.0),
    ("verify", "size"): dict(dist="igw:0.5"),
    ("invariance", None): dict(dist="igw:0.5", phi="height"),
    ("falsify", None): dict(dist="zipf:1.5", phi="length", threshold=2.0),
    ("thinning", None): dict(dist="binary", phi="length"),
    ("coloring", None): dict(dist="binary", p=0.5),
    ("semigroup", None): dict(dist="igw:0.5", n=40, budget=100),
    ("attractor", "gf"): dict(dist="geom:0.5"),
    ("attractor", "mc"): dict(dist="geom:0.3", phi="length", n=2500),
}
# a changed value for every spec field, valid for every experiment above
OTHER = dict(dist="geom:0.4", lam=2.0, phi="leaves", threshold=3.0, survival_target=0.3,
             n=300, seed=12, budget=200, p=0.7, max_censor_rate=0.5, alpha=0.05, chunk=7)


def _fingerprint(x):
    """Every number of a result, floats by their bits; arrays in full."""
    if dataclasses.is_dataclass(x):
        return _fingerprint(vars(x))
    if isinstance(x, dict):
        return tuple((k, _fingerprint(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(map(_fingerprint, x))
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    return repr(x)


def _result(case, spec):
    verb, mode = case
    run = cli._VERBS[verb][0]
    return _fingerprint(run(spec, argparse.Namespace(mode=mode, iterations=None)))


@pytest.mark.parametrize("case", EXPERIMENTS, ids=_label)
def test_undeclared_fields_leave_the_result_unchanged(case):
    """Coloring declares chunk: under censoring its verdict depends on it."""
    declared = cli._VERBS[case[0]][2][case[1]]
    spec = xp.ExperimentSpec(**{**COMMON, **EXPERIMENTS[case]})
    base = _result(case, spec)
    undeclared = [f.name for f in dataclasses.fields(spec) if f.name not in declared]
    assert undeclared
    for f in undeclared:
        assert getattr(spec, f) != OTHER[f]
        assert _result(case, dataclasses.replace(spec, **{f: OTHER[f]})) == base, f
    # the fingerprint does see a declared field change
    f = "dist" if case == ("attractor", "gf") else "seed"
    assert f in declared
    assert _result(case, dataclasses.replace(spec, **{f: OTHER[f]})) != base


@pytest.mark.parametrize("mode,grid,oracle", [
    ("length", "115:125:5", lambda x: ana.length_cdf_bessel_binary(1.0, x)),
    ("size", "396:404:4", lambda n: float(ana.size_cdf(Fraction(1, 2), int(n)))),
], ids=["length", "size"])
def test_dist_prints_correctly_rounded_law_values(mode, grid, oracle, capsys):
    """Past the float64 range each printed CDF value equals its oracle bit for
    bit: the Bessel closed form, the exact Fraction size law."""
    lam = ["--lam", "1"] if mode == "length" else []
    assert cli_main(["dist", mode, "--q", "0.5", *lam, "--x-grid", grid]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.split()[1:]]
    assert len(rows) == 3
    for x, v in rows:
        assert float(v).hex() == oracle(float(x)).hex(), f"{mode} at {x}"
