"""Experiment orchestration at reduced scale, plus the CLI surface.

Full-scale runs with the acceptance tolerances live in test_acceptance.py;
here the point is that each experiment wires its pieces correctly, produces
reproducible reports, and fails when it should.
"""

import dataclasses
import gzip
import hashlib
import json
import pickle
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from igwlab import cli
from igwlab import experiments as xp
from igwlab import gof
from igwlab import pruning as pr
from igwlab import sampler as smp
from igwlab.cli import main as cli_main, read_config
from igwlab.offspring import from_spec

SPEC = xp.ExperimentSpec(n=12000, seed=33)
DATA = Path(__file__).parent / "data"


class TestVerifyLaws:
    def test_height_passes_and_rejects_wrong_q(self):
        rep = xp.run_verify_height(SPEC)
        assert rep.passed
        # deliberately score the sample against the wrong parameter
        from igwlab import analytics as ana
        from igwlab import sampler as smp
        from igwlab.offspring import IGW

        st = smp.sample_stats(IGW(0.5), 33, 12000, lam=1.0)
        hs = np.sort(st.heights[~st.censored])
        D = gof.ks_statistic(hs, lambda x: ana.height_cdf(2 / 3, 1.0, x))
        assert D > gof.ks_threshold(len(hs), 0.01)

    def test_length_report_carries_range(self):
        rep = xp.run_verify_length(SPEC)
        assert rep.passed
        assert rep.comparison_range is not None
        assert rep.details["range_coverage"] > 0.5

    def test_size_oracle_precheck_and_pass(self):
        rep = xp.run_verify_size(replace(SPEC, dist="igw:0.66666666666666663"))
        assert rep.passed and rep.details["oracle_checked"]

    def test_size_rejects_budget_below_30(self):
        """A budget below 30 censors trees of at most 30 edges, which the
        test filed above 30: a false failed verdict."""
        with pytest.raises(ValueError, match="budget >= 30"):
            xp.run_verify_size(replace(SPEC, n=100, budget=29))
        assert xp.run_verify_size(replace(SPEC, n=100, budget=30)).n == 100

    def test_requires_power_family(self):
        with pytest.raises(ValueError):
            xp.run_verify_height(replace(SPEC, dist="geom:0.5"))

    @pytest.mark.parametrize("run", [xp.run_verify_height, xp.run_verify_length])
    def test_censor_rate_overrun_is_named(self, run):
        with pytest.raises(xp.CensorRateError) as e:
            run(replace(SPEC, dist="igw:0.5", n=500, budget=10))
        assert isinstance(e.value, ValueError)
        assert (e.value.rate, e.value.bound) == (0.214, SPEC.max_censor_rate)
        assert str(e.value) == "censor rate 0.214 above bound 0.005"

    def test_reproducible(self):
        a = xp.run_verify_height(SPEC)
        b = xp.run_verify_height(SPEC)
        assert a.statistic == b.statistic


class TestThresholdCalibration:
    def test_height_closed_form(self):
        t = xp.threshold_for_survival(replace(SPEC, phi="height", survival_target=0.5))
        from igwlab import analytics as ana

        assert ana.height_survival_pt(0.5, 1.0, t) == pytest.approx(0.5, abs=1e-12)

    def test_length_hits_target(self):
        spec = replace(SPEC, phi="length", survival_target=0.3)
        t = xp.threshold_for_survival(spec)
        from igwlab import analytics as ana

        assert 1.0 - ana.length_cdf(0.5, 1.0, t) == pytest.approx(0.3, abs=1e-9)

    def test_leaves_pilot_quantile(self):
        spec = replace(SPEC, dist="zipf:1.5", phi="leaves", survival_target=0.2, n=4000)
        t = xp.threshold_for_survival(spec, pilot_n=4000)
        assert t >= 1.0 and t == round(t)


class TestInvarianceAndFalsification:
    def test_invariance_passes(self):
        out = xp.run_invariance(replace(SPEC, dist="igw:0.66666666666666663",
                                           phi="length", n=20000))
        assert out["offspring"].passed
        assert out["rate"].passed
        assert out["summary"].p_hat == pytest.approx(0.5, abs=0.02)

    def test_falsification_rejects_zipf(self):
        rep = xp.run_uniqueness_falsification(
            replace(SPEC, dist="zipf:1.5", phi="length", n=20000))
        assert rep.passed and rep.details["rejected"]

    def test_falsification_requires_non_invariant(self):
        with pytest.raises(ValueError):
            xp.run_uniqueness_falsification(replace(SPEC, dist="igw:0.5"))
        with pytest.raises(ValueError):
            xp.run_uniqueness_falsification(replace(SPEC, dist="table:[0.6,0,0.4]"))

    def test_thinning_small(self):
        rep = xp.run_thinning(replace(SPEC, dist="binary", phi="length", n=15000))
        assert rep.passed
        assert rep.details["p_hat"] == pytest.approx(0.5, abs=0.03)

    def test_thinning_without_survivors_raises(self):
        """It divided by the survival rate 0: a ZeroDivisionError."""
        spec = replace(SPEC, dist="binary", phi="length", threshold=1e9, n=200, budget=300,
                       seed=1)
        with pytest.raises(ValueError, match="no tree survived the pruning at t=1e"):
            xp.run_thinning(spec)


class TestAttractors:
    def test_gf_rows_monotone_toward_limit(self):
        out = xp.run_attractor_gf(replace(SPEC, dist="zipf:1.5"))
        gaps = [abs(r["g0"] - 2 / 3) for r in out["rows"]]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert out["passed"]

    def test_gf_subcritical_point_mass(self):
        out = xp.run_attractor_gf(replace(SPEC, dist="table:[0.6,0,0.4]"))
        assert out["classification"] == "subcritical"
        assert out["g0_final"] > 0.999 and out["passed"]

    def test_mc_starvation_reported(self):
        out = xp.run_attractor_mc(replace(SPEC, dist="geom:0.5", phi="ord", n=300),
                                  iterations=6)
        assert out["starved"] and not out["passed"]
        assert out["required_n"] > 300

    def test_mc_iterations_need_phi_ord(self):
        """iterations used to be ignored unless phi was ord."""
        with pytest.raises(ValueError, match="phi ord"):
            xp.run_attractor_mc(replace(SPEC, dist="geom:0.5", phi="height", n=300),
                                iterations=2)

    def test_mc_control_family(self):
        """Invariant input: frequencies already match at a mild threshold."""
        out = xp.run_attractor_mc(replace(SPEC, dist="igw:0.66666666666666663",
                                             phi="length", survival_target=0.5,
                                             n=20000))
        assert not out["starved"] and out["passed"]

    @pytest.mark.parametrize("dist", ["igw:0.6666666666666666", "geom:0.3", "zipf:1.5"])
    def test_small_shapes_fixed_by_edges_and_first_branch(self, dist):
        """The attractor check reads shapes of at most 5 edges from the
        engine's (red_edges, first_branch) columns; every survivor of each
        class has one canonical code, the predicted classes their label's."""
        forest, _ = next(smp.iter_forest(from_spec(dist), 11, 2000, budget=2000,
                                         lam=1.0, chunk=2000))
        reductions = [pr.PrunedForest(forest, phi, t) for phi, t in (
            ("height", 1.0), ("length", 2.0), ("leaves", 3.0), ("ord", 1.0))]
        assert len(reductions[0].cut_idx) and len(reductions[1].cut_idx)
        reductions.append(pr.color_forest(forest.live(), 0.5, 7))
        codes = {}
        for red in reductions:
            for s in np.flatnonzero(red.survived & (red.red_edges <= 5)):
                cls = (int(red.red_edges[s]), int(red.first_branch[s]))
                codes.setdefault(cls, set()).add(
                    red.extract_reduced(int(s)).canonical_code().decode())
        assert all(len(c) == 1 for c in codes.values()), codes
        for edges, branch, label in xp._shape_predictions(0.5):
            assert codes[edges, branch] == {label}


class TestColoringExperiment:
    def test_binary_adjudication(self):
        out = xp.run_coloring(replace(SPEC, dist="binary", p=0.5, n=15000))
        assert out["survival"].passed
        assert out["thinned"].passed
        assert out["as_printed"]["rejected"]
        assert out["adjudication"] == "thinned"


class TestWorkers:
    @pytest.mark.parametrize("run,kw", [
        (xp.run_thinning, dict(dist="binary", phi="length")),
        (xp.run_coloring, dict(dist="binary", p=0.5)),
        (xp.run_semigroup, dict(dist="binary")),
        # the threshold comes from a 20,000-tree pilot sample
        (xp.run_attractor_mc, dict(dist="binary", phi="ord", threshold=None))],
        ids=["thinning", "coloring", "semigroup", "attractor-pilot"])
    def test_one_and_two_cpus_give_equal_reports(self, run, kw, monkeypatch):
        """Six chunks at a budget that censors, drawn in-process and by two
        forked workers."""
        spec = replace(SPEC, n=3000, budget=300, chunk=512, **kw)
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(smp, "_cpus", lambda: cpus)
            reports.append(run(spec))
        assert reports[0] == reports[1]


def _assert_same_tally(a: xp.Tally, b: xp.Tally):
    """Field by field, pooled arrays joined and compared bit for bit."""
    for f in dataclasses.fields(xp.Tally):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, list):
            x, y = (np.concatenate(v) if v else np.zeros(0) for v in (x, y))
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


class TestReducers:
    """Every forest verdict is one pass of ``_tally`` with a module-level
    reducer that maps a chunk and its first replicate to the chunk's Tally."""

    # reducer -> the edge rate its forest is sampled at (None: shapes only)
    REDUCERS = {
        "prune-length": (partial(xp._prune, "length", 1.0, pool_lengths=True), 1.0),
        "prune-ord": (partial(xp._prune, "ord", 1.0), None),
        "color": (partial(xp._color, 0.5, 7), None),
        "compose": (xp._compose, 1.0),
        "survival": (partial(xp._survival, "leaves"), None),
    }
    # binary, seed 20: 25 of 300 trees censored at budget 100, 2 of them among
    # the first M; the first tree off the length semigroup has live rank 20
    # (replicate 22), after the first M replicates
    SPEC = xp.ExperimentSpec(dist="binary", seed=20, n=300, budget=100, chunk=7)
    M = 14

    @pytest.mark.parametrize("name", sorted(REDUCERS))
    def test_pickle_round_trip(self, name):
        reducer, lam = self.REDUCERS[name]
        forest, _ = next(smp.iter_forest(self.SPEC.distribution(), 6, 64, budget=300, lam=lam))
        _assert_same_tally(pickle.loads(pickle.dumps(reducer))(forest, 5), reducer(forest, 5))

    @pytest.mark.parametrize("name", sorted(REDUCERS))
    def test_merged_halves_equal_one_tally(self, name):
        """Replicates [0, M) merged with [M, n) give the tally of [0, n).  M
        is a chunk boundary, where coloring's streams (keyed by live rank
        within the chunk) agree too."""
        reducer, lam = self.REDUCERS[name]
        spec, m = self.SPEC, self.M
        whole = xp._tally(spec, reducer, lam)
        first = xp._tally(replace(spec, n=m), reducer, lam)
        second = xp.Tally()
        for forest, _ in smp.iter_forest(spec.distribution(), spec.seed, spec.n - m,
                                         budget=spec.budget, lam=lam, replicate0=m,
                                         chunk=spec.chunk):
            second = second.merge(reducer(forest, m + second.n_trees))
        _assert_same_tally(first.merge(second), whole)
        assert (whole.n_trees, whole.n_censored, first.n_censored) == (300, 25, 2)
        for pooled in ("edge_lengths", "stats"):  # in replicate order: the first chunk first
            if getattr(first, pooled):
                assert np.array_equal(getattr(whole, pooled)[0], getattr(first, pooled)[0])
        if name == "compose":
            assert (first.found, second.found, whole.found) == (None, 20 - (m - 2), 20)


class TestSemigroupExperiment:
    def test_dichotomy(self):
        out = xp.run_semigroup(replace(SPEC, n=200))
        assert out["height"]["violations"] == 0
        assert out["ord"]["violations"] == 0
        assert out["length"]["fixed_violates"]
        assert out["passed"]

    @staticmethod
    def _expected(checked, found):
        """run_semigroup's result with the given tree count and random
        counterexample index (both functionals pass on every tree)."""
        ok = {"checked": checked, "violations": 0, "passed": True}
        return {"height": ok, "ord": ok, "length": {
            "fixed_counterexample": xp.LENGTH_SEMIGROUP_COUNTEREXAMPLE,
            "fixed_violates": True, "two_step": "(:0.5999999999999999);",
            "one_step": "(:1.0);", "random_counterexample_index": found, "passed": True},
            "passed": True}

    # (dist, seed) at n = 300 and budget 300 -> (live trees, first failing length rank)
    SMALL = {("igw:0.5", 4): (284, 5), ("binary", 6): (288, 10)}

    @pytest.mark.parametrize("chunk", [7, 64, 8192])
    @pytest.mark.parametrize("dist,seed", sorted(SMALL))
    def test_result_pinned_at_every_chunk(self, dist, seed, chunk):
        out = xp.run_semigroup(xp.ExperimentSpec(dist=dist, seed=seed, n=300, budget=300,
                                                 chunk=chunk))
        assert out == self._expected(*self.SMALL[dist, seed])

    def test_result_pinned_on_criterion_11_spec(self):
        out = xp.run_semigroup(xp.ExperimentSpec(dist="igw:0.5", n=1000, seed=20260810))
        assert out == self._expected(1000, 0)

    def test_equals_per_tree_oracle(self):
        """semigroup_check on every live tree gives the chunk's verdicts tree
        by tree, run_semigroup's violation counts and its first failing
        length rank."""
        spec = xp.ExperimentSpec(dist="igw:0.5", seed=4, n=300, budget=300, chunk=64)
        steps = {"height": (0.3, 0.3), "ord": (1.0, 1.0), "length": (0.3, 0.3)}
        bad = dict.fromkeys(steps, 0)
        found = None
        checked = 0
        for forest, _ in smp.iter_forest(spec.distribution(), spec.seed, spec.n,
                                         budget=spec.budget, lam=spec.lam, chunk=spec.chunk):
            live = forest.live()
            for phi, (s, t2) in steps.items():
                per_tree = [pr.semigroup_check(t, phi, s, t2)[0] for t in live]
                assert list(xp._composes(live, phi, s, t2, 1e-9)) == per_tree
                if phi == "length" and found is None and not all(per_tree):
                    found = checked + per_tree.index(False)
                bad[phi] += per_tree.count(False)
            checked += live.R
        out = xp.run_semigroup(spec)
        assert bad["length"] > 0
        assert {phi: (out[phi]["checked"], out[phi]["violations"]) for phi in ("height", "ord")} \
            == {phi: (checked, bad[phi]) for phi in ("height", "ord")}
        assert out["length"]["random_counterexample_index"] == found

    def test_checks_spec_n_trees(self, capsys):
        """--n was ignored: the verb sampled 1000 trees whatever it said."""
        assert cli_main(["semigroup", "--dist", "igw:0.5", "--n", "20",
                         "--budget", "200", "--seed", "3"]) == 0
        lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
        for phi in ("height", "ord"):
            assert 0 < json.loads(lines[phi])["checked"] <= 20


class TestMajorityAndReports:
    def test_majority_vote(self):
        calls = []

        def fake(spec):
            calls.append(spec.seed)
            return gof.GofReport("x", 0.0, 1.0, spec.seed % 2 == 0, 1)

        ok, outcomes = xp.majority(fake, SPEC, seeds=(1, 2, 3, 4))
        assert len(calls) == 4
        assert ok == (sum(s % 2 == 0 for s in [SPEC.seed + i for i in (1, 2, 3, 4)]) > 2)

    def test_majority_of_dict_results(self):
        """run_invariance had no "passed" entry: majority raised KeyError."""
        spec = replace(SPEC, phi="height", n=600, budget=300)
        ok, outcomes = xp.majority(xp.run_invariance, spec, seeds=(1, 2, 3))
        for _, passed, out in outcomes:
            assert passed == (out["offspring"].passed and out["rate"].passed)
        assert ok == (sum(p for _, p, _ in outcomes) >= 2)


class TestCLI:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# a comment\ndist = igw:0.5\nn = 500\nseed = 9\n")
        kw = read_config(str(cfg))
        assert kw == {"dist": "igw:0.5", "n": 500, "seed": 9}
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense := 3\n")
        with pytest.raises(ValueError):
            read_config(str(bad))

    def test_sample_prune_color_pipeline(self, tmp_path):
        forest = tmp_path / "trees.newick"
        pruned = tmp_path / "pruned.newick"
        colored = tmp_path / "colored.newick"
        log = tmp_path / "cuts.csv"
        assert cli_main(["sample", "--dist", "igw:0.5", "--lam", "1", "--n", "200",
                         "--seed", "4", "--out", str(forest)]) == 0
        lines = forest.read_text().strip().splitlines()
        assert len(lines) == 200 and lines[0].endswith(";")
        assert cli_main(["prune", "--phi", "height", "--t", "0.8",
                         "--in", str(forest), "--out", str(pruned),
                         "--log", str(log)]) == 0
        assert log.read_text().startswith("tree,edge_child,offset")
        assert cli_main(["color", "--p", "0.5", "--seed", "7",
                         "--in", str(forest), "--out", str(colored)]) == 0

    def test_prune_requires_positive_threshold(self, tmp_path, capsys):
        """Without a threshold, pruning used to keep every tree and exit 0;
        at --t nan or inf it pruned every tree and exited 0."""
        forest = tmp_path / "trees.newick"
        forest.write_text("((:1,:3):1);\n")
        out = tmp_path / "pruned.newick"
        for extra in ([], ["--t", "0"], ["--t", "-1"], ["--t", "nan"], ["--t", "inf"]):
            assert cli_main(["prune", "--in", str(forest), "--out", str(out), *extra]) != 0
            assert "threshold" in capsys.readouterr().err

    def test_prune_and_color_match_recorded_output(self, tmp_path):
        """Byte for byte against tests/data/cli_*.gz, which were recorded
        with the per-tree engine that the forest engine replaced, on the
        forest of ``igwlab sample --dist binary --n 300 --seed 42
        --budget 10000``."""
        def recorded(name):
            return gzip.decompress((DATA / f"cli_{name}.gz").read_bytes())

        forest = tmp_path / "trees.newick"
        assert cli_main(["sample", "--dist", "binary", "--n", "300", "--seed", "42",
                         "--budget", "10000", "--out", str(forest)]) == 0
        for phi in ("height", "length"):
            out, log = tmp_path / f"pruned_{phi}.newick", tmp_path / f"cuts_{phi}.csv"
            assert cli_main(["prune", "--phi", phi, "--t", "2", "--in", str(forest),
                             "--out", str(out), "--log", str(log)]) == 0
            assert out.read_bytes() == recorded(f"pruned_{phi}.newick")
            assert log.read_bytes() == recorded(f"cuts_{phi}.csv")
        out = tmp_path / "colored.newick"
        assert cli_main(["color", "--p", "0.5", "--seed", "7", "--in", str(forest),
                         "--out", str(out)]) == 0
        assert out.read_bytes() == recorded("colored.newick")

    def test_chunked_prune_and_color_match_recorded_output(self, tmp_path, monkeypatch):
        """prune and color read their input in chunks; chunks of 7 trees,
        which do not divide the 300, change no output byte."""
        monkeypatch.setattr(cli, "_CHUNK", 7)
        self.test_prune_and_color_match_recorded_output(tmp_path)

    @pytest.mark.parametrize("chunk", [4096, 7])
    def test_sample_writes_chunk_by_chunk(self, tmp_path, monkeypatch, capsys, chunk):
        """sample writes each chunk as it is drawn; the file is the one the
        whole-forest writer made (SHA-256 recorded), for any chunk size."""
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        forest = tmp_path / "trees.newick"
        assert cli_main(["sample", "--dist", "binary", "--n", "300", "--seed", "42",
                         "--budget", "10000", "--out", str(forest)]) == 0
        assert hashlib.sha256(forest.read_bytes()).hexdigest() == (
            "09272167063b8f1d0e0988c9f8583d6e1f451a79fed5e1788d814d08d9d6567d")
        assert "censored replicates skipped: 4" in capsys.readouterr().err

    def test_sample_stats_json(self, tmp_path):
        out = tmp_path / "stats.json"
        assert cli_main(["sample", "--dist", "binary", "--lam", "2", "--n", "300",
                         "--seed", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 300 and payload["length_mean"] > 0

    def test_dist_grid(self, capsys):
        assert cli_main(["dist", "height", "--q", "0.5", "--lam", "1",
                         "--x-grid", "0:2:1"]) == 0
        out = capsys.readouterr().out
        assert "x,cdf" in out and "0.5" in out
        # every row is two plain numbers (numpy 2 used to print np.float64(0.0))
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert rows == [(0.0, 0.0), (1.0, pytest.approx(1 / 3)), (2.0, 0.5)]

    @pytest.mark.parametrize("argv", [
        ["length", "--q", "0.5", "--x-grid", "1:0:0.1"],
        ["length", "--q", "0.5", "--x-grid", "0:1:-0.1"],
        ["length", "--q", "0.5", "--x-grid", "0:1:0"],
        ["length", "--q", "0.5", "--x-grid", "0:1"],
        ["length", "--q", "0.5", "--x-grid", "a:1:0.1"],
        ["length", "--q", "0.5", "--prec-bits", "32"],
        ["height", "--q", "0.3"],
        ["length", "--q", "0.3"],
        ["size", "--q", "0.3", "--x-grid", "1:3:1"],
    ])
    def test_dist_rejects_bad_arguments(self, argv, capsys):
        """These printed only a header, printed values of a law outside the
        family, or died with a traceback."""
        assert cli_main(["dist", *argv]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("igwlab dist")

    def test_verify_verb_exit_code(self):
        assert cli_main(["verify", "height", "--dist", "igw:0.5", "--n", "8000",
                         "--seed", "3"]) == 0

    def test_attractor_gf_verb(self, capsys):
        assert cli_main(["attractor", "gf", "--dist", "geom:0.5"]) == 0
        assert "g0 ->" in capsys.readouterr().out

    def test_console_entry_point(self):
        out = subprocess.run([sys.executable, "-m", "igwlab.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0 and "sample" in out.stdout
