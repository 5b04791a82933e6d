"""CLI outputs pinned byte for byte.

One small invocation per verb and mode, each using only flags that the verb
reads.  Each is pinned by the SHA-256 of its exit code, stdout, stderr and
every file it writes.  The invocations run in-process in a fresh directory,
with relative paths, so no path reaches an output.  prune and color read
the forest of the ``sample-newick`` invocation; ``verify height`` and
``verify length`` read a config file that lifts the censoring bound.
"""

import hashlib
import os

import pytest

from igwlab.cli import main as cli_main

SMALL = ["--n", "400", "--budget", "300"]
FOREST = ["sample", "--dist", "binary", "--lam", "1", "--seed", "42", *SMALL,
          "--out", "trees.newick"]
REPORTS = (
    '{"test": "a", "statistic": 0.5, "threshold": 1.0, "passed": true, "n": 10}\n'
    '{"test": "b", "statistic": 2.5, "threshold": 1.0, "passed": false, "n": 10}\n'
)

CASES = {
    "sample-newick": FOREST,
    "sample-json": ["sample", "--dist", "igw:0.5", "--lambda", "2", "--seed", "4", *SMALL,
                    "--out", "stats.json"],
    "prune": ["prune", "--phi", "length", "--t", "2", "--in", "trees.newick",
              "--out", "pruned.newick", "--log", "cuts.csv"],
    "color": ["color", "--p", "0.5", "--seed", "7", "--in", "trees.newick",
              "--out", "colored.newick"],
    "dist-height": ["dist", "height", "--q", "0.5", "--lam", "2", "--x-grid", "0:3:0.25"],
    "dist-length": ["dist", "length", "--q", "0.5", "--lambda", "1", "--x-grid", "0:4:0.5",
                    "--prec-bits", "80", "--out", "cdf.csv"],
    "dist-size": ["dist", "size", "--q", "0.6666666666666666", "--x-grid", "1:12:1"],
    "verify-height": ["verify", "height", "--config", "verify.cfg", "--dist", "igw:0.5",
                      "--lam", "2", "--seed", "3", *SMALL, "--alpha", "0.05"],
    "verify-length": ["verify", "length", "--config", "verify.cfg", "--dist", "igw:0.5",
                      "--seed", "3", *SMALL],
    "verify-size": ["verify", "size", "--dist", "igw:0.5", "--seed", "3", *SMALL],
    "invariance": ["invariance", "--dist", "igw:0.5", "--phi", "height",
                   "--survival-target", "0.4", "--seed", "8", *SMALL],
    "falsify": ["falsify", "--dist", "zipf:1.5", "--phi", "length", "--t", "2",
                "--seed", "5", *SMALL],
    "thinning": ["thinning", "--dist", "binary", "--phi", "length", "--lam", "1",
                 "--seed", "5", *SMALL, "--alpha", "0.01"],
    "coloring": ["coloring", "--dist", "binary", "--p", "0.5", "--seed", "5", *SMALL],
    "semigroup": ["semigroup", "--dist", "igw:0.5", "--lam", "1", "--n", "60",
                  "--seed", "3", "--budget", "300"],
    "attractor-gf": ["attractor", "gf", "--dist", "geom:0.5"],
    "attractor-mc": ["attractor", "mc", "--dist", "geom:0.3", "--phi", "ord",
                     "--iterations", "1", "--n", "3000", "--seed", "6", "--budget", "300"],
    "report": ["report", "reports.jsonl"],
}

DIGESTS = {
    "attractor-gf": "69278e6b4ab2583be1085a8c83878a8d7011ebb97eef45250f819825d5f09d9b",
    "attractor-mc": "5cee9c76db2efa9bdf8beeb35fdb2aa31df846b98d7b7bab24619761e62c19f4",
    "color": "3f49fe635c9ff0c5e4d1232596972bdf4760f86d8158450d97602b4cbb983856",
    "coloring": "d6a797f21a4d9d25bfd9ca70889bfd187c7fe5b6ab5269f3aa68b8b0a722f74a",
    "dist-height": "f55f383226c00b8a86dede7d052e476d70994c4d8d24a1f9af252d647a1e4cc7",
    "dist-length": "c75f732029f73ada3b087cff0d11fe0a0c07a32741d9e8d7ea8258687a88b3d9",
    "dist-size": "faa6e8d1263a9bcdfdf3827d5ef12b94a159b0be2f3beab834067df9ebd5b07a",
    "falsify": "a0e5b50e459fcdfb2f054fb2d912a85a3cd53703a16ca01c4d9de1e156bde935",
    "invariance": "487645258d3c5c434ba16806065595f5f44228cca0b5c945fd111f1b41f8a32d",
    "prune": "f349c0583f4fbabb362c3101ce6c208cb47e13446af32de2f6520343de2b4da4",
    "report": "90e29684d09571101442f2eef8a344e8888807c67c309d3676720f1ffff71621",
    "sample-json": "64443aa636c7e5671ba7c3dac00c35651e91e63069c329a901d9e8438920e4c6",
    "sample-newick": "8df5637536e89559cdfd9ac8c0a33ecf07661cdf009cc7a0b4dfcb2c270cf162",
    "semigroup": "657279f98abbb998c18ec166c1d58244894028793f87485436c4d014e7c4ba7a",
    "thinning": "63e02eb429253f0976e7b4d53e92c84f2cc8c6015bc2d0c9dd50c71eb6a13025",
    "verify-height": "76cbb3241815a56a351870eb45a834d6479bb8318b31f67d8e087ea4b8349ca2",
    "verify-length": "49809fa805382cbe76fa2b443bce61119dbf7833a4d1e409b1b4ecc9a2c3e29f",
    "verify-size": "1ce5f55feccdfba9a2685080fb02c62404c620854b1e41d60cc0ba6efa17d7a2",
}


def _run(argv, capsys):
    """(exit code, stdout, stderr, {name: bytes} of the files it wrote)"""
    before = set(os.listdir("."))
    code = cli_main(argv)
    cap = capsys.readouterr()
    files = {}
    for name in sorted(set(os.listdir(".")) - before):
        with open(name, "rb") as fh:
            files[name] = fh.read()
    return code, cap.out, cap.err, files


def _digest(code, out, err, files) -> str:
    h = hashlib.sha256(f"{code}\0{out}\0{err}".encode())
    for name, data in files.items():
        h.update(b"\0" + name.encode() + b"\0" + data)
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "verify.cfg").write_text("# the tiny budget censors trees\n"
                                         "max_censor_rate = 1\n")
    (tmp_path / "reports.jsonl").write_text(REPORTS)
    if case in ("prune", "color"):
        assert cli_main(FOREST) == 0
        capsys.readouterr()
    assert _digest(*_run(CASES[case], capsys)) == DIGESTS[case]
