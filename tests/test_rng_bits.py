"""Random bits pinned by SHA-256.

``philox4x32`` answers short calls on Python ints and long ones on numpy
lanes; these digests hold both paths, the ``CounterStream`` draws built
on them and a few sampled trees to the bits they had when every call ran
on numpy.  Lane counts run from 0 to ``LANES`` (above twice the short-call
cutoff, which ``tests/test_rng.py`` checks), so each digest covers calls on
both sides of it.
"""

import hashlib

import numpy as np
import pytest

from igwlab import offspring as O
from igwlab.rng import CounterStream, philox4x32, stream_keys
from igwlab.sampler import SampleConfig, sample_metric

LANES = 40


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _counters(n: int) -> np.ndarray:
    """Counters spread over all 64 bits, so both counter words vary."""
    return np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15) + np.uint64(n)


PHILOX = {
    "shared key": "fa907764ba51b6e8935ab13f60256347e22dc367799a300f5fd87834354b2377",
    "distinct keys": "ab04fc9b7a8a99ee794a14a1b617ed991154820af01eb8b839eb9f2cda3545fd",
    "scalar key": "fa907764ba51b6e8935ab13f60256347e22dc367799a300f5fd87834354b2377",
}


def _philox_outputs(kind: str, domain: int):
    for n in range(LANES + 1):
        ctr = _counters(n)
        if kind == "shared key":
            key = np.full(n, 0xF00DFACE12345678, dtype=np.uint64)
        elif kind == "distinct keys":
            key = stream_keys(29, np.arange(n) * 7)
        else:
            key = 0xF00DFACE12345678
        yield from philox4x32(key, ctr, domain)


@pytest.mark.parametrize("kind", sorted(PHILOX))
def test_philox_lane_counts(kind):
    outs = [*_philox_outputs(kind, 7), *_philox_outputs(kind, -3)]
    assert _sha(*outs) == PHILOX[kind]


# (seed, replicate, domain, n): uniforms(n), exponentials(n, 2.5) and
# bernoulli(n, 0.3) drawn in turn from one stream
STREAMS = {
    (5, 3, 7, 1): "c4b72f5b73eabd3866761182ee1ee4fc72aa548f81b6c47d1d0aa49035486ee3",
    (5, 3, 7, 3): "04041cc21a7428a266277a8ab5422ec5ea50c0c54fda4dd259c3e0c034b2b134",
    (0, 0, 0, 16): "699a73752587390dcb6447061afa57610d7d7759baad7eb4529d6b145e5f689b",
    (11, 2, 1, 17): "65c624fd1d06dd37e3da8cb49ba5600be1e3ca913d2dec7fabf5223750fcd4e3",
    (123, 45, 0xC01031, 40): "eb96e16b565fb0119c31f4482730e402348ddf38b58ef07b54a6fad3a7b392d8",
    (2 ** 40 + 1, 9, 2 ** 31 + 5, 101): "8fa5f34909e890682916a086e5f4418c0f1682603cb4b16292a3a6e20a8bd857",
}


@pytest.mark.parametrize("seed,rep,domain,n", sorted(STREAMS))
def test_counter_stream_draws(seed, rep, domain, n):
    st = CounterStream(seed, rep, domain=domain)
    draws = (st.uniforms(n), st.exponentials(n, 2.5), st.bernoulli(n, 0.3))
    assert _sha(*draws) == STREAMS[seed, rep, domain, n]


# (spec, seed, replicate): parent and length arrays of sample_metric
TREES = {
    ("binary", 3, 0): "2358d59b04879d4890f85bb2121bb7adfb2589aed019232087a70790cf7e5bdf",
    ("binary", 3, 7): "37895e0f44addbdd0b679f1aae6998e3cb9898517ce72d99c9cc5667b177970d",
    ("igw:0.6666666666666666", 3, 31): "e00e4aa65c5a75454357691cf89e82c1b58170b27132bb21f274f7117a6cdac5",
    ("zipf:1.5", 3, 175): "79791e5337e3f11bc5f40c3128e3b8e037bb1808c0f7495c2df005a976bc8faf",
}


@pytest.mark.parametrize("spec,seed,rep", sorted(TREES))
def test_sampled_trees(spec, seed, rep):
    out = sample_metric(O.from_spec(spec),
                        SampleConfig(seed=seed, replicate=rep, budget=5000, edge_rate=1.0))
    t = out.tree
    got = "censored" if t is None else _sha(t.parent, t.length)
    assert got == TREES[spec, seed, rep]
