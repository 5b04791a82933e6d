"""Counter-based generator: reference vectors, agreement of the Python-int,
numpy and scalar Philox paths, stream independence, and the uniform
mappings."""

import numpy as np
import pytest

from igwlab import rng
from test_rng_bits import LANES
from igwlab.rng import (
    CounterStream,
    block_uniforms,
    philox4x32,
    philox4x32_scalar,
    stream_key,
    stream_keys,
)


class TestPhilox:
    def test_known_answer_zero_vector(self):
        """Philox-4x32-10 reference vector (ctr = 0, key = 0)."""
        w01, w23 = philox4x32_scalar(0, 0, 0)
        words = (w01 >> 32, w01 & 0xFFFFFFFF, w23 >> 32, w23 & 0xFFFFFFFF)
        assert words == (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)

    def test_vectorized_equals_scalar(self):
        keys = np.array([0, 1, 2 ** 63, 0xDEADBEEF], dtype=np.uint64)
        ctrs = np.array([0, 1, 2 ** 40, 7], dtype=np.uint64)
        v01, v23 = philox4x32(keys, ctrs, domain=3)
        for i in range(len(keys)):
            s01, s23 = philox4x32_scalar(int(keys[i]), int(ctrs[i]), 3)
            assert (int(v01[i]), int(v23[i])) == (s01, s23)

    def test_tiled_call_equals_scalar_and_per_tile_calls(self):
        """A call of three tiles equals the scalar reference on both sides
        of every tile boundary, and the concatenation of per-tile calls."""
        T = rng._TILE
        n = 3 * T
        keys = stream_keys(11, np.arange(n) % 1000)
        ctrs = np.arange(n, dtype=np.uint64) * np.uint64(7919)
        w01, w23 = philox4x32(keys, ctrs, domain=5)
        for i in (0, T - 1, T, 2 * T - 1, 2 * T, n - 1):
            assert (int(w01[i]), int(w23[i])) == philox4x32_scalar(int(keys[i]), int(ctrs[i]), 5)
        tiles = [philox4x32(keys[lo: lo + T], ctrs[lo: lo + T], domain=5)
                 for lo in range(0, n, T)]
        assert np.array_equal(w01, np.concatenate([a for a, _ in tiles]))
        assert np.array_equal(w23, np.concatenate([b for _, b in tiles]))

    def test_domain_separates_streams(self):
        k = np.array([42], dtype=np.uint64)
        c = np.array([17], dtype=np.uint64)
        a = philox4x32(k, c, domain=0)
        b = philox4x32(k, c, domain=1)
        assert int(a[0][0]) != int(b[0][0])

    def test_counter_random_access(self):
        """Block j is a pure function of (key, j): order must not matter."""
        k = np.full(100, 99, dtype=np.uint64)
        c = np.arange(100, dtype=np.uint64)
        w01, _ = philox4x32(k, c)
        perm = np.random.default_rng(0).permutation(100)
        w01p, _ = philox4x32(k[perm], c[perm])
        assert np.array_equal(w01[perm], w01p)


def _scalar_words(key, counter, domain):
    """``philox4x32_scalar`` lane by lane, broadcast like the vector paths."""
    k, c = np.broadcast_arrays(np.asarray(key, dtype=np.uint64),
                               np.asarray(counter, dtype=np.uint64))
    pairs = [philox4x32_scalar(int(a), int(b), domain) for a, b in zip(k.ravel(), c.ravel())]
    return tuple(np.array([p[i] for p in pairs], dtype=np.uint64).reshape(k.shape)
                 for i in (0, 1))


class TestSmallCalls:
    """Calls of at most ``_SMALL`` lanes run on Python ints, larger ones on
    numpy lanes; both must give the scalar reference's words."""

    BIG_COUNTERS = np.array([0xFFFFFFFF, 2 ** 32, 2 ** 32 + 1, 2 ** 40 + 7,
                             2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    DOMAINS = (0, 7, 0x80000000, 0xFFFFFFFF, 2 ** 40 + 3, -1, -5, -(2 ** 31), -(2 ** 40),
               np.int64(7), np.int64(2 ** 31 + 5), np.int64(-3), np.uint64(2 ** 32 + 9))

    @staticmethod
    def _paths(key, counter, domain):
        """(ints path, numpy path, scalar reference) on the same lanes."""
        out = []
        for cutoff in (rng._TILE, -1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rng, "_SMALL", cutoff)
                out.append(philox4x32(key, counter, domain))
        return (*out, _scalar_words(key, counter, domain))

    def _assert_agree(self, key, counter, domain):
        small, lanes, ref = self._paths(key, counter, domain)
        for a, b, r in zip(small, lanes, ref):
            assert type(a) is type(b)
            assert a.dtype == b.dtype == np.uint64
            assert a.shape == b.shape == r.shape
            assert np.array_equal(a, b) and np.array_equal(a, r)

    def test_cutoff_is_below_the_pinned_lane_counts(self):
        """tests/test_rng_bits.py pins every lane count up to LANES."""
        assert 1 <= rng._SMALL and 2 * rng._SMALL + 1 <= LANES

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_high_counters_and_domains(self, domain):
        keys = stream_keys(3, np.arange(len(self.BIG_COUNTERS)))
        self._assert_agree(keys, self.BIG_COUNTERS, domain)
        self._assert_agree(0xFEDCBA9876543210, self.BIG_COUNTERS, domain)

    @pytest.mark.parametrize("key,counter", [
        (2 ** 64 - 1, np.arange(5, dtype=np.uint64)),         # scalar key
        (np.uint64(9), np.uint64(2 ** 33)),                    # 0-d both
        (np.array(12, dtype=np.uint64), np.uint64(3)),         # 0-d arrays
        (np.arange(4, dtype=np.uint64), np.uint64(2 ** 32)),  # scalar counter
        (np.arange(3, dtype=np.uint64)[:, None], np.arange(4, dtype=np.uint64)),  # 3 x 4
        (np.arange(5, dtype=np.uint64), np.arange(4, dtype=np.uint64)[:, None]),  # 4 x 5
        (np.arange(2, dtype=np.uint64), np.zeros((3, 0, 2), dtype=np.uint64)),  # empty
    ])
    def test_broadcast_shapes(self, key, counter):
        self._assert_agree(key, counter, 11)


class TestKeys:
    def test_stream_keys_match_scalar(self):
        reps = np.arange(1000)
        keys = stream_keys(123, reps)
        for r in (0, 1, 17, 999):
            assert int(keys[r]) == stream_key(123, r)

    def test_keys_distinct(self):
        keys = stream_keys(0, np.arange(200000))
        assert len(np.unique(keys)) == len(keys)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError):
            stream_key(1, -1)

    def test_negative_replicate_rejected_vectorized(self):
        """stream_keys used to wrap -1 to 2**64 - 1 and return a key."""
        with pytest.raises(ValueError):
            stream_keys(5, np.array([-1]))
        with pytest.raises(ValueError):
            stream_keys(5, np.array([0, 3, -2]))
        assert stream_keys(5, np.array([], dtype=np.int64)).size == 0


class TestUniforms:
    def test_ranges(self):
        u, v = block_uniforms(np.arange(10000, dtype=np.uint64),
                              np.arange(10000, dtype=np.uint64))
        assert np.all((u >= 0) & (u < 1))
        assert np.all((v > 0) & (v < 1))

    def test_mean_and_uniformity(self):
        u, _ = block_uniforms(np.full(200000, 5, dtype=np.uint64),
                              np.arange(200000, dtype=np.uint64))
        assert abs(u.mean() - 0.5) < 0.002
        hist, _ = np.histogram(u, bins=20, range=(0, 1))
        assert hist.min() > 9000  # expected 10000 per bin

    def test_counterstream_sequential_matches_blocks(self):
        """40 uniforms in one call (20 blocks, past the short-call cutoff),
        as 17 + 23 and one at a time give the same bytes."""
        assert rng._SMALL < 20
        whole = CounterStream(7, replicate=3).uniforms(40)
        st = CounterStream(7, replicate=3)
        halves = np.concatenate([st.uniforms(17), st.uniforms(23)])
        st = CounterStream(7, replicate=3)
        singles = np.array([st.uniform() for _ in range(40)])
        assert whole.tobytes() == halves.tobytes() == singles.tobytes()

    def test_exponentials_positive(self):
        st = CounterStream(1)
        x = st.exponentials(10000, rate=2.0)
        assert np.all(x > 0)
        assert abs(x.mean() - 0.5) < 0.02
