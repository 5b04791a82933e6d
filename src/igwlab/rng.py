"""Counter-based deterministic random numbers.

The sampling contract of this package is that every random tree is a pure
function of ``(master seed, replicate index)``: replicate streams never
interact, any subset of replicates may be generated in any batch order, and
regeneration is bit-identical.  Sequential generators cannot provide this
(batching would change draw order), so randomness is produced by a keyed
counter-based generator with random access:

    draw = philox4x32(key=stream_key(seed, replicate), counter=draw_index)

The block cipher is Philox-4x32 with 10 rounds (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3").  ``philox4x32`` evaluates it on numpy
``uint64`` lanes, so that a whole frontier of tree vertices, spanning many
replicates, is one vectorized call; calls of a few lanes (one tree's leaf
coloring, one level of the scalar sampler) run on Python ints instead,
where numpy's per-operation set-up would cost more than the rounds.  Each
128-bit block yields two 53-bit uniforms; vertex ``j`` of a replicate
always consumes block ``j`` regardless of how replicates are batched.

Everything here is exact integer arithmetic, so both paths give the same
bits, on any platform.
"""

from __future__ import annotations

import numpy as np

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_LO32 = np.uint64(0xFFFFFFFF)
_M32 = 0xFFFFFFFF

# Philox-4x32 round constants.
_PHILOX_M0 = np.uint64(0xD2511F53)
_PHILOX_M1 = np.uint64(0xCD9E8D57)
_PHILOX_W0 = np.uint64(0x9E3779B9)
_PHILOX_W1 = np.uint64(0xBB67AE85)

# SplitMix64 constants, used only to derive per-replicate keys.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U64_MASK = (1 << 64) - 1

# Lanes per tile of a large philox4x32 call.
_TILE = 1 << 14

# Calls of at most this many lanes run on Python ints (see philox4x32); at
# 12 lanes of distinct keys the two paths cost about the same.
_SMALL = 12

# Scale for mapping integers to floats: 2**-53.
_INV53 = 1.0 / 9007199254740992.0


def _mix64_int(x: int) -> int:
    """SplitMix64 finalizer on plain Python ints (mod 2**64)."""
    z = x & _U64_MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _U64_MASK
    return z ^ (z >> 31)


def stream_key(seed: int, replicate: int) -> int:
    """64-bit Philox key for one replicate stream.

    This is the ``replicate``-th output of the SplitMix64 sequence seeded at
    ``seed``; distinct (seed, replicate) pairs give well-separated keys.
    """
    if replicate < 0:
        raise ValueError("replicate index must be >= 0")
    return _mix64_int((seed + (replicate + 1) * _GOLDEN) & _U64_MASK)


def stream_keys(seed: int, replicates: np.ndarray) -> np.ndarray:
    """Vectorized :func:`stream_key` for an array of replicate indices."""
    replicates = np.asarray(replicates)
    if replicates.size and replicates.min() < 0:
        raise ValueError("replicate index must be >= 0")
    z = (replicates.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    z = z + np.uint64(seed & _U64_MASK)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def philox4x32(key: np.ndarray, counter: np.ndarray, domain: int = 0):
    """Philox-4x32-10 block function, vectorized over lanes.

    Parameters
    ----------
    key     : uint64 array or int; per-lane 64-bit key (split into the two
              32-bit Philox key words).
    counter : uint64 array; per-lane block index, forming counter words
              (c0, c1).  ``domain`` supplies c2 so that independent draw
              families can share a key without overlap; c3 is zero.

    Returns
    -------
    (w01, w23) : two uint64 arrays of the broadcast shape, the four 32-bit
                 output words paired up.

    A call of at most ``_SMALL`` lanes runs block by block on Python ints:
    numpy spends 80-135 us on the ten rounds of a small call whatever its
    lane count, against 5-8 us per block on ints (``BENCH_9.json`` has the
    measured crossover).  Larger calls run on numpy lanes, tile by tile
    beyond ``_TILE`` lanes so that the rounds' temporaries stay in cache.
    Both paths compute the same exact integers: a product of two 32-bit
    words fits in 64 bits, and every other step is a shift, xor or 32-bit
    mask.  Lanes are independent, so neither the path nor the tiling
    changes the output.
    """
    key = np.asarray(key, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    lanes = np.broadcast(key, counter)
    if lanes.size <= _SMALL:
        return _philox_ints(key, counter, domain, lanes.shape)
    if lanes.size <= _TILE:
        if counter.shape != lanes.shape:  # the rounds update counter-shaped words in place
            counter = np.broadcast_to(counter, lanes.shape)
        return _philox_rounds(key, counter, domain)
    key, counter = np.broadcast_arrays(key, counter)
    shape = key.shape
    key, counter = key.ravel(), counter.ravel()
    w01 = np.empty(key.size, dtype=np.uint64)
    w23 = np.empty(key.size, dtype=np.uint64)
    for lo in range(0, key.size, _TILE):
        tile = slice(lo, lo + _TILE)
        _philox_rounds(key[tile], counter[tile], domain, (w01[tile], w23[tile]))
    return w01.reshape(shape), w23.reshape(shape)


# Round r adds r times the Weyl constants to the two key words.
_KEY_STEPS = tuple((r * int(_PHILOX_W0), r * int(_PHILOX_W1)) for r in range(10))


def _philox_ints(key, counter, domain, shape):
    """:func:`philox4x32` on Python ints, one block at a time."""
    keys = np.broadcast_to(key, shape).ravel().tolist()
    ctrs = np.broadcast_to(counter, shape).ravel().tolist()
    c2 = int(domain) & _M32  # a numpy integer domain would make the rounds overflow
    m0, m1 = int(_PHILOX_M0), int(_PHILOX_M1)
    w01, w23 = [], []
    last = None
    for k, c in zip(keys, ctrs):
        if k != last:  # the lanes of one stream share a key and its schedule
            k0, k1, last = k & _M32, k >> 32, k
            schedule = [((k0 + s0) & _M32, (k1 + s1) & _M32) for s0, s1 in _KEY_STEPS]
        x0, x1, x2, x3 = c & _M32, c >> 32, c2, 0
        for k0, k1 in schedule:
            p0 = m0 * x0
            p1 = m1 * x2
            x0, x1, x2, x3 = (p1 >> 32) ^ x1 ^ k0, p1 & _M32, (p0 >> 32) ^ x3 ^ k1, p0 & _M32
        w01.append(x0 << 32 | x1)
        w23.append(x2 << 32 | x3)
    # [()] makes 0-d results numpy scalars, as the ufuncs of the numpy path do
    return (np.array(w01, dtype=np.uint64).reshape(shape)[()],
            np.array(w23, dtype=np.uint64).reshape(shape)[()])


def _philox_rounds(key, counter, domain, out=None):
    """:func:`philox4x32` on one tile, into ``out`` when given."""
    c0 = counter & _LO32
    c1 = counter >> np.uint64(32)
    c2 = np.full(c0.shape, np.uint64(domain & 0xFFFFFFFF), dtype=np.uint64)
    c3 = np.zeros(c0.shape, dtype=np.uint64)
    k0 = key & _LO32
    k1 = key >> np.uint64(32)

    _32 = np.uint64(32)
    # augmented ops keep temporaries down; they rebind harmlessly on 0-d input
    for r in range(10):
        if r:
            k0 += _PHILOX_W0
            k0 &= _LO32
            k1 += _PHILOX_W1
            k1 &= _LO32
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        hi1 = p1 >> _32
        p1 &= _LO32
        hi1 ^= c1
        hi1 ^= k0
        hi0 = p0 >> _32
        p0 &= _LO32
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, p1, hi0, p0
    w01, w23 = out if out is not None else (None, None)
    w01 = np.left_shift(c0, _32, out=w01)
    w01 |= c1
    w23 = np.left_shift(c2, _32, out=w23)
    w23 |= c3
    return w01, w23


def philox4x32_scalar(key: int, counter: int, domain: int = 0):
    """Scalar reference of :func:`philox4x32` (used for cross-validation)."""
    key, counter, domain = int(key), int(counter), int(domain)
    c = [counter & 0xFFFFFFFF, (counter >> 32) & 0xFFFFFFFF, domain & 0xFFFFFFFF, 0]
    k = [key & 0xFFFFFFFF, (key >> 32) & 0xFFFFFFFF]
    m0, m1 = 0xD2511F53, 0xCD9E8D57
    for r in range(10):
        if r:
            k[0] = (k[0] + 0x9E3779B9) & 0xFFFFFFFF
            k[1] = (k[1] + 0xBB67AE85) & 0xFFFFFFFF
        p0 = m0 * c[0]
        p1 = m1 * c[2]
        c = [
            ((p1 >> 32) ^ c[1] ^ k[0]) & 0xFFFFFFFF,
            p1 & 0xFFFFFFFF,
            ((p0 >> 32) ^ c[3] ^ k[1]) & 0xFFFFFFFF,
            p0 & 0xFFFFFFFF,
        ]
    return (c[0] << 32) | c[1], (c[2] << 32) | c[3]


def _to_unit(w: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 in [0, 1) with 53-bit resolution."""
    return (w >> np.uint64(11)).astype(np.float64) * _INV53


def _to_open_unit(w: np.ndarray) -> np.ndarray:
    """Map uint64 words to float64 in (0, 1); both endpoints excluded."""
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * _INV53


def block_uniforms(key: np.ndarray, counter: np.ndarray, domain: int = 0):
    """Two uniforms per lane: (u in [0,1), v in (0,1)) from one Philox block.

    ``u`` drives inverse-CDF lookups (0 must be reachable so the smallest
    category keeps full mass); ``v`` feeds log transforms, so 0 is excluded.
    """
    w01, w23 = philox4x32(key, counter, domain)
    return _to_unit(w01), _to_open_unit(w23)


class CounterStream:
    """Sequential view of a keyed Philox stream.

    Thin stateful wrapper for consumers that want "the next uniform" rather
    than random access (leaf coloring, threshold search, shuffles in tests).
    One 128-bit block is split into two uniforms; draws are consumed in
    block order, so a stream is fully described by (seed, replicate, domain,
    position).
    """

    def __init__(self, seed: int, replicate: int = 0, domain: int = 0):
        self.key = stream_key(seed, replicate)
        self.domain = domain
        self._pos = 0  # uniform index; uniform r lives in block r >> 1

    @property
    def draws_consumed(self) -> int:
        return self._pos

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` uniforms in [0, 1); granularity of calls is irrelevant."""
        if n <= 0:
            return np.empty(0)
        first = self._pos >> 1
        last = (self._pos + n - 1) >> 1
        ctr = np.arange(first, last + 1, dtype=np.uint64)
        w01, w23 = philox4x32(self.key, ctr, self.domain)
        buf = np.empty(2 * len(ctr))
        buf[0::2] = _to_unit(w01)
        buf[1::2] = _to_unit(w23)
        off = self._pos - 2 * first
        self._pos += n
        return buf[off: off + n]

    def uniform(self) -> float:
        return float(self.uniforms(1)[0])

    def exponentials(self, n: int, rate: float) -> np.ndarray:
        """Next ``n`` Exp(rate) variates (strictly positive, finite)."""
        u = self.uniforms(n)
        return -np.log1p(-u) / rate

    def bernoulli(self, n: int, p_true: float) -> np.ndarray:
        """Next ``n`` independent {True w.p. p_true} trials."""
        return self.uniforms(n) < p_true
