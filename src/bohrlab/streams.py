"""Trial streams: the PCG64 stream np.random.default_rng(key) gives for each
key of a chunk, drawn for the whole chunk at once.

The streams of a chunk of keys are one vectorised PCG64, _PCG64Rows, with a
row per key: numpy's SeedSequence hash of each key (every field as
little-endian 32-bit words, 0 as one word; the entropy mix into a pool of
four words; generate_state(4, np.uint64)) is formed with uint32 arrays for
the whole chunk, whose keys' words are laid out field by field (a shared
suite id or seed once, a trial, group or index as one column), and the
128-bit LCG steps of all rows are formed with uint64 arrays, so drawing
such a chunk never loads numpy.random.  Every chunk the suites form is of
that kind: its keys are tuples of one length, (suite id, seed, trial) or
(suite id, seed, group, index), whose varying fields lie below the trial
count.  Any other chunk (keys of several lengths, a varying field past
2**32, a key that is not a tuple of non-negative ints, a negative seed
say) is seeded by default_rng itself, a Generator per key behind the same
draw interface (_GeneratorRows), which reads such a key or refuses it with
its own error.
"""

from __future__ import annotations

import itertools

import numpy as np

# Keys are drawn this many at a time; a key's draws do not depend on the
# chunk it falls in, so the count bounds only the draws held at once.  A
# chunk's streams step with a fixed number of numpy calls per draw, so
# larger chunks pay fewer of them per key.
_DRAW_ROWS = 1024

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): its pool
# of four 32-bit words, the entropy and state hashes and the pool mix.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h) in 64-bit
# halves.  Python ints: numpy casts them to the uint64 of the arrays they
# meet, and the wrapping products stay array operations.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _entropy_words(key):
    """The 32-bit words SeedSequence assembles from a tuple of non-negative
    Python ints, each field little-endian and 0 as one word; None for any
    other key."""
    if type(key) is not tuple:
        return None
    words = []
    for n in key:
        if type(n) is not int or n < 0:
            return None
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


def _entropy_table(chunk):
    """The uint32 entropy words of a chunk of tuples of one length whose
    every field is an int, either one non-negative value for the whole chunk
    (a suite id, a seed) or values in [0, 2**32) (a trial, a group, an
    index), a row per key: a shared field's words once, a varying field as
    one column, and zeros after them up to _POOL_SIZE columns, as
    SeedSequence pads a short key.  None for any other chunk."""
    if set(map(type, chunk)) != {tuple} or len(set(map(len, chunk))) != 1:
        return None
    columns = []
    for field in zip(*chunk):
        if set(map(type, field)) != {int}:
            return None
        if field.count(field[0]) == len(field):
            words = _entropy_words(field[:1])
            if words is None:
                return None
            columns.append(np.broadcast_to(np.array(words, dtype=np.uint32), (len(chunk), len(words))))
        elif min(field) >= 0 and max(field) <= _MASK32:
            columns.append(np.array(field, dtype=np.uint32)[:, None])
        else:
            return None
    width = sum(column.shape[1] for column in columns)
    return np.hstack([*columns, np.zeros((len(chunk), max(_POOL_SIZE - width, 0)), dtype=np.uint32)])


def _seed_states(table: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64 words, row i being
    SeedSequence(key).generate_state(4, np.uint64) for the key whose entropy
    words row i of ``table`` holds (_entropy_table), hashed for all rows at
    once with numpy's uint32 arithmetic, which wraps as SeedSequence's
    does."""
    const = _INIT_A  # advanced by every hashmix, the same for every row

    def hashmix(values):
        nonlocal const
        values = values ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        values = values * np.uint32(const)
        return values ^ (values >> 16)

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return out ^ (out >> 16)

    pool = [hashmix(table[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, table.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(table[:, src]))
    const = _INIT_B
    state = np.empty((len(table), 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> 16)
    # word 2j is the low half of 64-bit word j, as in numpy's little-endian view
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each a * b, for a uint64 array a and b < 2**64,
    from 32-bit halves whose products fit in uint64."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low = a0 * b0
    mid = a1 * b0 + (low >> 32)
    return a1 * b1 + (mid >> 32) + (a0 * b1 + (mid & _MASK32) >> 32)


class _PCG64Rows:
    """One PCG64 per row, each as numpy's PCG64 runs it from the four seed
    words that row of ``words`` holds (SeedSequence.generate_state(4,
    np.uint64)), stepped for all rows at once in uint64 halves.  It makes
    the two draw calls of witnesses._polar_runs, with a Generator's bits:
    random(counts) and integers(lo, hi)."""

    def __init__(self, words: np.ndarray):
        # numpy's pcg64_set_seed: seed and increment are words 0:2 and 2:4,
        # high half first; the state steps from 0, takes the seed, steps
        self.inc_hi = words[:, 2] << 1 | words[:, 3] >> 63
        self.inc_lo = words[:, 3] << 1 | 1
        hi, lo = self._step(*np.zeros((2, len(words)), dtype=np.uint64))
        lo = lo + words[:, 1]
        self.hi, self.lo = self._step(hi + words[:, 0] + (lo < words[:, 1]), lo)
        # next_uint32 takes the low half of a fresh output and holds the high
        self.held = np.zeros(len(words), dtype=np.uint64)
        self.has_held = np.zeros(len(words), dtype=bool)

    def __len__(self) -> int:
        return len(self.hi)

    def _step(self, hi, lo) -> tuple:
        """The LCG step state * multiplier + inc mod 2**128 of every row."""
        new_lo = lo * _PCG_MULT_LO + self.inc_lo
        new_hi = _mul_high(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
        return new_hi + self.inc_hi + (new_lo < self.inc_lo), new_lo

    def _raw(self, counts) -> np.ndarray:
        """(rows, max(counts)) uint64 outputs: row i steps counts[i] times
        and its first counts[i] entries are those steps' XSL-RR outputs; the
        entries past them are not to be read."""
        hi, lo, out = self.hi, self.lo, []
        his, los = [hi], [lo]
        for _ in range(int(counts.max(initial=0))):
            hi, lo = self._step(hi, lo)
            his.append(hi)
            los.append(lo)
            x, turn = hi ^ lo, hi >> 58
            out.append(x >> turn | x << (64 - turn & 63))
        rows = np.arange(len(counts))
        self.hi, self.lo = np.array(his)[counts, rows], np.array(los)[counts, rows]
        return np.stack(out, axis=1) if out else np.empty((len(counts), 0), dtype=np.uint64)

    def random(self, counts) -> np.ndarray:
        """(rows, max(counts)) doubles, row i's first counts[i] being its
        next Generator.random(counts[i]); the entries past them are not to
        be read."""
        counts = np.broadcast_to(np.asarray(counts, dtype=np.intp), (len(self),))
        return (self._raw(counts) >> 11) * 2.0**-53

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        """next_uint32 of the rows marked in ``rows``: a held high half, or
        the low half of a fresh output, whose high half is then held."""
        fresh = rows & ~self.has_held
        raw = self._raw(fresh.astype(np.intp))
        self.has_held ^= rows
        if not raw.shape[1]:
            return self.held
        out = np.where(fresh, raw[:, 0] & _MASK32, self.held)
        self.held = np.where(fresh, raw[:, 0] >> 32, self.held)
        return out

    def integers(self, lo: int, hi: int) -> np.ndarray:
        """One Generator.integers(lo, hi + 1) per row: numpy's 32-bit Lemire
        draw and its rejection loop for 0 < hi - lo < 2**32 - 1; a range of
        0 consumes nothing."""
        span = hi - lo
        if span == 0:
            return np.full(len(self), lo, dtype=np.intp)
        threshold = (_MASK32 - span) % (span + 1)
        scaled = self._uint32(np.ones(len(self), dtype=bool)) * (span + 1)
        redraw = (scaled & _MASK32) < threshold
        while redraw.any():
            scaled = np.where(redraw, self._uint32(redraw) * (span + 1), scaled)
            redraw &= (scaled & _MASK32) < threshold
        return (scaled >> 32).astype(np.intp) + lo


class _GeneratorRows:
    """numpy Generators as rows of the draw interface of _PCG64Rows:
    integers(lo, hi) and random(counts), one Generator call per row."""

    def __init__(self, generators):
        self.generators = generators

    def __len__(self) -> int:
        return len(self.generators)

    def integers(self, lo: int, hi: int) -> np.ndarray:
        """One draw uniform on [lo, hi] per row."""
        return np.array([g.integers(lo, hi + 1) for g in self.generators], dtype=np.intp)

    def random(self, counts) -> np.ndarray:
        """(rows, max(counts)) doubles, row i's first counts[i] being its
        Generator's next random(counts[i]), zero past them."""
        counts = np.broadcast_to(np.asarray(counts, dtype=np.intp), (len(self),))
        runs = np.zeros((len(self), int(counts.max(initial=0))))
        for run, g, n in zip(runs, self.generators, counts.tolist()):
            run[:n] = g.random(n)
        return runs


def _streams(chunk):
    """The PCG64 stream np.random.default_rng(key) gives for each key of a
    chunk, one row each: a _PCG64Rows when _entropy_table reads the chunk,
    else a Generator per key from default_rng itself, which reads the key
    or refuses it as it always has."""
    table = _entropy_table(chunk)
    if table is None:
        return _GeneratorRows([np.random.default_rng(key) for key in chunk])
    return _PCG64Rows(_seed_states(table))


def _keyed_draws(keys, draw):
    """draw(streams, chunk) of consecutive chunks of ``keys``, in order,
    where row i of streams is the PCG64 stream keyed by chunk[i], as
    np.random.default_rng(chunk[i]) seeds it."""
    keys = iter(keys)
    while chunk := list(itertools.islice(keys, _DRAW_ROWS)):
        yield draw(_streams(chunk), chunk)
