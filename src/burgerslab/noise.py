"""Space-time white noise increments on the interior lattice.

A noise sheet holds the nt x (nx-1) matrix of independent N(0, dt*dx)
increments driving one solver path.  Streams are pure functions of
(master_seed, path_index), so Monte Carlo runs are reproducible no matter
how paths are scheduled across workers, and a sheet is never written to a
file: its SeedSpec reproduces it.

How a seed becomes numbers.  Path i's stream key is the first 64-bit word
of numpy's SeedSequence(entropy=master_seed, spawn_key=(i,)), and its
generator is default_rng(key): a PCG64 seeded from the four 64-bit words of
SeedSequence(key).  This module computes both hashes itself, with the
constants of numpy/random/bit_generator.pyx, on 32-bit words held either in
Python ints (one path) or in uint64 arrays (a chunk of paths in one
vectorised pass); NEP 19 freezes SeedSequence's and PCG64's bit streams, so
the keys and the normals are numpy's bit for bit.  The pool the master seed
leaves before the index is mixed in is the same for every path and is
cached.  _stream_words gives a chunk's seed words, _generator turns a row
into a Generator (PCG64 does its own 128-bit seeding), and _draw alone
turns a generator into increments.  _fill_sheets draws sheet after sheet
into one buffer the caller owns, and _sheet_blocks draws many paths in
step blocks through one buffer.  numpy.random is imported on the first
draw, not with the package: commands that never draw do not load it.

The Girsanov helpers implement the measure change of the controlled
dynamics: shifting the sheet by h*v*dt*dx and the log-density
-h*sum(v dW) - (h^2/2)*|v|^2_{H_T} whose exponential has mean one.  The
H_T norm is grids.ht_dot, dt*dx per cell: the Cameron-Martin norm of the
sheet, the variance of sum(v dW), and the rate function's energy metric.
_log_densities streams many sheets of one run through one buffer: it
refills the buffer per sheet, reads sum(v dW) in place, and forms the
quadratic term once; its values are girsanov_log_density's bit for bit.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grids import Control, Grid, _freeze, _whole, ht_dot, same_grid

__all__ = [
    "SeedSpec",
    "NoiseSheet",
    "sample_sheet",
    "girsanov_shift",
    "girsanov_log_density",
]

_UINT64_MASK = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF

# SeedSequence's hash constants (numpy/random/bit_generator.pyx): the chains
# that mix entropy into the pool and draw state from it, and mix()'s pair
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus path index; every path gets its own derived stream."""

    master_seed: int
    path_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "path_index"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if not (0 <= self.master_seed <= _UINT64_MASK):
            raise ValueError("master_seed must fit in 64 bits")
        if self.path_index < 0:
            raise ValueError("path_index must be nonnegative")

    def stream_key(self) -> int:
        """64-bit stream key, a pure function of (master_seed, path_index).

        SeedSequence(entropy=master_seed, spawn_key=(path_index,))'s first
        64-bit word, for an index of any width.
        """
        i = self.path_index
        words = [i >> s & _MASK32 for s in range(0, max(i.bit_length(), 1), 32)]
        return _state(_absorb(_master_pool(self.master_seed), words), 1)[0]


@dataclass(frozen=True)
class NoiseSheet:
    """One path's noise increments; seed records the generating stream key."""

    dW: np.ndarray
    seed: int
    grid: Grid

    def __post_init__(self):
        _freeze(self, "dW", (self.grid.nt, self.grid.nx - 1))
        object.__setattr__(self, "seed", int(self.seed))


# SeedSequence's hash, written once for 32-bit words held in Python ints or
# in uint64 arrays of one word per path; & _MASK32 is its uint32 wrap-around.


@functools.lru_cache(maxsize=None)
def _chain(init: int, mult: int, n: int) -> tuple:
    """The first n (xor, multiplier) pairs of a hash-constant chain.

    The chain is c_j = init * mult^j mod 2^32; hash j xors by c_j and
    multiplies by c_(j+1).
    """
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    return tuple(zip(c[:-1], c[1:]))


def _hashmix(x, k):
    x = (x ^ k[0]) * k[1] & _MASK32
    return x ^ x >> 16


def _mix_in(p, x, k):
    """mix(p, hashmix(x)): x hashed by the constant pair k, mixed into pool word p."""
    x = (x ^ k[0]) * k[1] & _MASK32  # _hashmix, inlined: one call per word on the one-path route
    r = (_MIX_L * p - _MIX_R * (x ^ x >> 16)) & _MASK32
    return r ^ r >> 16


# the (source, destination) pool words of mix_entropy's all-to-all loop
_SPREAD = tuple((s, d) for s in range(4) for d in range(4) if d != s)


def _pool(words) -> list:
    """SeedSequence's 4-word pool after its first four entropy words, zero-padded, are mixed."""
    k = _chain(_INIT_A, _MULT_A, 16)
    pool = [_hashmix(w, kj) for w, kj in zip((*words, 0, 0, 0, 0)[:4], k)]
    for (s, d), kj in zip(_SPREAD, k[4:]):
        pool[d] = _mix_in(pool[d], pool[s], kj)
    return pool


def _absorb(pool, words) -> list:
    """The pool after the entropy words past the fourth are mixed into every pool word."""
    k = iter(_chain(_INIT_A, _MULT_A, 16 + 4 * len(words))[16:])
    pool = list(pool)
    for w in words:
        for d in range(4):
            pool[d] = _mix_in(pool[d], w, next(k))
    return pool


def _state(pool, n: int) -> list:
    """SeedSequence.generate_state(n, np.uint64) of pool, as n 64-bit words."""
    w = [_hashmix(pool[j % 4], kj) for j, kj in enumerate(_chain(_INIT_B, _MULT_B, 2 * n))]
    return [lo | hi << 32 for lo, hi in zip(w[::2], w[1::2])]


@functools.lru_cache(maxsize=64)
def _master_pool(master_seed: int) -> tuple:
    """The pool every path of master_seed shares before its index is mixed in.

    A spawn key pads the entropy to four words, so the index words are the
    fifth on and the first four, master_seed's, fill the pool alone.
    """
    return tuple(_pool((master_seed & _MASK32, master_seed >> 32)))


def _stream_keys(master_seed: int, indices) -> np.ndarray:
    """SeedSpec(master_seed, i).stream_key() for each i in indices, as uint64."""
    idx = np.asarray(indices)
    if idx.size > 1 and idx.dtype.kind in "iu" and idx.min() >= 0 and idx.max() <= _MASK32:
        # one index word each: the whole chunk in one pass
        pool = _master_pool(SeedSpec(master_seed).master_seed)
        return _state(_absorb(pool, [idx.astype(np.uint64)]), 1)[0]
    # one row, where Python ints beat numpy's per-call cost, or wider indices
    return np.array([SeedSpec(master_seed, i).stream_key() for i in indices], dtype=np.uint64)


def _pcg_seeds(keys: np.ndarray) -> np.ndarray:
    """default_rng(key)'s PCG64 seed, SeedSequence(key).generate_state(4, np.uint64), per key.

    A key below 2^32 hashes as one entropy word, which the pool's zero
    padding makes the same as (key, 0).
    """
    if keys.size == 1:
        key = int(keys[0])
        return np.array([_state(_pool((key & _MASK32, key >> 32)), 4)], dtype=np.uint64)
    return np.stack(_state(_pool((keys & _MASK32, keys >> 32)), 4), axis=1)


def _stream_words(master_seed: int, indices) -> np.ndarray:
    """(len(indices), 4) uint64 PCG64 seeds of the paths' default_rng(stream_key()) generators."""
    return _pcg_seeds(_stream_keys(master_seed, indices))


@functools.cache
def _words_seed():
    """A SeedSequence stand-in whose state is a precomputed row of _stream_words.

    Built on the first draw, so that importing this module does not load
    numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class WordsSeed(ISeedSequence):
        def __init__(self, words):
            self.words = np.ascontiguousarray(words, dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for the four 64-bit words it seeds its state from
            return self.words

    return WordsSeed


def _generator(words: np.ndarray):
    """Generator(PCG64) seeded by one row of _stream_words: its key's default_rng."""
    from numpy.random import PCG64, Generator

    return Generator(PCG64(_words_seed()(words)))


def _draw(rng: np.random.Generator, g: Grid, out: np.ndarray) -> None:
    """rng's next N(0, dt*dx) draws into out, a C-ordered float64 array."""
    rng.standard_normal(out=out)
    out *= np.sqrt(g.dt * g.dx)


def _fill_sheets(g: Grid, master_seed: int, indices, out: np.ndarray):
    """Draw the sheet of SeedSpec(master_seed, i) into out for each i in indices, in turn.

    out is a C-ordered (nt, nx-1) float64 array the caller owns; every entry
    is overwritten per sheet, and the generator yields after each draw.
    Every sheet drawn whole, kept or streamed, is drawn here; each yield
    gives the sheet's stream key.
    """
    keys = _stream_keys(master_seed, indices)
    for key, words in zip(keys, _pcg_seeds(keys)):
        _draw(_generator(words), g, out)
        yield int(key)


def _sheet_blocks(g: Grid, master_seed: int, indices, rows: int):
    """Sheets of SeedSpec(master_seed, i), i in indices, as (B, rows, nx-1) step blocks.

    Each block is a view of one buffer, overwritten by the next; the last is shorter
    when rows does not divide nt.  A path's generator runs on across blocks,
    so they concatenate to its sample_sheet bit for bit.
    """
    rngs = [_generator(words) for words in _stream_words(master_seed, indices)]
    buf = np.empty((len(rngs), min(rows, g.nt), g.nx - 1))
    for start in range(0, g.nt, rows):
        block = buf[:, : min(rows, g.nt - start)]
        for rng, out in zip(rngs, block):
            _draw(rng, g, out)
        yield block


def sample_sheet(g: Grid, s: SeedSpec) -> NoiseSheet:
    """Draw the i.i.d. N(0, dt*dx) increment matrix for one path."""
    dW = np.empty((g.nt, g.nx - 1))
    key = next(_fill_sheets(g, s.master_seed, (s.path_index,), dW))
    return NoiseSheet(dW=dW, seed=key, grid=g)


def girsanov_shift(w: NoiseSheet, v: Control, h: float) -> NoiseSheet:
    """Sheet of the drift-shifted field: dW~ = dW + h*v*dt*dx.

    The returned sheet keeps the base sheet's stream key: it is derived
    data, not a fresh draw.
    """
    same_grid(w.grid, control=v)
    return NoiseSheet(w.dW + _drift_increment(v.values, h, w.grid), seed=w.seed, grid=w.grid)


def _drift_increment(v, h, g: Grid):
    """h*v*dt*dx, the shift of the sheet's increments; h and v broadcast."""
    return h * v * (g.dt * g.dx)


def _exponent(stoch, h, quad):
    """-h*stoch - (h^2/2)*quad: the log-density from sum(v dW) and |v|^2_{H_T}."""
    return -h * stoch - 0.5 * h * h * quad


def _log_density(dW: np.ndarray, v: np.ndarray, h, g: Grid) -> np.ndarray:
    """-h*sum(v dW) - (h^2/2)*|v|^2_{H_T}, summed over the last two axes.

    v is one (nt, nx-1) control.  Leading axes of dW and h broadcast, so a
    batch of sheets (B, nt, nx-1) or a column of strengths h (E, 1) yields
    one log-density per row.  The quadratic term is ht_dot(v, v), the
    variance of sum(v dW).
    """
    return _exponent(np.sum(v * dW, axis=(-2, -1)), h, ht_dot(v, v, g))


def _log_densities(g: Grid, master_seed: int, indices, v: Control, h: float) -> np.ndarray:
    """girsanov_log_density of sheet SeedSpec(master_seed, i) for each i in indices.

    The sheets stream through one (nt, nx-1) buffer: each is drawn into it,
    multiplied by v in place and summed, so no sheet is kept and no array is
    allocated per sheet.  Sheets are not scanned: a non-finite one gives a
    non-finite value.
    """
    same_grid(g, control=v)
    buf = np.empty((g.nt, g.nx - 1))
    stoch = np.empty(len(indices))
    for j, _ in enumerate(_fill_sheets(g, master_seed, indices, buf)):
        buf *= v.values
        stoch[j] = buf.sum()
    return _exponent(stoch, h, ht_dot(v.values, v.values, g))


def girsanov_log_density(w: NoiseSheet, v: Control, h: float) -> float:
    """log dQ/dP for the shift by h*v: -h*sum(v dW) - (h^2/2)*|v|^2_{H_T}."""
    same_grid(w.grid, control=v)
    return float(_log_density(w.dW, v.values, h, w.grid))
