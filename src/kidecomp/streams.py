"""Monte Carlo trial streams, drawn in bulk.

Trial t of a simulation with master seed `seed` reads the uniforms of
numpy.random.default_rng([seed, t]).random(count). Building one Generator
per trial cost more than all the other work of a per-message trial; this
module computes the same uniforms, bit for bit, for a block of trials at
once.
"""

from __future__ import annotations

import operator

import numpy as np

# Trials per `_trial_uniforms` call. Besides its 8*count-byte rows, the
# kernel holds about 260 B per trial while it runs; the block bounds that
# at any trial count.
_STREAM_BLOCK = 4096

_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier as its high and low uint64 words, and
# the low word's 32-bit limbs
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
_MULT_LO0, _MULT_LO1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32


def _seed_words(seed) -> list[int]:
    """The seed's little-endian uint32 words, as SeedSequence splits an int."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _hashmix(value: np.ndarray, const: int, mult: int = 0x931E8875) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix on uint32 arrays; returns the next constant too."""
    nxt = (const * mult) & _MASK32
    value = (value ^ const) * nxt
    return value ^ (value >> 16), nxt


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * 0xCA01F9DD - y * 0x4973F715
    return r ^ (r >> 16)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * MULT + inc mod 2**128 on (hi, lo) uint64 halves."""
    # the high word of lo * MULT_LO, from 32-bit limbs
    a0, a1 = lo & _MASK32, lo >> 32
    cross0, cross1 = a0 * _MULT_LO1, a1 * _MULT_LO0
    mid = ((a0 * _MULT_LO0) >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    mulhi = a1 * _MULT_LO1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)
    prod_lo = lo * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    return mulhi + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO + inc_hi + (new_lo < prod_lo), new_lo


def _trial_uniforms(seed, start: int, stop: int, count: int) -> np.ndarray:
    """Row t - start equals numpy.random.default_rng([seed, t]).random(count).

    Bit for bit, for every t in [start, stop). The port runs the steps of
    numpy's construction on arrays over t: SeedSequence mixes the entropy
    words (the seed's uint32 words, then t) into a 4-word pool and hashes
    it out as four uint64s; PCG64 seeds its 128-bit LCG with the first two
    as the state and the last two as the stream; each random() steps the
    LCG and maps its XSL-RR output x to (x >> 11) * 2**-53.
    """
    words = _seed_words(seed)
    if stop > 2**32:
        raise ValueError("trial indices must stay below 2**32 (one entropy word)")
    size = stop - start
    entropy = np.empty((max(len(words) + 1, 4), size), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, stop, dtype=np.uint32)
    entropy[len(words) + 1 :] = 0  # the pool's unfilled words hash 0

    const = 0x43B0D7E5
    pool = []
    for row in entropy[:4]:
        mixed, const = _hashmix(row, const)
        pool.append(mixed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    for row in entropy[4 : len(words) + 1]:
        for dst in range(4):
            mixed, const = _hashmix(row, const)
            pool[dst] = _mix(pool[dst], mixed)

    const, state = 0x8B51F9DD, []
    for i in range(8):
        mixed, const = _hashmix(pool[i % 4], const, 0x58F38DED)
        state.append(mixed.astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (state[i] | (state[i + 1] << 32) for i in range(0, 8, 2))

    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + seed_lo  # state 0, one step gives inc; then add the seed
    hi = inc_hi + seed_hi + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((size, count))
    for c in range(count):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        x = (x >> rot) | (x << (-rot & 63))
        out[:, c] = (x >> 11) * (1.0 / 9007199254740992.0)
    return out


def _trial_stream(seed, trials: int, count: int):
    """Yield the rows of trials 0..trials-1 in blocks of `_STREAM_BLOCK` trials."""
    for start in range(0, trials, _STREAM_BLOCK):
        yield _trial_uniforms(seed, start, min(start + _STREAM_BLOCK, trials), count)
