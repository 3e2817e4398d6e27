"""The degraded-band strain jitter stream, computed a block of step indices at a time.

The draw of step i under a run's seed is numpy's first ``uniform(-1, 1)`` of
``default_rng(SeedSequence([seed, i]).generate_state(1)[0])``. It is
computed here bit for bit, with numpy's ``SeedSequence`` hash (a pool of 4
uint32 words) and PCG64 (M. E. O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905), on uint32/uint64 arrays: the stream then
does not depend on the installed numpy's ``Generator``, which numpy does
not freeze across versions.
"""

from __future__ import annotations

import numpy as np

# a block never straddles 2**32, where the index's entropy grows by a word
BLOCK = 4096

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit multiplier, as 32-bit limbs from the lowest
_PCG_MULT = tuple((0x2360ED051FC65DA44385DF649FCCF645 >> (32 * k)) & _MASK32 for k in range(4))


def _int_words(n: int) -> list[int]:
    """The little-endian uint32 words of an int >= 0, one word for 0, as SeedSequence splits it.

    A negative int never ends the loop; ``StepPlan`` refuses a negative seed or step index.
    """
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_pool(entropy: list) -> list:
    """SeedSequence's pool after mixing in ``entropy`` (uint32 scalars or arrays)."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.uint32(0)) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words) as uint32 words; a uint64 word k is words 2k (low) and 2k + 1."""
    hash_const = _INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append(value ^ (value >> _XSHIFT))
    return words


def _carry(columns: list) -> list:
    """The 32-bit limbs, lowest first and held in uint64, of a sum of 32-bit columns, mod 2**128."""
    limbs, carry = [], 0
    for column in columns:
        total = column + carry
        limbs.append(total & _MASK32)
        carry = total >> 32
    return limbs


def _add128(a: list, b: list) -> list:
    """a + b mod 2**128, on 32-bit limbs."""
    return _carry([x + y for x, y in zip(a, b)])


def _mul128(a: list, b: tuple) -> list:
    """a * b mod 2**128, on 32-bit limbs; ``b`` is constant."""
    # each 64-bit limb product's low half goes to column i + j, its high half to i + j + 1
    columns = [0] * 4
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * np.uint64(b[j])
            columns[i + j] = columns[i + j] + (product & _MASK32)
            if i + j < 3:
                columns[i + j + 1] = columns[i + j + 1] + (product >> 32)
    return _carry(columns)


def block(seed: int, base: int) -> list[float]:
    """The jitter draws in [-1, 1] of steps ``base`` to ``base + BLOCK - 1``.

    ``base`` is a multiple of ``BLOCK``, so every index of the block
    splits into as many uint32 words, of which only the lowest varies.
    """
    index_words = _int_words(base)
    with np.errstate(over="ignore"):
        low = np.arange(BLOCK, dtype=np.uint32) + np.uint32(index_words[0])
        entropy = [np.uint32(w) for w in _int_words(seed)] + [low] + [np.uint32(w) for w in index_words[1:]]
        # the step's seed word, then default_rng's SeedSequence of it, whose
        # four uint64 words are PCG64's initstate (high, low) and initseq (high, low)
        (step_seed,) = _generate_state(_seed_pool(entropy), 1)
        words = [w.astype(np.uint64) for w in _generate_state(_seed_pool([step_seed]), 8)]
        initstate = [words[2], words[3], words[0], words[1]]
        initseq = [words[6], words[7], words[4], words[5]]
        # PCG64 seeding: inc = initseq << 1 | 1; step from 0, add initstate, step
        inc = [initseq[0] << 1 & _MASK32 | 1] + [
            initseq[k] << 1 & _MASK32 | initseq[k - 1] >> 31 for k in range(1, 4)
        ]
        state = _add128(_mul128(_add128(inc, initstate), _PCG_MULT), inc)
        # the first draw: one more step, then the XSL-RR output of the state
        state = _add128(_mul128(state, _PCG_MULT), inc)
        folded = (state[3] ^ state[1]) << 32 | (state[2] ^ state[0])
        rotation = state[3] >> 26
        output = folded >> rotation | folded << (64 - rotation & 63)
        # next_double, then uniform(-1, 1) = low + (high - low) * draw
        draws = -1.0 + 2.0 * ((output >> 11).astype(np.float64) * (1.0 / 9007199254740992.0))
    return draws.tolist()
