"""The degraded-band strain jitter stream, computed a block of step indices at a time.

The draw of step i under a run's seed is numpy's first ``uniform(-1, 1)`` of
``default_rng(SeedSequence([seed, i]).generate_state(1)[0])``. It is
computed here bit for bit, with numpy's ``SeedSequence`` hash (a pool of 4
uint32 words) and PCG64 (M. E. O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905), on plain Python ints: the stream then
depends neither on the installed numpy's ``Generator``, which numpy does
not freeze across versions, nor on numpy being installed.

Lane layout: the two ``SeedSequence`` hashes run on a whole block at once.
Each of their values, one uint32 word per step, is one int of ``BLOCK``
lanes of 64 bits; lane k, the step ``base + k``, is bits 64k to 64k + 63,
with the word in its low half. A product of two words is masked back to 32
bits, as is a right shift, which pulls the next lane's low bits into the
top of each lane; so one big-int operation hashes or mixes every lane. The
hash's uint64 words are then read out, and PCG64 runs per step on plain ints.
"""

from __future__ import annotations

import struct

# a block never straddles 2**32, where the index's entropy grows by a word
BLOCK = 4096

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
# PCG64's multiplier M, squared and plus one: two steps from state x give
# x * M**2 + inc * (M + 1), mod 2**128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_SQUARED, _PCG_MULT_PLUS_1 = _PCG_MULT**2 & _MASK128, _PCG_MULT + 1

_ONES = ((1 << 64 * BLOCK) - 1) // ((1 << 64) - 1)  # 1 in every lane
_LOW32 = _MASK32 * _ONES  # the low 32 bits of every lane
_TWO32 = _ONES << 32  # 2**32 in every lane
_LANES = struct.Struct(f"<{BLOCK}Q")  # lane k is the k-th little-endian uint64
_IOTA = int.from_bytes(_LANES.pack(*range(BLOCK)), "little")  # k in lane k


def _int_words(n: int) -> tuple[int, ...]:
    """The little-endian uint32 words of an int >= 0, one word for 0, as SeedSequence splits it."""
    n_words = max(1, (n.bit_length() + 31) // 32)
    return struct.unpack(f"<{n_words}I", n.to_bytes(4 * n_words, "little"))


def _xorshift(value: int) -> int:
    return value ^ (value >> _XSHIFT & _LOW32)


def _seed_pool(entropy: list[int]) -> list[int]:
    """SeedSequence's pool after mixing in ``entropy``, each word a block of lanes."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const * _ONES
        hash_const = hash_const * _MULT_A & _MASK32
        return _xorshift(value * hash_const & _LOW32)

    def mix(x, y):
        # x * L - y * R, lane-wise mod 2**32: each lane's 2**32 keeps the difference >= 0
        return _xorshift((x * _MIX_MULT_L & _LOW32) + _TWO32 - (y * _MIX_MULT_R & _LOW32) & _LOW32)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool: list[int], n_words: int) -> list[int]:
    """SeedSequence.generate_state(n_words) as uint32 words; a uint64 word k is words 2k (low) and 2k + 1."""
    hash_const = _INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const * _ONES
        hash_const = hash_const * _MULT_B & _MASK32
        words.append(_xorshift(value * hash_const & _LOW32))
    return words


def block(seed: int, base: int) -> list[float]:
    """The jitter draws in [-1, 1] of steps ``base`` to ``base + BLOCK - 1``.

    ``base`` is a multiple of ``BLOCK``, so every index of the block
    splits into as many uint32 words, of which only the lowest varies. A
    negative seed or base, or a base off that grid, raises ValueError.
    """
    if seed < 0 or base < 0 or base % BLOCK:
        raise ValueError(f"jitter block needs a seed >= 0 and a base >= 0 on a multiple of {BLOCK}, got {seed}, {base}")
    index_words = _int_words(base)
    low = _IOTA + index_words[0] * _ONES
    entropy = [w * _ONES for w in _int_words(seed)] + [low] + [w * _ONES for w in index_words[1:]]
    # the step's seed word, then default_rng's SeedSequence of it, whose four
    # uint64 words are PCG64's initstate (high, low) and initseq (high, low)
    (step_seed,) = _generate_state(_seed_pool(entropy), 1)
    words = _generate_state(_seed_pool([step_seed]), 8)
    uint64s = (_LANES.unpack((words[k] | words[k + 1] << 32).to_bytes(8 * BLOCK, "little")) for k in range(0, 8, 2))
    draws = []
    for state_high, state_low, seq_high, seq_low in zip(*uint64s):
        # PCG64 seeding: inc = initseq << 1 | 1; step from 0, add initstate,
        # step; then one more step for the first draw
        inc = (seq_high << 64 | seq_low) << 1 | 1
        state = ((state_high << 64 | state_low) + inc) * _PCG_MULT_SQUARED + inc * _PCG_MULT_PLUS_1 & _MASK128
        # XSL-RR output, next_double, then uniform(-1, 1) = low + (high - low) * draw
        folded, rotation = (state >> 64 ^ state) & _MASK64, state >> 122
        output = (folded >> rotation | folded << 64 - rotation) & _MASK64
        draws.append(-1.0 + 2.0 * ((output >> 11) * (1.0 / 9007199254740992.0)))
    return draws
