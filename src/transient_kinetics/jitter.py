"""The degraded-band strain jitter stream, computed a block of step indices at a time.

The draw of step i under a run's seed is numpy's first ``uniform(-1, 1)`` of
``default_rng(SeedSequence([seed, i]).generate_state(1)[0])``. It is
computed here bit for bit, with numpy's ``SeedSequence`` hash (a pool of 4
uint32 words) and PCG64 (M. E. O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905), on plain Python ints: the stream then
depends neither on the installed numpy's ``Generator``, which numpy does
not freeze across versions, nor on numpy being installed.

Lane layout: a block is computed at once. Each value of the kernel, one
uint32 or uint64 per step, is one int of ``BLOCK`` lanes of 64 bits; lane
k, the step ``base + k``, is bits 64k to 64k + 63. A uint32 word sits in
the low half of its lane. The product of two uint32 words fills the lane
and is masked back to 32 bits (or split into its two halves), as is a
right shift, which pulls the next lane's low bits into the top of each
lane. So one big-int operation hashes, mixes or steps every lane. The
draws are read out through ``int.to_bytes`` in little-endian order, lane 0
first, into an ``array("Q")``, whose items are swapped to the host's byte
order on a big-endian host.
"""

from __future__ import annotations

import sys
from array import array

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

_ONES = ((1 << 64 * BLOCK) - 1) // ((1 << 64) - 1)  # 1 in every lane
_LOW32 = _MASK32 * _ONES  # the low 32 bits of every lane
_TWO32 = _ONES << 32  # 2**32 in every lane
# for a right rotation of every lane by 2**b: the bits that stay in the lane
# after the right shift, and the bits that wrap round to its top
_ROTATIONS = tuple(
    (1 << b, ((1 << 64 - (1 << b)) - 1) * _ONES, ((1 << (1 << b)) - 1 << 64 - (1 << b)) * _ONES)
    for b in range(6)
)
_LOW53 = ((1 << 53) - 1) * _ONES


def _little_endian(lanes: array) -> array:
    """``lanes`` converted in place between the host's byte order and little-endian."""
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


_IOTA = int.from_bytes(_little_endian(array("Q", range(BLOCK))).tobytes(), "little")  # k in lane k


def _int_words(n: int) -> list[int]:
    """The little-endian uint32 words of an int >= 0, one word for 0, as SeedSequence splits it.

    A negative int never ends the loop; ``StepPlan`` refuses a negative seed or step index.
    """
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


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


def _carry(columns: list[int]) -> list[int]:
    """The 32-bit limbs, lowest first, of a sum of 32-bit columns, mod 2**128."""
    limbs, carry = [], 0
    for column in columns:
        total = column + carry
        limbs.append(total & _LOW32)
        carry = total >> 32 & _LOW32
    return limbs


def _add128(a: list[int], b: list[int]) -> list[int]:
    """a + b mod 2**128, on 32-bit limbs."""
    return _carry([x + y for x, y in zip(a, b)])


def _mul128(a: list[int], b: tuple) -> list[int]:
    """a * b mod 2**128, on 32-bit limbs; ``b`` is constant."""
    # each 64-bit limb product's low half goes to column i + j, its high half to i + j + 1
    columns = [0] * 4
    for i in range(4):
        for j in range(4 - i):
            product = a[i] * b[j]
            columns[i + j] += product & _LOW32
            if i + j < 3:
                columns[i + j + 1] += product >> 32 & _LOW32
    return _carry(columns)


def _rotate_right(value: int, rotation: int) -> int:
    """Each 64-bit lane of ``value`` rotated right by the same lane of ``rotation`` (0 to 63).

    Six fixed rotations, by 1, 2, 4, ..., 32, each kept in the lanes whose
    rotation has that bit set.
    """
    for b, (shift, stays, wraps) in enumerate(_ROTATIONS):
        rotated = value >> shift & stays | value << 64 - shift & wraps
        chosen = (rotation >> b & _ONES) * 0xFFFFFFFFFFFFFFFF
        value ^= (value ^ rotated) & chosen
    return value


def block(seed: int, base: int) -> list[float]:
    """The jitter draws in [-1, 1] of steps ``base`` to ``base + BLOCK - 1``.

    ``base`` is a multiple of ``BLOCK``, so every index of the block
    splits into as many uint32 words, of which only the lowest varies.
    """
    index_words = _int_words(base)
    low = _IOTA + index_words[0] * _ONES
    entropy = [w * _ONES for w in _int_words(seed)] + [low] + [w * _ONES for w in index_words[1:]]
    # the step's seed word, then default_rng's SeedSequence of it, whose
    # four uint64 words are PCG64's initstate (high, low) and initseq (high, low)
    (step_seed,) = _generate_state(_seed_pool(entropy), 1)
    words = _generate_state(_seed_pool([step_seed]), 8)
    initstate = [words[2], words[3], words[0], words[1]]
    initseq = [words[6], words[7], words[4], words[5]]
    # PCG64 seeding: inc = initseq << 1 | 1; step from 0, add initstate, step
    inc = [initseq[0] << 1 & _LOW32 | _ONES] + [
        initseq[k] << 1 & _LOW32 | initseq[k - 1] >> 31 & _ONES for k in range(1, 4)
    ]
    state = _add128(_mul128(_add128(inc, initstate), _PCG_MULT), inc)
    # the first draw: one more step, then the XSL-RR output of the state
    state = _add128(_mul128(state, _PCG_MULT), inc)
    folded = (state[3] ^ state[1]) << 32 | state[2] ^ state[0]
    output = _rotate_right(folded, state[3] >> 26 & 63 * _ONES)
    # next_double, then uniform(-1, 1) = low + (high - low) * draw
    lanes = _little_endian(array("Q", (output >> 11 & _LOW53).to_bytes(8 * BLOCK, "little")))
    return [-1.0 + 2.0 * (u * (1.0 / 9007199254740992.0)) for u in lanes]
