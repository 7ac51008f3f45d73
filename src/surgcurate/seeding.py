"""Seed derivation and the split draw: one root seed fans out to every
randomized stage.

Stage seeds are the first 8 bytes (little-endian) of
SHA-256(root_seed as LE u64 || stage label as UTF-8). The derivation is
documented here and in the README so any stage can be reproduced in
isolation from the root seed recorded in its run manifest.

permutation(seed, n) is the shuffle a split draws. It is written out here
in pure Python, and equals numpy.random.default_rng(seed).permutation(n)
item for item, so split bytes do not depend on the numpy version (numpy
may change its Generator streams between releases) and a split starts
without numpy. The draw has three steps:

1. numpy's SeedSequence: the seed's 32-bit words (least significant
   first) are hash-mixed into a pool of four, and the pool is expanded to
   four u64 words (generate_state(4, uint64));
2. PCG64 (O'Neill 2014): the words seed a 128-bit LCG as
   srandom(state=w0:w1, stream=w2:w3), and each step outputs the XSL-RR
   128 -> 64 bit permutation of the new state;
3. numpy's Fisher-Yates from the top: for i = n-1 .. 1, swap item i with
   item j, where j is drawn uniformly from [0, i] by masked rejection over
   32-bit halves of the outputs (low half first).
"""

from __future__ import annotations

import hashlib
import operator

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stage seed (u64) from the root seed and a stage label."""
    digest = hashlib.sha256(
        (root_seed & MASK64).to_bytes(8, "little") + label.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def _seed_sequence_state(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64) for a seed >= 0."""
    words = [seed & MASK32]
    while seed := seed >> 32:
        words.append(seed & MASK32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & MASK32
        value = value * const & MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
        return r ^ r >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, halves = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & MASK32
        value = value * const & MASK32
        halves.append(value ^ value >> 16)
    return [halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)]


def permutation(seed: int, n: int) -> list[int]:
    """numpy.random.default_rng(seed).permutation(n).tolist(), drawn
    without numpy (see the module docstring), for n <= 2**32.

    The seed is read with operator.index: None or a non-integer raises
    TypeError, a negative seed ValueError."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    w0, w1, w2, w3 = _seed_sequence_state(seed)
    # PCG64's srandom: inc = stream << 1 | 1; state = 0, step, add the
    # initial state, step (a step is state * multiplier + inc)
    inc = (w2 << 65 | w3 << 1 | 1) & MASK128
    state = ((inc + (w0 << 64 | w1)) * PCG64_MULTIPLIER + inc) & MASK128
    perm = list(range(n))
    spare = None  # the high half of the last output, not yet used
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if spare is None:
                state = (state * PCG64_MULTIPLIER + inc) & MASK128
                rot, x = state >> 122, (state >> 64 ^ state) & MASK64
                out = (x >> rot | x << (-rot & 63)) & MASK64
                j, spare = out & mask, out >> 32
            else:
                j, spare = spare & mask, None
            if j <= i:
                break
        perm[i], perm[j] = perm[j], perm[i]
    return perm
