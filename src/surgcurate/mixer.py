"""Seeded mixed-batch stream over an unlabeled pool and a clinical core.

Each batch is either pure clinical (probability p) or a fixed
unlabeled/clinical mixture. The expected clinical share of the stream is
the closed form p + (1 - p) * (1 - m), exact in rational arithmetic: with
the defaults (p = 0.15, m = 0.70) that is 81/200 = 0.405. The realised
share also depends on how a mixed batch rounds (see mixed_batch_counts).

Pools are drawn without replacement inside an epoch; exhausting a pool
reshuffles it under an epoch-incremented seed. The two pools must be
disjoint: a clip in both could fill two slots of one batch and would count
as clinical.

A stream does per batch only the work that differs between batches:

- One mixed composition per policy: the pure and the mixed BatchSpec are
  built once per stream, not rounded again for every batch.
- Block draws equal scalar draws: the i.i.d. batch modes come from
  rng.random(MODE_BLOCK) blocks, which yield exactly the doubles that as
  many rng.random() calls would, so memory stays one block however long
  the stream.
- Ids stay Python strings: a pool cursor gathers the id objects it was
  given (a numpy object array) into a list per epoch, so every id comes
  out intact, trailing NUL characters included.
- Ids are encoded once per pool; lines are written in blocks: the batch
  manifest's cursors hold each id's JSON string literal, so a batch line
  is one join of the literals it draws, and LINE_BLOCK lines go to the
  file as one chunk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .apportion import as_fraction, largest_remainder
from .artifact import SurgcurateError, first_repeat, write_atomic
from .seeding import derive_seed


#: Batch modes drawn per generator call; any block size gives the same stream.
MODE_BLOCK = 4096
#: Batch lines handed to write_atomic per chunk; any block size gives the same bytes.
LINE_BLOCK = 256


class MixerError(SurgcurateError):
    pass


class EmptyPool(MixerError):
    pass


class BatchMode(str, Enum):
    PURE_CLINICAL = "PureClinical"
    MIXED = "Mixed"


@dataclass(frozen=True)
class MixPolicy:
    """Sampling policy; probabilities are exact rationals."""

    p_pure_clinical: Fraction = Fraction(15, 100)
    mixed_unlabeled_frac: Fraction = Fraction(70, 100)
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_pure_clinical", as_fraction(self.p_pure_clinical))
        object.__setattr__(self, "mixed_unlabeled_frac", as_fraction(self.mixed_unlabeled_frac))
        if not 0 <= self.p_pure_clinical <= 1:
            raise ValueError(f"p_pure_clinical {self.p_pure_clinical} outside [0, 1]")
        if not 0 <= self.mixed_unlabeled_frac <= 1:
            raise ValueError(f"mixed_unlabeled_frac {self.mixed_unlabeled_frac} outside [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    def to_json(self) -> dict:
        return {
            "p_pure_clinical": str(self.p_pure_clinical),
            "mixed_unlabeled_frac": str(self.mixed_unlabeled_frac),
            "batch_size": self.batch_size,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class BatchSpec:
    mode: BatchMode
    n_unlabeled: int
    n_clinical: int

    def __post_init__(self) -> None:
        if self.mode is BatchMode.PURE_CLINICAL and self.n_unlabeled != 0:
            raise ValueError("pure clinical batches cannot contain unlabeled clips")


def expected_clinical_fraction(policy: MixPolicy) -> Fraction:
    """Closed-form clinical share of the stream, exact."""
    p = policy.p_pure_clinical
    m = policy.mixed_unlabeled_frac
    return p + (1 - p) * (1 - m)


def mixed_batch_counts(policy: MixPolicy) -> tuple[int, int]:
    """(n_unlabeled, n_clinical) for a mixed batch, largest-remainder rounded.

    Every mixed batch has this one composition, so the realised clinical
    share is p + (1 - p) * n_clinical / batch_size. It equals
    expected_clinical_fraction only when m * batch_size is whole: at the
    defaults and batch 64 a mixed batch is 45/19, and the share is
    0.15 + 0.85 * 19/64 ~ 0.4023, not 81/200.
    """
    b = policy.batch_size
    m = policy.mixed_unlabeled_frac
    n_unlabeled, n_clinical = largest_remainder([m * b, (1 - m) * b], b)
    return n_unlabeled, n_clinical


class PoolCursor:
    """Without-replacement cursor over one pool of clip ids.

    Epoch e is a permutation drawn from seed (pool_seed + e); exhaustion
    rolls into epoch e + 1. No id repeats within an epoch. A pool that
    lists an id twice raises MixerError naming the first repeated id.
    """

    def __init__(self, pool_id: str, ids: Sequence[str], seed: int):
        ids = list(ids)
        if not ids:
            raise EmptyPool(f"pool {pool_id!r} is empty")
        if (cid := first_repeat(ids)) is not None:
            raise MixerError(f"pool {pool_id!r} lists clip id {cid!r} more than once")
        ids.sort()
        self.pool_id = pool_id
        self._ids = np.array(self._values(ids), dtype=object)  # the objects themselves, gathered in C
        self._seed = seed
        self.epoch = 0
        self.position = 0
        self._permuted = self._shuffle(0)

    def _values(self, ids: list[str]) -> list[str]:
        """What take() yields for each of the sorted ids: the id itself."""
        return ids

    def _shuffle(self, epoch: int) -> list[str]:
        rng = np.random.default_rng((self._seed + epoch) & 0xFFFFFFFFFFFFFFFF)
        return self._ids[rng.permutation(len(self._ids))].tolist()

    def take(self, count: int) -> list[str]:
        out: list[str] = []
        while count > 0:
            grab = min(len(self._permuted) - self.position, count)
            out += self._permuted[self.position : self.position + grab]
            self.position += grab
            count -= grab
            if self.position == len(self._permuted):
                self.epoch += 1
                self._permuted = self._shuffle(self.epoch)
                self.position = 0
        return out


class _EncodedCursor(PoolCursor):
    """A PoolCursor whose take() yields each id as its JSON string literal,
    as json.dumps(..., sort_keys=True) writes a str (ensure_ascii), encoded
    once here. Ids are still checked, sorted and shuffled as themselves.
    An id that is not a str is a MixerError naming the pool and the id."""

    def __init__(self, pool_id: str, ids: Sequence[str], seed: int):
        ids = list(ids)
        for cid in ids:
            if not isinstance(cid, str):
                raise MixerError(f"pool {pool_id!r} holds clip id {cid!r} of type {type(cid).__name__}; clip ids are strings")
        super().__init__(pool_id, ids, seed)

    def _values(self, ids: list[str]) -> list[str]:
        return [encode_basestring_ascii(cid) for cid in ids]


def _pure_schedule(index: int, p: Fraction) -> bool:
    # Bresenham-style spread: pure batches land where floor((i+1)p) advances
    return (index + 1) * p.numerator // p.denominator > index * p.numerator // p.denominator


def _iid_pure_flags(seed: int, p: float, n_batches: int) -> Iterator[bool]:
    """n_batches coins, each pure with probability p, drawn MODE_BLOCK at a
    time from one generator: the same doubles as one rng.random() per batch."""
    rng = np.random.default_rng(seed)
    for start in range(0, n_batches, MODE_BLOCK):
        yield from (rng.random(min(MODE_BLOCK, n_batches - start)) < p).tolist()


def sample_stream(
    unlabeled_pool: Iterable[str],
    clinical_pool: Iterable[str],
    policy: MixPolicy,
    n_batches: int,
    interleave: bool = False,
) -> Iterator[tuple[BatchSpec, list[str]]]:
    """Yield (spec, clip_ids) batches; unlabeled ids precede clinical ids
    within a mixed batch.

    `interleave=True` replaces the i.i.d. pure/mixed coin with a
    variance-free deterministic schedule at the same rate. Pools that
    share a clip id raise MixerError naming the smallest shared id.
    """
    return _batches(unlabeled_pool, clinical_pool, policy, n_batches, interleave, PoolCursor)


def _batches(
    unlabeled_pool: Iterable[str],
    clinical_pool: Iterable[str],
    policy: MixPolicy,
    n_batches: int,
    interleave: bool,
    cursor: type[PoolCursor],
) -> Iterator[tuple[BatchSpec, list[str]]]:
    """sample_stream, with each batch drawn from two `cursor`s over the pools."""
    unlabeled_ids, clinical_ids = list(unlabeled_pool), list(clinical_pool)
    shared = set(unlabeled_ids).intersection(clinical_ids)
    if shared:
        raise MixerError(f"the unlabeled and clinical pools share {len(shared)} clip id(s), the smallest {min(shared)!r}")
    unlabeled = cursor("unlabeled", unlabeled_ids, derive_seed(policy.seed, "pool-unlabeled"))
    clinical = cursor("clinical", clinical_ids, derive_seed(policy.seed, "pool-clinical"))
    pure = BatchSpec(BatchMode.PURE_CLINICAL, 0, policy.batch_size)
    mixed = BatchSpec(BatchMode.MIXED, *mixed_batch_counts(policy))
    if interleave:
        pure_flags = (_pure_schedule(index, policy.p_pure_clinical) for index in range(n_batches))
    else:
        pure_flags = _iid_pure_flags(derive_seed(policy.seed, "batch-mode"), float(policy.p_pure_clinical), n_batches)

    for is_pure in pure_flags:
        if is_pure:
            yield pure, clinical.take(pure.n_clinical)
        else:
            ids = unlabeled.take(mixed.n_unlabeled)
            ids += clinical.take(mixed.n_clinical)
            yield mixed, ids


def write_batch_manifest(
    path: str | Path,
    unlabeled_pool: Iterable[str],
    clinical_pool: Iterable[str],
    policy: MixPolicy,
    n_batches: int,
    interleave: bool = False,
) -> Path:
    """Materialize a stream as JSON-lines: a header with the policy and
    seed, then one line per batch, the bytes json.dumps(..., sort_keys=True)
    writes for it. A clip id must be a str (MixerError otherwise).

    Each id is JSON-encoded once, when its pool's cursor is built; a batch
    line is a join of the encoded ids it draws, and lines reach the file
    LINE_BLOCK at a time."""
    header = {
        "kind": "header",
        "policy": policy.to_json(),
        "n_batches": n_batches,
        "interleave": interleave,
        "expected_clinical_fraction": str(expected_clinical_fraction(policy)),
    }

    def lines():
        yield json.dumps(header, sort_keys=True) + "\n"
        batches = _batches(unlabeled_pool, clinical_pool, policy, n_batches, interleave, _EncodedCursor)
        block: list[str] = []
        for index, (spec, clip_ids) in enumerate(batches):
            block.append(f'{{"clip_ids": [{", ".join(clip_ids)}], "index": {index}, "mode": "{spec.mode.value}"}}\n')
            if len(block) == LINE_BLOCK:
                yield "".join(block)
                block = []
        yield "".join(block)

    return write_atomic(path, lines())
