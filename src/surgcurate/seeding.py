"""Seed derivation: one root seed fans out to every randomized stage.

Stage seeds are the first 8 bytes (little-endian) of
SHA-256(root_seed as LE u64 || stage label as UTF-8). The derivation is
documented here and in the README so any stage can be reproduced in
isolation from the root seed recorded in its run manifest.
"""

from __future__ import annotations

import hashlib

MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stage seed (u64) from the root seed and a stage label."""
    digest = hashlib.sha256(
        (root_seed & MASK64).to_bytes(8, "little") + label.encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")

