"""
Bit-exact embedding stores
==========================

Write a store file, read it back bit-for-bit, normalize it for
clustering, and watch corruption get rejected.
"""

import tempfile
from pathlib import Path

import numpy as np

from surgcurate import EmbeddingMatrix, l2_normalize, read_store, write_store
from surgcurate.store import ChecksumMismatch

rng = np.random.default_rng(0)
matrix = EmbeddingMatrix(
    rng.standard_normal((6, 768)).astype(np.float32),
    [f"clip{i:03d}" for i in range(6)],
)

workdir = Path(tempfile.mkdtemp())
path = write_store(matrix, workdir / "demo.semb")
print(f"wrote {path.stat().st_size} bytes")

back = read_store(path)  # f64 rows holding exactly the stored f32 values
print("bit-exact roundtrip:", back.data.astype(np.float32).tobytes() == matrix.data.tobytes())

unit = l2_normalize(back)
print("row norms after normalize:", np.linalg.norm(unit.data, axis=1).round(6))

# flip one payload byte: the checksum catches it
blob = bytearray(path.read_bytes())
blob[40] ^= 0xFF
(workdir / "damaged.semb").write_bytes(bytes(blob))
try:
    read_store(workdir / "damaged.semb")
except ChecksumMismatch as err:
    print("corruption rejected:", err)
