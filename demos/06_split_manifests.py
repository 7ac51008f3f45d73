"""
Versioned video-level splits
============================

Tier resolution (Official > Community > Ours), the seeded 7:2:1 split,
content-hashed manifest versions, and disjointness verification.
"""

from collections import Counter

from surgcurate import generate_split_manifest, ratio_split, resolve_tier, verify_disjoint, version_manifest
from surgcurate.corpus import ClipRecord

print("official available  ->", resolve_tier(official=True, community=True).value)
print("community only      ->", resolve_tier(official=False, community=True).value)
print("neither             ->", resolve_tier(official=False, community=False).value)

videos = [f"video{i:03d}" for i in range(15)]
assignment = ratio_split(videos, seed=21)
print("15 videos split:", dict(Counter(s.value for s in assignment.values())))

manifest = generate_split_manifest("demo-dataset", videos, seed=21)
print("manifest version:", manifest.version)
print("same seed, same version:", generate_split_manifest("demo-dataset", videos, seed=21).version == manifest.version)

clips = [ClipRecord(f"clip{i}", videos[i % len(videos)], 0, 30) for i in range(60)]
print("violations on a clean split:", verify_disjoint(manifest, clips))

# key order cannot change the version: the hash is over a canonical payload
reordered = dict(reversed(list(assignment.items())))
print("order-insensitive version:", version_manifest(reordered) == manifest.version)
