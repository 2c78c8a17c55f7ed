"""Ratio-based non-iid partitioning.

Each sensitive group is split across clients by an explicit fraction list
(largest-remainder rounding keeps the counts exact). The high-heterogeneity
recipe gives the first client half of group 0 while group 1 mass sits with
clients 1 and 2, so client distributions differ sharply.
"""

import numpy as np

from fairfedsim.data import PartitionSpec, largest_remainder_counts, partition, synthetic_dataset

print("largest-remainder example: 100 samples at (0.5, 0.1, 0.1, 0.2, 0.1):",
      largest_remainder_counts(100, (0.5, 0.1, 0.1, 0.2, 0.1)))
print("odd total, 33 samples at thirds:", largest_remainder_counts(33, (1 / 3,) * 3))

ds = synthetic_dataset(1000, seed=7)
spec = PartitionSpec(
    "group",
    {"g0": (0.5, 0.1, 0.1, 0.2, 0.1), "g1": (0.1, 0.4, 0.3, 0.1, 0.1)},
)
shards = partition(ds, spec, seed=7)

print(f"\n{'client':>8} {'total':>8} {'g0':>6} {'g1':>6} {'pos rate':>9}")
for k, shard in enumerate(shards):  # client k's shard sits at index k
    g0, g1 = np.bincount(shard.S[:, 0], minlength=2)
    print(f"{k:>8} {len(shard):>8} {g0:>6} {g1:>6} {shard.y.mean():>9.3f}")

total = sum(len(s) for s in shards)
print(f"\nconservation: {total} shard samples == {len(ds)} dataset samples")
