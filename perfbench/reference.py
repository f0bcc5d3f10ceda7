"""A fixed reference job that the benchmark runs before every timed child.

It does not import greenvar, so no change to the program moves its time;
only the host does.  Its work resembles the workloads': tuples, sets and
dicts in pure Python, then numpy element-wise passes over int64 arrays
with int8 temporaries of tens of MB.  It prints a checksum, which the
benchmark compares across runs.
"""

import itertools

import numpy as np

blocks = {}
for p in itertools.permutations(range(8)):
    blocks[p] = tuple(sorted(set(p[:5])))

a = np.arange(1_000_000, dtype=np.int64).reshape(1000, 1000)
for _ in range(2):
    hits = (a[:, :, None] % 7 == np.arange(7, dtype=np.int64)).astype(np.int8)
    a = (a * 31 + hits.sum(axis=2)) % 1_000_003

print(len(blocks), len(set(blocks.values())), int(a.sum()))
