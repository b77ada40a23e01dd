"""Per-partition cuckoo filter over the shard's seen url-hash set.

North-rule component (BASELINE.json): each frontier shard keeps a cuckoo
filter of ITS partition's canonical-hash set. Membership probes for
bloom-positive candidates hit this filter first; only cuckoo-positives fall
through to the exact key store. Unlike the bloom it supports deletion
(needed when a partition's keys are compacted/split at rebalance).

Layout: `n_buckets × 4` slots of 16-bit fingerprints (0 = empty), alternate
bucket = bucket XOR hash(fingerprint), bounded kick chain with a tiny
overflow set as the textbook stash. Probes are numpy-vectorized per batch.
"""

from __future__ import annotations

import numpy as np

_FP_MULT = np.uint64(0xBF58476D1CE4E5B9)
MAX_KICKS = 500


class CuckooFilter:
    def __init__(self, capacity: int, rng_seed: int = 7):
        capacity = max(64, int(capacity))
        n_buckets = 1 << max(4, (int(capacity / 4 / 0.95) - 1).bit_length())
        self.n_buckets = n_buckets
        self.table = np.zeros((n_buckets, 4), dtype=np.uint16)
        self.overflow: set[int] = set()
        self.count = 0
        self._rng = np.random.default_rng(rng_seed)

    # fingerprint in [1, 65535]
    def _fp(self, h: np.ndarray) -> np.ndarray:
        f = ((h * _FP_MULT) >> np.uint64(48)).astype(np.uint16)
        return np.where(f == 0, np.uint16(1), f)

    def _b1(self, h: np.ndarray) -> np.ndarray:
        return (h & np.uint64(self.n_buckets - 1)).astype(np.int64)

    def _b2(self, b1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        fph = fp.astype(np.uint64) * _FP_MULT
        return ((b1.astype(np.uint64) ^ fph) & np.uint64(self.n_buckets - 1)).astype(np.int64)

    def add_many(self, h64: np.ndarray) -> None:
        h = np.asarray(h64).astype(np.int64).view(np.uint64)
        fps = self._fp(h)
        b1s = self._b1(h)
        b2s = self._b2(b1s, fps)
        for fp, b1, b2, raw in zip(fps, b1s, b2s, np.asarray(h64)):
            self._insert_one(int(fp), int(b1), int(b2), int(raw))

    def _insert_one(self, fp: int, b1: int, b2: int, raw: int) -> None:
        self.count += 1
        for b in (b1, b2):
            row = self.table[b]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                return
        b = b1 if self._rng.integers(0, 2) else b2
        cur = np.uint16(fp)
        for _ in range(MAX_KICKS):
            slot = int(self._rng.integers(0, 4))
            cur, self.table[b, slot] = self.table[b, slot], cur
            # Python-int arithmetic with an explicit 2^64 mask: identical
            # involution to _b2's wrapping uint64 multiply, without numpy's
            # scalar-overflow RuntimeWarning on every kick
            fph = (int(cur) * int(_FP_MULT)) & 0xFFFFFFFFFFFFFFFF
            b = (b ^ fph) & (self.n_buckets - 1)
            row = self.table[b]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = cur
                return
        self.overflow.add(raw)  # stash; exact store still authoritative

    def contains_many(self, h64: np.ndarray) -> np.ndarray:
        arr = np.asarray(h64)
        if len(arr) == 0:
            return np.zeros(0, dtype=bool)
        h = arr.astype(np.int64).view(np.uint64)
        fps = self._fp(h)
        b1s = self._b1(h)
        b2s = self._b2(b1s, fps)
        hit = (self.table[b1s] == fps[:, None]).any(axis=1)
        hit |= (self.table[b2s] == fps[:, None]).any(axis=1)
        if self.overflow:
            ov = np.fromiter((int(x) in self.overflow for x in arr), bool, len(arr))
            hit |= ov
        return hit
