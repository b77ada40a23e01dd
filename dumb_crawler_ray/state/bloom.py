"""Global URL-seen bloom filter — vectorized over int64 hash batches.

North-rule component (BASELINE.json): the driver probes it to pre-filter
candidate membership before the exact per-partition check, and ships each
shard only the per-row verdicts with its candidate slice. A
bloom NEGATIVE is authoritative ("definitely never seen") and lets the
frontier shard insert without probing its exact key store — at 10^10-URL
scale that probe is a disk/LSM lookup, so the bloom's job is to keep the
common new-URL path cheap. POSITIVES are always re-checked exactly (by the
shard's cuckoo filter + key store), so the false-positive rate costs only
extra probes, never correctness (SURVEY.md §7 hard part d).

Sizing: ~1.2 GB of bits covers 1e10 keys at 1% fpp. The filter lives on
the driver and is not checkpointed: a resume rebuilds it from each
shard's `record_hash64()`.
"""

from __future__ import annotations

import math

import numpy as np

_MULT = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio odd multiplier
_M1 = np.uint64(0xFF51AFD7ED558CCD)
_M2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix64(h: np.ndarray) -> np.ndarray:
    """murmur3 fmix64 — full-avalanche so LOW bits depend on ALL input bits
    (a bare multiply keeps low bits a function of low bits, which collapses
    the probe space when n_bits is a power of two)."""
    x = h.copy()
    x ^= x >> np.uint64(33)
    x *= _M1
    x ^= x >> np.uint64(33)
    x *= _M2
    x ^= x >> np.uint64(33)
    return x


class BloomFilter:
    def __init__(self, capacity: int, fpp: float = 0.01):
        capacity = max(64, int(capacity))
        m = int(-capacity * math.log(fpp) / (math.log(2) ** 2))
        self.n_bits = max(512, 1 << (m - 1).bit_length())  # pow2 → mask, not mod
        self.k = max(1, round(m / capacity * math.log(2)))
        self.words = np.zeros(self.n_bits // 64, dtype=np.uint64)
        self.capacity = capacity
        self.count = 0

    def _probes(self, h64: np.ndarray) -> np.ndarray:
        """(k, n) bit indexes via double hashing h1 + i*h2."""
        h = h64.astype(np.int64).view(np.uint64)
        h1 = _mix64(h)
        h2 = _mix64(h ^ _MULT) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        mask = np.uint64(self.n_bits - 1)
        return (h1[None, :] + i * h2[None, :]) & mask

    def add_many(self, h64: np.ndarray) -> None:
        if len(h64) == 0:
            return
        idx = self._probes(np.asarray(h64))
        words = (idx >> np.uint64(6)).ravel()
        bits = (np.uint64(1) << (idx & np.uint64(63))).ravel()
        np.bitwise_or.at(self.words, words, bits)
        self.count += len(h64)

    def contains_many(self, h64: np.ndarray) -> np.ndarray:
        if len(h64) == 0:
            return np.zeros(0, dtype=bool)
        idx = self._probes(np.asarray(h64))
        present = (self.words[idx >> np.uint64(6)] >> (idx & np.uint64(63))) & np.uint64(1)
        return present.all(axis=0)
