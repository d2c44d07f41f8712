"""Counter-based random streams and query/depth accounting.

Streams are keyed by (seed, stream_id) through a Philox counter generator,
so any block of trials can be reproduced or reordered without replaying
the draws that preceded it.  The documented derivation rule for nested
work is stream_id = step_index * 2**16 + block_index, with the sweep
driver placing whole cells 2**32 apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

_MASK64 = (1 << 64) - 1
# numpy's binomial takes its trial count as a signed 64-bit integer.
MAX_TRIALS = (1 << 63) - 1


class Outcome(Enum):
    LEFT = 0
    RIGHT = 1


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Philox's key as a seed sequence: Philox asks it for generate_state(2,
    uint64) and gets the two key words.  Philox(key=...) would first draw a
    throwaway SeedSequence from OS entropy."""

    def __init__(self, *words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return np.array(self.words, dtype=np.uint64)


class RngStream:
    """Deterministic stream of draws identified by (seed, stream_id)."""

    __slots__ = ("seed", "stream_id", "generator")

    def __init__(self, seed, stream_id=0):
        """seed and stream_id are integers, taken mod 2**64 (see as_int)."""
        if type(seed) is not int:
            seed = as_int(seed, "seed")
        if type(stream_id) is not int:
            stream_id = as_int(stream_id, "stream_id")
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        key = _PhiloxKey(self.seed, self.stream_id)
        self.generator = np.random.Generator(np.random.Philox(key))

    def child(self, offset):
        """Fresh stream at stream_id + offset with the same seed."""
        if type(offset) is not int:
            offset = as_int(offset, "offset")
        return RngStream(self.seed, (self.stream_id + offset) & _MASK64)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def as_int(value, name):
    """A count or degree as an int: Python and NumPy integers pass; bools,
    floats (2.0 included) and strings raise ValueError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def bernoulli_trials(p, n, rng):
    """Count of successes in n independent draws with success probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if type(n) is not int:
        n = as_int(n, "trial count")
    if not 0 <= n <= MAX_TRIALS:
        raise ValueError("trial count must lie in [0, 2**63 - 1]")
    return int(rng.generator.binomial(n, p))


@dataclass
class ResourceLedger:
    """Accumulates total queries, the deepest single shot, and shot count."""

    total_queries: int = 0
    max_depth: int = 0
    shots: int = 0


def record_shots(ledger, depth, n):
    """Record n shots of the given depth; mutates and returns the ledger."""
    if type(depth) is not int:
        depth = as_int(depth, "depth")
    if type(n) is not int:
        n = as_int(n, "shot count")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if n < 0:
        raise ValueError("shot count must be nonnegative")
    ledger.total_queries += depth * n
    if n >= 1:
        ledger.max_depth = max(ledger.max_depth, depth)
    ledger.shots += n
    return ledger

