"""Counter-based random streams for reproducible experiments.

Every random draw in the package comes from a Philox 4x64 generator
addressed by (seed, stream, step):

* ``key = [seed, stream]`` — the 64-bit run seed plus a stream id that
  separates purposes (training noise, prediction draws, data generation,
  fold shuffling) and parallel tasks (grid cells, folds);
* ``counter = [0, 0, 0, step]`` — the step index in the top counter word,
  so consecutive steps are 2**192 draws apart and can never overlap.

Replaying a (seed, stream, step) triple therefore reproduces the draws
bit for bit, and concurrent tasks stay independent by construction.

A training draws one noise block per step from one (seed, stream) pair,
so it keeps a single live generator, a `NoiseStream`, and resets its
counter to ``[0, 0, 0, step]`` before each block instead of building a
new generator; the blocks are the ones a fresh `generator` would give.
"""

from __future__ import annotations

import numpy as np

# stream ids for the package's fixed purposes; experiment code composes
# task-specific streams on top of these with compose_stream().
STREAM_TRAIN = 0
STREAM_PREDICT = 1
STREAM_DATA = 2
STREAM_CORRUPT = 3
STREAM_FOLDS = 4

_U64 = np.uint64


def generator(seed: int, stream: int, step: int = 0) -> np.random.Generator:
    key = np.array([seed, stream], dtype=_U64)
    counter = np.array([0, 0, 0, step], dtype=_U64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def compose_stream(purpose: int, i1: int = 0, i2: int = 0, i3: int = 0) -> int:
    """Pack a purpose id and three 16-bit task indices into one stream id.

    The purpose always sits in the top 16 bits, so ids composed for
    different purposes can never collide whatever the task indices are.
    """
    parts = (purpose, i1, i2, i3)
    if any(not 0 <= p < (1 << 16) for p in parts):
        raise ValueError("stream components must fit in 16 bits")
    return (purpose << 48) | (i1 << 32) | (i2 << 16) | i3


class NoiseStream:
    """One live Philox generator for a (seed, stream) pair, addressed by step."""

    def __init__(self, seed: int, stream: int):
        bits = np.random.Philox(key=np.array([seed, stream], dtype=_U64),
                                counter=np.zeros(4, dtype=_U64))
        self._bits = bits
        self._gen = np.random.Generator(bits)
        # the freshly seeded state; block() rewrites only its step word, so
        # the buffered output and cached 32-bit half are cleared as well
        self._state = bits.state
        self._counter = self._state["state"]["counter"]

    def block(self, step: int, n_samples: int, dim: int) -> np.ndarray:
        """The read-only n_samples x dim standard-normal block at counter
        [0, 0, 0, step]."""
        self._counter[3] = step
        self._bits.state = self._state
        block = self._gen.standard_normal((n_samples, dim))
        block.flags.writeable = False
        return block


def noise_block(seed: int, stream: int, step: int, n_samples: int, dim: int) -> np.ndarray:
    """One read-only block from a fresh generator, for one-off draws
    outside a training."""
    block = generator(seed, stream, step).standard_normal((n_samples, dim))
    block.flags.writeable = False
    return block
