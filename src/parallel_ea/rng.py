"""Seed-stream derivation.

Every run derives its generator from (master seed, stream indices), so
results are bit-reproducible no matter how repetitions are scheduled
across workers.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable

import numpy as np

BLOCK = 256  # doubles drawn per refill of a UniformStream's buffer


class UniformStream(np.random.Generator):
    """A Generator that also hands out uniform doubles in [0, 1) one at a
    time, from a buffer refilled BLOCK at a time: `next_double()` costs a
    fraction of a scalar numpy draw.

    The buffer reads the stream's own bit generator, so its doubles come in
    the order `random()` would give them, and it refills only when its last
    double has been handed out.  The Generator methods read the bit
    generator where the last refill left it and leave the buffer as it is.
    """

    def __init__(self, bit_generator: np.random.BitGenerator):
        super().__init__(bit_generator)
        # a plain Generator on the same bit generator fills the buffer, so
        # the stream holds no reference cycle through itself; the chain asks
        # for the next block only when the last one is used up
        blocks = map(np.random.Generator(bit_generator).random, repeat(BLOCK))
        self.next_double: Callable[[], float] = chain.from_iterable(
            map(np.ndarray.tolist, blocks)).__next__


def as_stream(rng: np.random.Generator) -> UniformStream:
    """rng itself if it is a UniformStream, else one on rng's bit generator."""
    return rng if isinstance(rng, UniformStream) else UniformStream(rng.bit_generator)


def derive_rng(master_seed: int, *stream: int) -> UniformStream:
    """Independent PCG64 stream keyed by (master_seed, *stream)."""
    seq = np.random.SeedSequence([int(master_seed), *[int(s) for s in stream]])
    return UniformStream(np.random.PCG64(seq))


def derive_run_seed(master_seed: int, *stream: int) -> int:
    """64-bit integer seed derived from (master_seed, *stream)."""
    seq = np.random.SeedSequence([int(master_seed), *[int(s) for s in stream]])
    return int(seq.generate_state(1, np.uint64)[0])
