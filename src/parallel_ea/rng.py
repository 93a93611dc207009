"""Seed-stream derivation.

Every run derives its generator from (master seed, stream indices), so
results are bit-reproducible no matter how repetitions are scheduled
across workers.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

BLOCK = 256  # doubles drawn per refill of a UniformStream's buffer


class _Buffer:
    """The block of doubles last drawn, read-only, and the list iterator
    that hands them out."""

    __slots__ = ("block", "rest")

    def __init__(self) -> None:
        self.block = np.empty(0)
        self.rest = iter(())


def _doubles(random: Callable[[int], np.ndarray], buffer: _Buffer) -> Iterator[float]:
    while True:
        block = random(BLOCK)
        block.flags.writeable = False
        buffer.block = block
        buffer.rest = iter(block.tolist())
        yield from buffer.rest


class UniformStream(np.random.Generator):
    """A Generator that also hands out uniform doubles in [0, 1) one at a
    time, from a buffer refilled BLOCK at a time: `next_double()` costs a
    fraction of a scalar numpy draw.

    The buffer reads the stream's own bit generator, so its doubles come in
    the order `random()` would give them.  The Generator methods read the
    bit generator where the last refill left it and leave the buffer as it is.
    `pending()` shows the doubles that `next_double()` will hand out before
    its next refill, and `consume(k)` passes over the first k of them, so a
    caller may read many doubles at once with numpy.
    """

    def __init__(self, bit_generator: np.random.BitGenerator):
        super().__init__(bit_generator)
        self._buffer = _Buffer()
        # a plain Generator on the same bit generator fills the buffer, so
        # the stream holds no reference cycle through itself
        self.next_double: Callable[[], float] = _doubles(
            np.random.Generator(bit_generator).random, self._buffer).__next__

    def pending(self) -> np.ndarray:
        """The unread doubles of the current buffer, in stream order, as a
        read-only array; empty before the first draw and after the last
        double of a buffer.  Never refills the buffer."""
        buffer = self._buffer
        return buffer.block[len(buffer.block) - buffer.rest.__length_hint__():]

    def consume(self, k: int) -> None:
        """Pass over the next k pending doubles, as k calls of
        `next_double()` would."""
        buffer = self._buffer
        left = buffer.rest.__length_hint__()
        if not 0 <= k <= left:
            raise ValueError(f"cannot consume {k} doubles: {left} are pending")
        buffer.rest.__setstate__(len(buffer.block) - left + k)


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
