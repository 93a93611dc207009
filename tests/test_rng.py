"""UniformStream's buffer, seen through `next_double()` alone."""

import numpy as np

from parallel_ea.rng import BLOCK, derive_rng


def plain_twin(seed: int) -> np.random.Generator:
    """A plain Generator on the bit generator `derive_rng(seed)` starts from."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))


def test_pending_never_refills():
    # a stream draws nothing before its first double, and one block at a
    # time after it: the bit generator moves only on the first double of
    # each block
    rng, twin = derive_rng(41), plain_twin(41)
    assert rng.bit_generator.state == twin.bit_generator.state
    for _ in range(2):
        rng.next_double()
        twin.random(BLOCK)
        state = rng.bit_generator.state
        assert state == twin.bit_generator.state
        for _ in range(BLOCK - 1):
            rng.next_double()
        assert rng.bit_generator.state == state  # the buffer is read to its end


def test_pending_are_the_next_doubles():
    # the doubles are a plain Generator's random(BLOCK) blocks, in order,
    # across refills
    rng, twin = derive_rng(42), plain_twin(42)
    expected = np.concatenate([twin.random(BLOCK) for _ in range(3)]).tolist()
    assert [rng.next_double() for _ in range(3 * BLOCK)] == expected


def test_bit_generator_draws_leave_the_pending_doubles():
    # binomial and multinomial draws read the bit generator past the
    # buffered block and leave the buffer's doubles as they were; the next
    # refill reads the bit generator where those draws left it
    rng, twin = derive_rng(44), plain_twin(44)
    first = twin.random(BLOCK).tolist()
    assert rng.next_double() == first[0]
    assert rng.binomial(100, 0.3, size=5).tolist() == twin.binomial(100, 0.3, size=5).tolist()
    assert rng.multinomial(10, [0.5, 0.5]).tolist() == twin.multinomial(10, [0.5, 0.5]).tolist()
    assert [rng.next_double() for _ in range(BLOCK - 1)] == first[1:]
    assert [rng.next_double() for _ in range(BLOCK)] == twin.random(BLOCK).tolist()
