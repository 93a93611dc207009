"""UniformStream's buffer: pending doubles and consuming them."""

import numpy as np
import pytest

from parallel_ea.rng import BLOCK, derive_rng


def test_pending_never_refills():
    rng = derive_rng(41)
    state = rng.bit_generator.state
    assert len(rng.pending()) == 0 and len(rng.pending()) == 0
    assert rng.bit_generator.state == state  # nothing drawn before the first double
    for _ in range(BLOCK):
        rng.next_double()
    state = rng.bit_generator.state
    assert len(rng.pending()) == 0  # the buffer is read to its end, and stays so
    assert rng.bit_generator.state == state


def test_pending_are_the_next_doubles():
    rng, twin = derive_rng(42), derive_rng(42)
    rng.next_double()
    pending = rng.pending()
    assert len(pending) == BLOCK - 1 and not pending.flags.writeable
    assert pending.tolist() == [twin.next_double() for _ in range(BLOCK)][1:]


@pytest.mark.parametrize("k", [0, 1, 17, BLOCK - 3])
def test_consume_passes_over_k_doubles(k):
    rng, twin = derive_rng(43), derive_rng(43)
    rng.next_double()
    twin.next_double()
    rng.consume(k)
    expected = [twin.next_double() for _ in range(k + 1)][-1]
    assert rng.next_double() == expected
    assert len(rng.pending()) == BLOCK - k - 2
    # the doubles past the buffer's end are the twin's next ones too
    rng.consume(len(rng.pending()))
    for _ in range(BLOCK - k - 2):
        twin.next_double()
    assert [rng.next_double() for _ in range(3)] == [twin.next_double() for _ in range(3)]


def test_bit_generator_draws_leave_the_pending_doubles():
    rng = derive_rng(44)
    rng.next_double()
    before = rng.pending().copy()
    rng.binomial(100, 0.3, size=5)
    rng.multinomial(10, [0.5, 0.5])
    after = rng.pending()
    assert np.array_equal(before, after)
    assert rng.next_double() == before[0]


def test_consume_more_than_pending_is_refused():
    rng = derive_rng(45)
    with pytest.raises(ValueError, match="^cannot consume 1 doubles: 0 are pending$"):
        rng.consume(1)
    rng.next_double()
    with pytest.raises(ValueError) as info:
        rng.consume(BLOCK)
    assert str(info.value) == f"cannot consume {BLOCK} doubles: {BLOCK - 1} are pending"
    with pytest.raises(ValueError):
        rng.consume(-1)
    assert len(rng.pending()) == BLOCK - 1  # a refused call consumes nothing
