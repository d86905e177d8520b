"""rng.skip: a generator moved past n uniforms draws what follows them."""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from graphonlab.rng import CHUNK, skip

BIT_GENERATORS = {
    "pcg64": np.random.PCG64,  # every stream of the package
    "pcg64dxsm": np.random.PCG64DXSM,
    "philox": np.random.Philox,  # has an advance that is not n draws
    "mt19937": np.random.MT19937,  # has no advance
}


def _follow(g: np.random.Generator) -> list:
    """Draws of each kind that may come after a skip: doubles, 32-bit and
    64-bit bounded ints, and choice with and without weights."""
    return [g.random(3).tolist(), g.integers(0, 10, 5).tolist(), g.integers(0, 2**40, 2).tolist(),
            g.choice(9, 4).tolist(), g.choice(3, 4, p=[0.2, 0.3, 0.5]).tolist()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BIT_GENERATORS)), st.integers(0, 2**32 - 1), st.integers(0, 2 * CHUNK + 3),
       st.booleans())
@example("pcg64", 0, 1, True)
@example("pcg64", 0, CHUNK + 1, False)
@example("mt19937", 1, CHUNK + 1, True)
def test_skip_leaves_the_draws_that_follow_n_uniforms(name, seed, n, buffered):
    skipped, drawn = (np.random.Generator(BIT_GENERATORS[name](seed)) for _ in range(2))
    if buffered:  # a 32-bit draw leaves the other half of its word buffered
        skipped.integers(0, 10)
        drawn.integers(0, 10)
    skip(skipped, n)
    drawn.random(n)
    assert _follow(skipped) == _follow(drawn)


def test_advance_drops_a_buffered_half_word():
    """Why skip draws instead of advancing a PCG64 that holds one: after
    advance the next 32-bit ints differ from those after n draws."""
    advanced, drawn = (np.random.Generator(np.random.PCG64(3)) for _ in range(2))
    advanced.integers(0, 10)
    drawn.integers(0, 10)
    assert advanced.bit_generator.state["has_uint32"] == 1
    advanced.bit_generator.advance(100)
    drawn.random(100)
    assert advanced.integers(0, 10, 20).tolist() != drawn.integers(0, 10, 20).tolist()
