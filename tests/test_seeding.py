from hypothesis import example, given
from hypothesis import strategies as st

from continuized.seeding import (
    CLOCK_STREAM,
    NOISE_STREAM,
    derive_seed,
    run_streams,
    splitmix64,
)


def test_splitmix64_reference_vector():
    # Published first outputs of the splitmix64 stream from seed 0.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert 0 <= splitmix64(2**64 - 1) < 2**64


@example(master=7, indices=[3, 11], split=1)
@example(master=2**64 - 1, indices=[-1, 2**64], split=1)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(-(2**80), 2**80), max_size=5),
    st.integers(0, 5),
)
def test_derive_seed_composes(master, indices, split):
    # components compose left to right at any split, each index is taken
    # mod 2^64 (negative ones and ones above 2^64 included), and the result
    # is a 64-bit seed
    split = min(split, len(indices))
    whole = derive_seed(master, *indices)
    assert whole == derive_seed(derive_seed(master, *indices[:split]), *indices[split:])
    assert whole == derive_seed(master, *(ix % 2**64 for ix in indices))
    assert 0 <= whole < 2**64


def test_derive_seed_distinct_runs():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_streams_are_disjoint_and_reproducible():
    a = run_streams(99, 5)
    b = run_streams(99, 5)
    assert a.clock.random() == b.clock.random()
    assert a.noise.random() == b.noise.random()
    # toggling use of the noise stream must not move the clock stream
    c = run_streams(99, 5)
    c.noise.random(100)
    d = run_streams(99, 5)
    assert c.clock.random() == d.clock.random()
    assert derive_seed(123, 0, CLOCK_STREAM) != derive_seed(123, 0, NOISE_STREAM)
