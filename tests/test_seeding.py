import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surgcurate.seeding import derive_seed, permutation

_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**256))


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, n=st.integers(0, 5000))
@example(seed=0, n=0)
@example(seed=0, n=1)
@example(seed=0, n=2)
@example(seed=2**32 - 1, n=2)
@example(seed=2**32, n=2)
@example(seed=2**64 - 1, n=1)
@example(seed=2**64 - 1, n=2)
def test_permutation_is_numpys_default_rng_permutation(seed, n):
    assert permutation(seed, n) == np.random.default_rng(seed).permutation(n).tolist()


def test_permutation_matches_numpy_at_paper_scale():
    """The paper's 10,535 videos in one dataset, at the CLI's split seed."""
    seed = derive_seed(7, "split-web-edu")
    assert permutation(seed, 10535) == np.random.default_rng(seed).permutation(10535).tolist()


def test_numpy_integer_seeds_are_read_as_integers():
    assert permutation(np.uint64(2**63 + 5), 50) == permutation(2**63 + 5, 50)

