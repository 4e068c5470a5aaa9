import numpy as np
import pytest

from delaybs.errors import ContractError
from delaybs.rng import normals


def test_slices_agree_with_full_draw():
    full = normals(7, 2, 1, 0, 1000)
    for lo, hi in [(0, 1000), (0, 137), (137, 512), (512, 1000), (3, 5), (999, 1000)]:
        assert np.array_equal(full[lo:hi], normals(7, 2, 1, lo, hi))


def test_partition_independence():
    # any chunking of the id range reproduces the same numbers
    full = normals(42, 0, 0, 0, 10_000)
    parts = np.concatenate(
        [normals(42, 0, 0, lo, min(lo + 1111, 10_000)) for lo in range(0, 10_000, 1111)]
    )
    assert np.array_equal(full, parts)


def test_substreams_differ():
    a = normals(1, 0, 0, 0, 100)
    b = normals(1, 0, 1, 0, 100)
    c = normals(1, 1, 0, 0, 100)
    d = normals(2, 0, 0, 0, 100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_scalar_matches_vector():
    # the one normal stream 57 sees is that stream's entry of a wider draw
    assert normals(9, 3, 2, 57, 58)[0] == normals(9, 3, 2, 0, 100)[57]


def test_moments_roughly_standard():
    z = normals(123, 0, 0, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert np.all(np.isfinite(z))


def test_empty_range():
    assert normals(1, 0, 0, 5, 5).size == 0


def test_high_seeds_give_distinct_streams():
    # a key cast through float64 maps both seeds to 2**63
    assert not np.array_equal(normals(2**63 + 1, 0, 0, 0, 50), normals(2**63 + 2, 0, 0, 0, 50))
    assert not np.array_equal(normals(2**64 - 1, 0, 0, 0, 50), normals(2**64 - 2, 0, 0, 0, 50))


def test_keys_below_2_53_are_unchanged():
    # values drawn when the key was a list of Python ints
    assert normals(2**53 - 1, 0, 0, 0, 2).tolist() == [-0.24056238648413247, -0.1328750240025986]
    assert normals(2**40 + 3, 5, 2, 10, 12).tolist() == [0.7112926262320933, 2.0935867427576156]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_the_64_bit_range_is_rejected(seed):
    with pytest.raises(ContractError, match="seed"):
        normals(seed, 0, 0, 0, 4)
