import math

import numpy as np
import pytest
from scipy.special import ndtr

from delaybs.errors import ContractError
from delaybs.rng import GROUP, normals


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


def test_keys_around_2_53_give_distinct_streams():
    # a key cast through float64 maps 2**53 + 1 onto 2**53
    streams = [normals(seed, 0, 0, 0, 50) for seed in (2**53 - 1, 2**53 + 1, 2**53 + 2)]
    for i, a in enumerate(streams):
        for b in streams[i + 1 :]:
            assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_the_64_bit_range_is_rejected(seed):
    with pytest.raises(ContractError, match="seed"):
        normals(seed, 0, 0, 0, 4)


@pytest.mark.parametrize("lo, hi", [
    (GROUP - 3, GROUP + 3),  # across the first group edge
    (GROUP + 5, GROUP + 9),  # inside a group, after its prefix
    (1000, 2 * GROUP + 5),  # across two group edges
    (2 * GROUP, 2 * GROUP + 5),  # from a group's first id
])
def test_ranges_across_groups_are_slices_of_one_draw(lo, hi):
    full = normals(3, 1, 2, 0, 3 * GROUP)
    assert np.array_equal(normals(3, 1, 2, lo, hi), full[lo:hi])


def test_simulate_sized_pieces_reproduce_one_draw():
    # simulate's 1,024-stream chunks start inside groups
    lo, hi = 1000, 2 * GROUP + 5
    pieces = [normals(3, 1, 2, a, min(a + 1024, hi)) for a in range(lo, hi, 1024)]
    assert np.array_equal(np.concatenate(pieces), normals(3, 1, 2, 0, hi)[lo:])


def _first(seed, block, substep, group):
    return normals(seed, block, substep, group * GROUP, group * GROUP + 8)


@pytest.mark.parametrize("a, b", [
    ((2**32, 0, 0, 0), (0, 1, 0, 0)),  # one seed word carried into the block
    ((0, 1, 2, 0), (0, 2, 1, 0)),  # block and substep swapped
    ((5, 0, 0, 0), (5, 0, 0, 1)),  # groups 0 and 1 at the same offset
])
def test_keys_that_share_their_words_give_distinct_streams(a, b):
    assert not np.array_equal(_first(*a), _first(*b))


def test_every_key_of_a_small_grid_has_its_own_stream():
    # 0 or 1 in each of the five key words, the seed's high word included
    keys = [(s, k, j, g) for s in (0, 1, 2**32, 2**32 + 1) for k in (0, 1) for j in (0, 1)
            for g in (0, 1)]
    firsts = {tuple(_first(*key)) for key in keys}
    assert len(firsts) == len(keys)


def test_normals_have_standard_moments_tails_and_no_cross_correlation():
    n = 64 * GROUP
    z = normals(20261019, 3, 0, 0, n)
    assert abs(z.mean()) < 4 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 4 * math.sqrt(2 / n)
    p = 2 * ndtr(-3.0)
    assert abs(np.mean(np.abs(z) > 3) - p) < 4 * math.sqrt(p * (1 - p) / n)
    # substreams 0 and 1 at the same ids, and groups 0 and 1 at the same offsets
    other = normals(20261019, 3, 1, 0, n)
    assert abs(np.corrcoef(z, other)[0, 1]) < 4 / math.sqrt(n)
    assert abs(np.corrcoef(z[:GROUP], z[GROUP : 2 * GROUP])[0, 1]) < 4 / math.sqrt(GROUP)
