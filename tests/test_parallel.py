import numpy as np
import pytest

from delaybs.errors import ContractError
from delaybs.parallel import accumulate_moments


def _payoff(lo, hi):
    # A large mean with a small spread: E[x^2] - mean^2 cancels to noise.
    ids = np.arange(lo, hi, dtype=float)
    return 1e8 + 1e-3 * np.sin(ids)


@pytest.mark.parametrize("workers", [1, 3])
def test_variance_survives_a_large_mean(workers):
    n, chunk = 10_000, 999  # eleven chunks, the last one partial
    mean, se, count = accumulate_moments(_payoff, n, workers, chunk_size=chunk)
    x = _payoff(0, n)
    assert count == n
    assert mean == float(x.sum()) / n
    assert se == pytest.approx(np.std(x, ddof=1) / np.sqrt(n), rel=1e-6)
    # The naive one-pass formula loses the variance entirely here.
    var = np.var(x, ddof=1)
    naive = max(float((x * x).sum()) / n - mean * mean, 0.0) * n / (n - 1)
    assert abs(naive - var) > 0.5 * var


def test_merge_is_identical_across_worker_counts():
    results = {accumulate_moments(_payoff, 5000, w, chunk_size=512) for w in (1, 2, 4)}
    assert len(results) == 1


def test_one_path_has_zero_error():
    assert accumulate_moments(_payoff, 1) == (1e8, 0.0, 1)


def test_no_paths_is_a_contract_error():
    with pytest.raises(ContractError):
        accumulate_moments(_payoff, 0)
