from concurrent.futures import Future

import numpy as np
import pytest

from delaybs import parallel
from delaybs.errors import ContractError, NumericalError
from delaybs.parallel import accumulate_controlled_pair, accumulate_moments, finite, reduce_moments


@pytest.fixture
def small_chunks(monkeypatch):
    """Accumulate over chunks of 512 paths, so that a few thousand paths
    exercise the merge."""
    monkeypatch.setattr(parallel, "CHUNK_SIZE", 512)


def _payoff(lo, hi):
    # A large mean with a small spread: E[x^2] - mean^2 cancels to noise.
    ids = np.arange(lo, hi, dtype=float)
    return 1e8 + 1e-3 * np.sin(ids)


@pytest.mark.parametrize("workers", [1, 3])
def test_variance_survives_a_large_mean(monkeypatch, workers):
    n = 10_000
    monkeypatch.setattr(parallel, "CHUNK_SIZE", 999)  # eleven chunks, the last one partial
    mean, se, count = accumulate_moments(_payoff, n, workers)
    x = _payoff(0, n)
    assert count == n
    assert mean == float(x.sum()) / n
    assert se == pytest.approx(np.std(x, ddof=1) / np.sqrt(n), rel=1e-6)
    # The naive one-pass formula loses the variance entirely here.
    var = np.var(x, ddof=1)
    naive = max(float((x * x).sum()) / n - mean * mean, 0.0) * n / (n - 1)
    assert abs(naive - var) > 0.5 * var


def test_accumulators_chunk_at_chunk_size_read_when_called(small_chunks):
    seen = []

    def recording(lo, hi):
        seen.append((lo, hi))
        return _pair(lo, hi)

    accumulate_moments(lambda lo, hi: recording(lo, hi)[0], 5000, 1)
    accumulate_controlled_pair(_controlled(recording), 0.0, 5000)
    assert seen == 2 * parallel.chunk_ranges(5000, 512)


def test_merge_is_identical_across_worker_counts(small_chunks):
    results = {accumulate_moments(_payoff, 5000, w) for w in (1, 2, 4)}
    assert len(results) == 1


def test_one_path_has_zero_error():
    assert accumulate_moments(_payoff, 1, 1) == (1e8, 0.0, 1)


def test_no_paths_is_a_contract_error():
    with pytest.raises(ContractError):
        accumulate_moments(_payoff, 0, 1)


# --- co-moments and the control variate ---------------------------------------


def _controlled(fn):
    """fn's statistic as the one statistic of a chunk, the controlled one."""
    return lambda lo, hi: [fn(lo, hi)]


def _pair(lo, hi):
    ids = np.arange(lo, hi, dtype=float)
    x = np.cos(ids)
    return 2.0 * x + np.sin(3.0 * ids), x


def _pair_large_mean(lo, hi):
    # mean 1e8, spread 1e-3, and correlated, so S_xy is not near 0
    ids = np.arange(lo, hi, dtype=float)
    return 1e8 + 1e-3 * (np.sin(ids) + 0.5 * np.cos(2.0 * ids)), 1e8 + 1e-3 * np.sin(ids)


def _co_moments(fn, n, workers=1, chunk_size=512):
    [merged] = reduce_moments(lambda lo, hi: (fn(lo, hi),), n, workers, chunk_size)
    return merged


def _two_pass(y, x):
    dy, dx = y - y.mean(), x - x.mean()
    return float((dy * dy).sum()), float((dx * dx).sum()), float((dy * dx).sum())


@pytest.mark.parametrize("workers", [1, 3])
def test_co_moments_match_two_pass_over_uneven_chunks(workers):
    n = 5000  # ten chunks of 512, the last one partial
    count, (sum_y, sum_x), got = _co_moments(_pair, n, workers)
    y, x = _pair(0, n)
    assert count == n
    assert (sum_y, sum_x) == pytest.approx((y.sum(), x.sum()), rel=1e-12)
    assert got == pytest.approx(_two_pass(y, x), rel=1e-12)


def test_co_moments_survive_a_large_mean():
    n = 5000
    _, _, got = _co_moments(_pair_large_mean, n)
    y, x = _pair_large_mean(0, n)
    # Each chunk's mean carries a few ulps of 1e8 of summation error, so,
    # like the variance of one statistic, the co-moments hold to about
    # 1e-8 here, not to 1e-12.
    assert got == pytest.approx(_two_pass(y, x), rel=1e-6)
    # The naive one-pass formula loses the co-moment entirely.
    naive = float((x * y).sum()) - float(x.sum()) * float(y.sum()) / n
    assert abs(naive - got[2]) > 0.5 * abs(got[2])


def test_pair_keeps_the_bits_of_each_statistic():
    n = 5000
    count, (sum_y, sum_x), (s_yy, s_xx, _) = _co_moments(_pair, n)
    alone = reduce_moments(lambda lo, hi: [(v,) for v in _pair(lo, hi)], n, chunk_size=512)
    [(_, (ty,), (m_yy,)), (_, (tx,), (m_xx,))] = alone
    assert (sum_y, s_yy, sum_x, s_xx) == (ty, m_yy, tx, m_xx)


def test_co_moment_merge_is_identical_across_worker_counts(small_chunks):
    results = {_co_moments(_pair_large_mean, 5000, w) for w in (1, 2, 4)}
    assert len(results) == 1
    controlled = {accumulate_controlled_pair(_controlled(_pair), 0.0, 5000, w)[0] for w in (1, 2, 4)}
    assert len(controlled) == 1


def test_control_matches_the_regression_estimator(small_chunks):
    n, mu = 5000, 0.01
    mean, se, count = accumulate_controlled_pair(_controlled(_pair), mu, n)[0]
    y, x = _pair(0, n)
    dy, dx = y - y.mean(), x - x.mean()
    beta = (dy @ dx) / (dx @ dx)
    resid = dy - beta * dx
    assert count == n
    assert mean == pytest.approx(y.mean() - beta * (x.mean() - mu), rel=1e-12)
    assert se == pytest.approx(np.sqrt(resid @ resid / (n - 2) / n), rel=1e-9)
    assert se < np.std(y, ddof=1) / np.sqrt(n) / 2.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_control_needs_a_residual_degree_of_freedom(n):
    controlled = accumulate_controlled_pair(_controlled(_pair), 5.0, n)[0]
    if n <= 2:  # a line fits n <= 2 points exactly: no control, no false 0
        assert controlled == accumulate_moments(lambda lo, hi: _pair(lo, hi)[0], n, 1)
    else:
        y, x = _pair(0, n)
        beta = float(np.polyfit(x, y, 1)[0])
        assert controlled[0] == pytest.approx(y.mean() - beta * (x.mean() - 5.0), rel=1e-9)
        assert controlled[1] > 0.0


def test_control_without_spread_is_the_plain_mean(small_chunks):
    def flat(lo, hi):
        y, _ = _pair(lo, hi)
        return y, np.full(hi - lo, 3.0)

    got = accumulate_controlled_pair(_controlled(flat), 2.0, 5000)[0]
    assert got == accumulate_moments(lambda lo, hi: _pair(lo, hi)[0], 5000, 1)


def test_control_reports_non_finite_results():
    def overflowing(lo, hi):  # the sum of y overflows
        return np.full(hi - lo, 1e308), _pair(lo, hi)[1]

    with pytest.raises(NumericalError):
        accumulate_controlled_pair(_controlled(overflowing), 0.0, 100)[0]


def test_an_overflowing_control_fails_only_its_reader(small_chunks):
    def flat_payoff(lo, hi):  # S_xx overflows, Y has no spread at all
        return np.zeros(hi - lo), 1e200 * (2.0 + _pair(lo, hi)[1])

    controlled, plain = accumulate_controlled_pair(_controlled(flat_payoff), 2e200, 5000)
    assert controlled == (0.0, 0.0, 5000)
    assert plain[1] == np.inf
    with pytest.raises(NumericalError):
        finite(plain)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_further_statistic_has_the_bits_of_its_plain_mean(small_chunks, workers):
    def with_payoff(lo, hi):
        return [_pair(lo, hi), (_payoff(lo, hi),)]

    alone = accumulate_controlled_pair(_controlled(_pair), 0.01, 5000, workers)
    *pair, payoff = accumulate_controlled_pair(with_payoff, 0.01, 5000, workers)
    assert tuple(pair) == alone
    assert payoff == accumulate_moments(_payoff, 5000, workers)


# --- the twin, a second control ------------------------------------------------


def _triple(lo, hi):
    ids = np.arange(lo, hi, dtype=float)
    x, twin = np.cos(ids), np.sin(ids) ** 3
    return 2.0 * x + twin + 0.1 * np.sin(5.0 * ids), x, twin


def test_two_controls_match_the_regression_estimator(small_chunks):
    n, mu, twin_mu = 5000, 0.01, -0.02
    mean, se, _ = accumulate_controlled_pair(_controlled(_triple), mu, n, twin_mean=twin_mu)[0]
    y, x, twin = _triple(0, n)
    design = np.column_stack([np.ones(n), x, twin])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    assert mean == pytest.approx(y.mean() - coef[1:] @ [x.mean() - mu, twin.mean() - twin_mu],
                                 rel=1e-12)
    assert se == pytest.approx(np.sqrt(resid @ resid / (n - 3) / n), rel=1e-9)


def test_twin_needs_a_residual_degree_of_freedom():
    # at three paths only the first control enters, as without the twin
    one = accumulate_controlled_pair(lambda lo, hi: [_triple(lo, hi)[:2]], 5.0, 3)
    assert accumulate_controlled_pair(_controlled(_triple), 5.0, 3, twin_mean=7.0) == one


@pytest.mark.parametrize("twin", ["flat", "collinear"])
def test_a_twin_without_residual_spread_enters_at_coefficient_one(small_chunks, twin):
    # the sample cannot fit the twin's coefficient; Y = twin + 3x is exact
    def fn(lo, hi):
        _, x, _ = _triple(lo, hi)
        t = np.full(hi - lo, 0.5) if twin == "flat" else 4.0 * x - 1.0
        return t + 3.0 * x, x, t

    twin_mu = 0.75  # the twin's true mean, which the sample does not show
    mean, se, _ = accumulate_controlled_pair(_controlled(fn), 0.0, 5000, twin_mean=twin_mu)[0]
    assert mean == pytest.approx(twin_mu, abs=1e-12) and se == 0.0


@pytest.mark.parametrize("workers, n, size", [(10**9, 3 * 512, 3), (2, 5 * 512, 2), (4, 513, 2)])
def test_the_pool_has_no_more_threads_than_chunks(monkeypatch, workers, n, size):
    sizes = []

    class InlinePool:
        """Records its size and runs each task on the calling thread."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", InlinePool)
    chunks = parallel.map_chunks(lambda lo, hi: (lo, hi), n, workers, chunk_size=512)
    assert chunks == parallel.chunk_ranges(n, 512)
    assert sizes == [size]
