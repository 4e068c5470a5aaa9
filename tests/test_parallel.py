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
    accumulate_controlled_pair(recording, (0.0,), 5000)
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
    controlled = {accumulate_controlled_pair(_pair, (0.0,), 5000, w)[0] for w in (1, 2, 4)}
    assert len(controlled) == 1


def test_control_matches_the_regression_estimator(small_chunks):
    n, mu = 5000, 0.01
    mean, se, count = accumulate_controlled_pair(_pair, (mu,), n)[0]
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
    controlled = accumulate_controlled_pair(_pair, (5.0,), n)[0]
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

    got = accumulate_controlled_pair(flat, (2.0,), 5000)[0]
    assert got == accumulate_moments(lambda lo, hi: _pair(lo, hi)[0], 5000, 1)


def test_control_reports_non_finite_results():
    def overflowing(lo, hi):  # the sum of y overflows
        return np.full(hi - lo, 1e308), _pair(lo, hi)[1]

    with pytest.raises(NumericalError):
        accumulate_controlled_pair(overflowing, (0.0,), 100)[0]


def test_an_overflowing_control_fails_only_its_reader(small_chunks):
    def flat_payoff(lo, hi):  # S_xx overflows, Y has no spread at all
        return np.zeros(hi - lo), 1e200 * (2.0 + _pair(lo, hi)[1])

    controlled, plain = accumulate_controlled_pair(flat_payoff, (2e200,), 5000)
    assert controlled == (0.0, 0.0, 5000)
    assert plain[1] == np.inf
    with pytest.raises(NumericalError):
        finite(plain)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_control_has_the_bits_of_its_plain_mean(small_chunks, workers):
    def with_payoff(lo, hi):
        return (*_pair(lo, hi), _payoff(lo, hi))

    _, x, payoff = accumulate_controlled_pair(with_payoff, (0.01, 1e8), 5000, workers)
    assert x == accumulate_moments(lambda lo, hi: _pair(lo, hi)[1], 5000, workers)
    assert payoff == accumulate_moments(_payoff, 5000, workers)


@pytest.mark.parametrize("rho", ["flat", "collinear"])
def test_a_last_control_without_residual_spread_leaves_the_estimate(small_chunks, rho):
    # (y, x, rho), as the importance price passes it without a twin: a rho
    # that adds nothing to x stays out, and control 2 takes the twin's
    # coefficient-1 rule only when a control follows it
    def fn(lo, hi):
        y, x = _pair(lo, hi)
        return y, x, np.full(hi - lo, 0.5) if rho == "flat" else 0.5 + 0.25 * x

    got = accumulate_controlled_pair(fn, (0.01, 1.0), 5000)
    assert got[:2] == accumulate_controlled_pair(_pair, (0.01,), 5000)


# --- the twin, a second control ------------------------------------------------


def _triple(lo, hi):
    ids = np.arange(lo, hi, dtype=float)
    x, twin = np.cos(ids), np.sin(ids) ** 3
    return 2.0 * x + twin + 0.1 * np.sin(5.0 * ids), x, twin


def test_two_controls_match_the_regression_estimator(small_chunks):
    n, mu, twin_mu = 5000, 0.01, -0.02
    mean, se, _ = accumulate_controlled_pair(_triple, (mu, twin_mu), n)[0]
    y, x, twin = _triple(0, n)
    design = np.column_stack([np.ones(n), x, twin])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    assert mean == pytest.approx(y.mean() - coef[1:] @ [x.mean() - mu, twin.mean() - twin_mu],
                                 rel=1e-12)
    assert se == pytest.approx(np.sqrt(resid @ resid / (n - 3) / n), rel=1e-9)


def test_twin_needs_a_residual_degree_of_freedom():
    # at three paths only the first control enters, as without the twin
    one = accumulate_controlled_pair(lambda lo, hi: _triple(lo, hi)[:2], (5.0,), 3)
    assert accumulate_controlled_pair(_triple, (5.0, 7.0), 3)[:2] == one


@pytest.mark.parametrize("twin", ["flat", "collinear"])
def test_a_twin_without_residual_spread_enters_at_coefficient_one(small_chunks, twin):
    # the sample cannot fit the twin's coefficient; Y = twin + 3x is exact.
    # The twin's discounted price follows it, here X itself, as where g
    # does not read s
    def fn(lo, hi):
        _, x, _ = _triple(lo, hi)
        t = np.full(hi - lo, 0.5) if twin == "flat" else 4.0 * x - 1.0
        return t + 3.0 * x, x, t, x

    twin_mu = 0.75  # the twin's true mean, which the sample does not show
    mean, se, _ = accumulate_controlled_pair(fn, (0.0, twin_mu, 0.0), 5000)[0]
    assert mean == pytest.approx(twin_mu, abs=1e-12) and se == 0.0


# --- the twin's price, a third control of X's mean --------------------------------


def _quadruple(lo, hi):
    ids = np.arange(lo, hi, dtype=float)
    y, x, twin = _triple(lo, hi)
    x_twin = x + 0.3 * np.cos(7.0 * ids)
    return y - 1.5 * x_twin, x, twin, x_twin


def test_three_controls_match_the_regression_estimator(small_chunks):
    n, mu, twin_mu = 5000, 0.01, -0.02
    got = accumulate_controlled_pair(_quadruple, (mu, twin_mu, mu), n)[0]
    y, *controls = _quadruple(0, n)
    design = np.column_stack([np.ones(n), *controls])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    devs = [c.mean() - m for c, m in zip(controls, [mu, twin_mu, mu])]
    assert got[0] == pytest.approx(y.mean() - coef[1:] @ devs, rel=1e-12)
    assert got[1] == pytest.approx(np.sqrt(resid @ resid / (n - 4) / n), rel=1e-9)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_y_linear_in_three_controls_is_exact(small_chunks, workers):
    def linear(lo, hi):
        _, x, twin, x_twin = _quadruple(lo, hi)
        return 4.0 + 2.0 * x - 0.5 * twin + 3.0 * x_twin, x, twin, x_twin

    mean, se, _ = accumulate_controlled_pair(linear, (0.25, -0.5, 0.25), 5000, workers)[0]
    assert mean == pytest.approx(4.0 + 2.0 * 0.25 - 0.5 * -0.5 + 3.0 * 0.25, rel=1e-12)
    assert se == 0.0


@pytest.mark.parametrize("twin", ["spread", "flat"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_third_control_never_enters_at_four_paths_or_fewer(n, twin):
    # with two controls entered a third would leave no residual degree of
    # freedom; a flat twin enters at coefficient 1, and still X~ stays out,
    # so its mean moves nothing
    def fn(lo, hi):
        y, x, t, x_twin = _quadruple(lo, hi)
        return y, x, t if twin == "spread" else np.full(hi - lo, 0.5), x_twin

    got = accumulate_controlled_pair(fn, (5.0, 7.0, 5.0), n)
    assert accumulate_controlled_pair(fn, (5.0, 7.0, -5.0), n) == got


def test_a_third_control_enters_at_five_paths():
    two = accumulate_controlled_pair(lambda lo, hi: _quadruple(lo, hi)[:3], (5.0, 7.0), 5)
    assert accumulate_controlled_pair(_quadruple, (5.0, 7.0, 5.0), 5)[0] != two[0]


# --- the twin's digital, a fourth control --------------------------------------


def _quintuple(lo, hi):
    ids = np.arange(lo, hi, dtype=float)
    y, x, twin, x_twin = _quadruple(lo, hi)
    digital = np.sin(11.0 * ids) > 0.2  # a bool array, as price_mc_joint passes it
    return y + 0.7 * digital, x, twin, x_twin, digital


def test_four_controls_match_the_regression_estimator(small_chunks):
    n, mu, twin_mu, digital_mu = 5000, 0.01, -0.02, 0.4
    got = accumulate_controlled_pair(_quintuple, (mu, twin_mu, mu, digital_mu), n)[0]
    y, *controls = _quintuple(0, n)
    design = np.column_stack([np.ones(n), *controls])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    devs = [c.mean() - m for c, m in zip(controls, [mu, twin_mu, mu, digital_mu])]
    assert got[0] == pytest.approx(y.mean() - coef[1:] @ devs, rel=1e-12)
    assert got[1] == pytest.approx(np.sqrt(resid @ resid / (n - 5) / n), rel=1e-9)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_y_linear_in_four_controls_is_exact(small_chunks, workers):
    def linear(lo, hi):
        _, x, twin, x_twin, digital = _quintuple(lo, hi)
        return 4.0 + 2.0 * x - 0.5 * twin + 3.0 * x_twin - 1.5 * digital, x, twin, x_twin, digital

    means = (0.25, -0.5, 0.25, 0.4)
    mean, se, _ = accumulate_controlled_pair(linear, means, 5000, workers)[0]
    assert mean == pytest.approx(4.0 + 2.0 * 0.25 - 0.5 * -0.5 + 3.0 * 0.25 - 1.5 * 0.4, rel=1e-12)
    assert se == 0.0


@pytest.mark.parametrize("twin", ["spread", "flat"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_fourth_control_never_enters_at_five_paths_or_fewer(n, twin):
    # with three controls entered the digital would leave no residual degree of freedom
    def fn(lo, hi):
        y, x, t, x_twin, digital = _quintuple(lo, hi)
        return y, x, t if twin == "spread" else np.full(hi - lo, 0.5), x_twin, digital

    three = accumulate_controlled_pair(lambda lo, hi: fn(lo, hi)[:4], (5.0, 7.0, 5.0), n)
    assert accumulate_controlled_pair(fn, (5.0, 7.0, 5.0, 0.3), n)[:4] == three


def test_a_fourth_control_enters_at_six_paths():
    three = accumulate_controlled_pair(lambda lo, hi: _quintuple(lo, hi)[:4], (5.0, 7.0, 5.0), 6)
    assert accumulate_controlled_pair(_quintuple, (5.0, 7.0, 5.0, 0.3), 6)[0] != three[0]


@pytest.mark.parametrize("workers", [1, 3])
def test_a_fourth_control_never_enters_once_y_is_exact(small_chunks, workers):
    # Y is linear in the first three controls but for a term whose residual
    # sum is 1e-16 of S_yy, below the 1e-12 that counts as rounding: Y is
    # exact, and the digital, though it would fit that term, stays out
    def fn(lo, hi):
        _, x, twin, x_twin, digital = _quintuple(lo, hi)
        y = 4.0 + 2.0 * x - 0.5 * twin + 3.0 * x_twin + 1e-8 * digital
        return y, x, twin, x_twin, digital

    means = (0.25, -0.5, 0.25, 0.4)
    three = accumulate_controlled_pair(lambda lo, hi: fn(lo, hi)[:4], means[:3], 5000, workers)
    got = accumulate_controlled_pair(fn, means, 5000, workers)
    assert got[:4] == three and got[0][1] == 0.0


# --- a fifth control, semi's first-order term after its digital -------------


def _sextuple(lo, hi):
    ids = np.arange(lo, hi, dtype=float)
    y, *controls = _quintuple(lo, hi)
    term = np.cos(5.0 * ids) * controls[0]  # a float product, as the first-order term is
    return y + 0.3 * term, *controls, term


def test_five_controls_match_the_regression_estimator(small_chunks):
    n, mu, twin_mu, later = 5000, 0.01, -0.02, (0.4, 0.05)
    got = accumulate_controlled_pair(_sextuple, (mu, twin_mu, mu, *later), n)[0]
    y, *controls = _sextuple(0, n)
    design = np.column_stack([np.ones(n), *controls])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    devs = [c.mean() - m for c, m in zip(controls, [mu, twin_mu, mu, *later])]
    assert got[0] == pytest.approx(y.mean() - coef[1:] @ devs, rel=1e-12)
    assert got[1] == pytest.approx(np.sqrt(resid @ resid / (n - 6) / n), rel=1e-9)


@pytest.mark.parametrize("n", [6, 7])
def test_a_fifth_control_enters_from_seven_paths(n):
    means = (5.0, 7.0, 5.0, 0.3, 0.2)
    four = accumulate_controlled_pair(lambda lo, hi: _sextuple(lo, hi)[:5], means[:4], n)
    got = accumulate_controlled_pair(_sextuple, means, n)
    assert (got[:5] == four) == (n == 6)


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
