"""Trajectory generation.

Three schemes:

* the exact block sampler for the variable-delay market (coefficients are
  frozen per block, so each block's log-increment is Gaussian and can be
  drawn without discretization error);
* Euler--Maruyama for the fixed-delay model;
* the splitting construction for the fixed-delay model, which advances a
  stochastic exponential ``psi`` and a random delay-ODE solution ``y``
  and recombines the price as ``psi * y``.  The splitting scheme is
  structurally positive whenever the initial history is positive and the
  drift is non-negative on positive segments.

Engines are vectorized across stream ids; the per-path entry points are
the one-path case of the same code, so scalar and Monte Carlo uses agree
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ContractError, IntegrationFailure
from .model import block_index, is_positive
from .quadrature import DEFAULT_N, block_integrals_vec


@dataclass(frozen=True)
class Path:
    """A sampled trajectory with its measure tag and RNG stream."""

    times: np.ndarray
    values: np.ndarray
    measure: str  # "P" | "Q"
    spec: rng.BrownianSpec
    first_nonpositive_step: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ContractError("path times must be strictly increasing")


class SegmentBuffer:
    """History window of one or more paths on a uniform dt grid.

    The layout is time-major: row ``n_hist + n`` holds the values of all
    paths at time ``n * dt`` and the rows before it hold the initial
    history, so lagged lookups are plain row shifts and each step reads
    and writes contiguous rows.  The moving-average window is a running
    sum: the first step sums the history rows once and every later step
    adds the new row and subtracts the row that left the window.
    """

    def __init__(self, phi, dt, n_steps, n_paths, n_hist):
        self.dt = dt
        self.n_hist = n_hist
        self.data = np.empty((n_hist + n_steps + 1, n_paths))
        hist_times = (np.arange(-n_hist, 1)) * dt
        self.data[: n_hist + 1] = np.array([phi(t) for t in hist_times])[:, None]
        self._window_sum = None
        self._window_step = -1

    def row(self, step):
        return self.n_hist + step

    def value(self, step):
        return self.data[self.row(step)]

    def lagged(self, step, lag_steps):
        return self.data[self.row(step) - lag_steps]

    def window_mean(self, step, lag_steps):
        """Mean over rows step - lag_steps .. step; call once per step from 0."""
        r = self.row(step)
        if step == 0:
            self._window_sum = self.data[r - lag_steps : r + 1].sum(axis=0)
        elif step == self._window_step + 1:
            self._window_sum += self.data[r]
            self._window_sum -= self.data[r - lag_steps - 1]
        else:
            raise ContractError(f"window step {step} follows {self._window_step}")
        self._window_step = step
        return self._window_sum / (lag_steps + 1)

    def put(self, step, values):
        self.data[self.row(step)] = values

    def values(self):
        """Values at grid times 0..T as a (paths, steps + 1) view."""
        return self.data[self.n_hist :].T


@dataclass
class SplitState:
    """State of the splitting scheme inside one block of length b."""

    psi: np.ndarray
    y: np.ndarray
    m_acc: np.ndarray
    qv: np.ndarray


# ---------------------------------------------------------------------------
# Exact block sampler for the variable-delay market
# ---------------------------------------------------------------------------


def sample_block_exact(market, s_k, a, b, measure, z, quad_n=DEFAULT_N):
    """One exact within-block step: s_k * exp(m + sqrt(v) * z)."""
    from .quadrature import block_moments

    mom = block_moments(market, s_k, a, b, measure, quad_n)
    return s_k * math.exp(mom.m + math.sqrt(mom.v) * z)


def _knots(market, t_start, t_end, sample_times):
    """Sorted union of block boundaries and requested sample times."""
    tol = 1e-12 * max(market.T, 1.0)
    knots = [t_start]
    boundary = (block_index(t_start, market.h) + 1) * market.h
    pending = sorted(sample_times)
    for t in pending:
        if t <= t_start + tol or t > t_end + tol:
            raise ContractError(
                f"sample time {t} outside ({t_start}, {t_end}]"
            )
    merged = []
    while boundary < t_end - tol or pending:
        if pending and (boundary >= t_end - tol or pending[0] <= boundary + tol):
            t = pending.pop(0)
            merged.append((t, True))
            if abs(t - boundary) <= tol:
                boundary += market.h
        else:
            merged.append((boundary, False))
            boundary += market.h
    out = []
    for t, wanted in merged:
        if out and t - out[-1][0] <= tol:
            out[-1] = (out[-1][0], out[-1][1] or wanted)
        else:
            out.append((t, wanted))
    return knots[0], out


def exact_values_vec(
    market,
    measure,
    seed,
    lo,
    hi,
    t_start,
    s_start,
    s_block,
    sample_times,
    quad_n=DEFAULT_N,
):
    """Exact-scheme values at sample_times for stream ids lo..hi-1.

    ``s_start`` may be a scalar or an array over the streams;
    ``s_block`` is the price at the start of the block containing
    ``t_start``.  One Gaussian substream is consumed per (block, substep)
    where substep counts the sub-intervals visited inside each block.
    """
    n = hi - lo
    s = np.full(n, float(s_start)) if np.isscalar(s_start) else np.array(s_start, dtype=float)
    sb = np.full(n, float(s_block)) if np.isscalar(s_block) else np.array(s_block, dtype=float)
    t0, merged = _knots(market, t_start, max(sample_times), sample_times)
    out = np.empty((n, len(sample_times)))
    tol = 1e-12 * max(market.T, 1.0)

    prev = t0
    k_cur = block_index(t0, market.h)
    substep = 0
    out_col = 0
    for t, wanted in merged:
        k = block_index(prev, market.h)
        if k != k_cur:
            k_cur = k
            substep = 0
        # refresh the frozen block state at each boundary
        if abs(prev - k * market.h) <= tol and prev > t0 + tol:
            sb = s.copy()
        g2, f_int, lam_int = block_integrals_vec(market, sb, prev, t, quad_n)
        drift = lam_int if measure == "Q" else f_int
        m = drift - 0.5 * g2
        z = rng.normals(seed, k, substep, lo, hi)
        s = s * np.exp(m + np.sqrt(g2) * z)
        substep += 1
        if wanted:
            out[:, out_col] = s
            out_col += 1
        prev = t
    return out


def simulate_exact(
    market,
    measure,
    spec,
    t_start,
    s_start,
    s_blockstart,
    sample_times,
    quad_n=DEFAULT_N,
):
    """Exact-in-distribution path of one stream at the requested times."""
    values = exact_values_vec(
        market,
        measure,
        spec.seed,
        spec.stream_id,
        spec.stream_id + 1,
        t_start,
        s_start,
        s_blockstart,
        list(sample_times),
        quad_n,
    )[0]
    return Path(np.asarray(sample_times, dtype=float), values, measure, spec)


# ---------------------------------------------------------------------------
# Fixed-delay integrators
# ---------------------------------------------------------------------------


def brownian_increments(seed, lo, hi, n_steps, dt):
    """Brownian increments, one substream per step, for streams lo..hi-1.

    Returns a (paths, steps) view of a time-major array, so the engines
    read each step's increments as one contiguous row.
    """
    dW = np.empty((n_steps, hi - lo))
    sq = math.sqrt(dt)
    for n in range(n_steps):
        np.multiply(sq, rng.normals(seed, 0, n, lo, hi), out=dW[n])
    return dW.T


def _lag_steps(name, lag, dt):
    m = round(lag / dt)
    if m < 1 or abs(m * dt - lag) > 1e-9 * max(lag, 1.0):
        raise ContractError(f"dt={dt} must divide the {name} lag {lag}")
    return m


def grid_steps(sfde, dt):
    """Steps (to T, of the diffusion lag b, of the drift lag a) on the dt grid.

    Raises :class:`ContractError` unless dt is positive and divides the
    horizon and the lags.
    """
    if not is_positive(dt):
        raise ContractError(f"dt must be positive, got {dt}")
    n_steps = round(sfde.T / dt)
    if abs(n_steps * dt - sfde.T) > 1e-9:
        raise ContractError(f"dt={dt} must divide the horizon {sfde.T}")
    m_b = _lag_steps("diffusion", sfde.b, dt)
    m_a = _lag_steps("drift", sfde.a, dt) if sfde.drift.kind != "segment-point" else m_b
    return n_steps, m_b, m_a


def _drift_values(sfde, buf, step, t, m_b, m_a):
    d = sfde.drift
    s_now = buf.value(step)
    if d.kind == "segment-point":
        return d.c * buf.lagged(step, m_b) + d.eps
    if d.kind == "proportional-lagged":
        lag = buf.lagged(step, m_a)
        return d.c * lag / (1.0 + lag) * s_now
    return d.c * buf.window_mean(step, m_a) * s_now


def _make_buffer(sfde, dt, n_steps, n_paths, m_b, m_a):
    n_hist = max(m_b, m_a, int(math.ceil(sfde.L / dt - 1e-9)))
    return SegmentBuffer(sfde.phi, dt, n_steps, n_paths, n_hist)


def em_values_vec(sfde, dt, dW):
    """Euler--Maruyama on the dt grid; returns (times, values, first_nonpos).

    The scheme is not positivity preserving: values may cross zero for
    coarse dt.  The first crossing step per path is reported and the
    integration continues with the values as-is.
    """
    dW = np.ascontiguousarray(dW.T)  # (steps, paths); free for engine-made dW
    n_steps, n_paths = dW.shape
    grid_n, m_b, m_a = grid_steps(sfde, dt)
    if n_steps != grid_n:
        raise ContractError("dW step count does not match the grid")
    buf = _make_buffer(sfde, dt, n_steps, n_paths, m_b, m_a)
    first_nonpos = np.full(n_paths, -1, dtype=np.int64)
    for n in range(n_steps):
        t = n * dt
        s_n = buf.value(n)
        drift = _drift_values(sfde, buf, n, t, m_b, m_a)
        g_lag = sfde.g.vec(t, buf.lagged(n, m_b))
        s_next = s_n + drift * dt + g_lag * s_n * dW[n]
        if not np.all(np.isfinite(s_next)):
            raise IntegrationFailure(
                f"non-finite state at step {n + 1}", step_index=n + 1
            )
        crossed = (s_next <= 0.0) & (first_nonpos < 0)
        first_nonpos[crossed] = n + 1
        buf.put(n + 1, s_next)
    times = np.arange(n_steps + 1) * dt
    return times, buf.values(), first_nonpos


def split_values_vec(sfde, dt, dW, record_y=False):
    """Splitting scheme on the dt grid; returns (times, values[, y]).

    Advances in blocks of length b.  Within a block the martingale
    increments use the volatility of lagged prices (known from the
    previous block); psi is the stochastic exponential of that
    martingale and y solves the random delay ODE by explicit Euler.
    """
    dW = np.ascontiguousarray(dW.T)  # (steps, paths); free for engine-made dW
    n_steps, n_paths = dW.shape
    grid_n, m_b, m_a = grid_steps(sfde, dt)
    if n_steps != grid_n:
        raise ContractError("dW step count does not match the grid")
    buf = _make_buffer(sfde, dt, n_steps, n_paths, m_b, m_a)
    state = SplitState(
        psi=np.ones(n_paths),
        y=buf.value(0).copy(),
        m_acc=np.zeros(n_paths),
        qv=np.zeros(n_paths),
    )
    y_hist = np.empty((n_steps + 1, n_paths)) if record_y else None
    if record_y:
        y_hist[0] = state.y
    for n in range(n_steps):
        t = n * dt
        if n % m_b == 0 and n > 0:
            # new block: restart the exponential at the current price
            state.psi.fill(1.0)
            state.m_acc.fill(0.0)
            state.qv.fill(0.0)
            state.y = buf.value(n).copy()
        fval = _drift_values(sfde, buf, n, t, m_b, m_a)
        state.y = state.y + dt * fval / state.psi
        g_lag = sfde.g.vec(t, buf.lagged(n, m_b))
        state.m_acc = state.m_acc + g_lag * dW[n]
        state.qv = state.qv + g_lag * g_lag * dt
        state.psi = np.exp(state.m_acc - 0.5 * state.qv)
        s_next = state.psi * state.y
        if not np.all(np.isfinite(s_next)):
            raise IntegrationFailure(
                f"non-finite state at step {n + 1}", step_index=n + 1
            )
        buf.put(n + 1, s_next)
        if record_y:
            y_hist[n + 1] = state.y
    times = np.arange(n_steps + 1) * dt
    if record_y:
        return times, buf.values(), y_hist.T
    return times, buf.values()


def simulate_em_fixed(sfde, dt, spec):
    """Euler--Maruyama path of one stream, recorded at every grid node."""
    n_steps, _, _ = grid_steps(sfde, dt)
    dW = brownian_increments(spec.seed, spec.stream_id, spec.stream_id + 1, n_steps, dt)
    times, values, first_nonpos = em_values_vec(sfde, dt, dW)
    fnp = int(first_nonpos[0]) if first_nonpos[0] >= 0 else None
    return Path(times, values[0], "P", spec, first_nonpositive_step=fnp)


def simulate_split_fixed(sfde, dt, spec):
    """Splitting-scheme path of one stream, recorded at every grid node."""
    n_steps, _, _ = grid_steps(sfde, dt)
    dW = brownian_increments(spec.seed, spec.stream_id, spec.stream_id + 1, n_steps, dt)
    times, values = split_values_vec(sfde, dt, dW)
    return Path(times, values[0], "P", spec)


def _pairwise_sum(x):
    """Sum of x over axis 1 in numpy's pairwise order for a contiguous row.

    Coarse increments summed over the time axis of time-major blocks
    then carry the same bits as ``row.sum()`` over each path's
    contiguous run of fine increments: fewer than 8 terms are added in
    order, up to 128 in 8 interleaved partial sums, and longer runs are
    split in halves rounded to a multiple of 8.
    """
    k = x.shape[1]
    if k > 128:
        half = k // 2 - (k // 2) % 8
        return _pairwise_sum(x[:, :half]) + _pairwise_sum(x[:, half:])
    if k < 8:
        out = x[:, 0].copy()
        for i in range(1, k):
            out += x[:, i]
        return out
    r = x[:, :8].copy()
    tail = k - k % 8
    for i in range(8, tail, 8):
        r += x[:, i : i + 8]
    out = (r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])
    out += (r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7])
    for i in range(tail, k):
        out += x[:, i]
    return out


def fixed_delay_convergence(sfde, steps_list, n_paths, seed, chunk=16384):
    """Compare the two fixed-delay schemes on shared Brownian paths.

    Increments are generated on the finest grid and aggregated for the
    coarser ones, so every resolution sees the same Brownian path.
    Returns one dict per step count with the RMS terminal gap between
    schemes and the paired statistics of the terminal difference.
    """
    if n_paths < 1:
        raise ContractError(f"need at least one path, got {n_paths}")
    steps_list = sorted(steps_list)
    if not steps_list or steps_list[0] < 1:
        raise ContractError(f"step counts must be positive, got {steps_list}")
    finest = steps_list[-1]
    for steps in steps_list:
        if finest % steps != 0:
            raise ContractError("step counts must divide the finest resolution")
    acc = {
        s: {"gap_sq": 0.0, "diff": 0.0, "em": 0.0, "sp": 0.0}
        for s in steps_list
    }
    dt_f = sfde.T / finest
    for lo in range(0, n_paths, chunk):
        hi = min(lo + chunk, n_paths)
        dW_f = brownian_increments(seed, lo, hi, finest, dt_f)
        for steps in steps_list:
            factor = finest // steps
            dW = dW_f if factor == 1 else _pairwise_sum(
                dW_f.T.reshape(steps, factor, hi - lo)
            ).T
            dt = sfde.T / steps
            # copy the terminal rows so each buffer is freed before the next
            em_T = em_values_vec(sfde, dt, dW)[1][:, -1].copy()
            sp_T = split_values_vec(sfde, dt, dW)[1][:, -1].copy()
            gap = em_T - sp_T
            a = acc[steps]
            a["gap_sq"] += float((gap * gap).sum())
            a["diff"] += float(gap.sum())
            a["em"] += float(em_T.sum())
            a["sp"] += float(sp_T.sum())
    results = []
    for steps in steps_list:
        a = acc[steps]
        mean_diff = a["diff"] / n_paths
        var_diff = max(a["gap_sq"] / n_paths - mean_diff**2, 0.0)
        results.append(
            {
                "steps": steps,
                "dt": sfde.T / steps,
                "rms_gap": math.sqrt(a["gap_sq"] / n_paths),
                "mean_diff": mean_diff,
                "se_diff": math.sqrt(var_diff / n_paths),
                "mean_em": a["em"] / n_paths,
                "mean_split": a["sp"] / n_paths,
            }
        )
    return results
