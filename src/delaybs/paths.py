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

Engines are vectorized across stream ids.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng
from .errors import ContractError, IntegrationFailure, NumericalError
from .model import MAX_TIME_STEPS, block_index, is_positive
from .parallel import map_chunks, merge_moments, moments
from .quadrature import DEFAULT_N, block_integrals_vec


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


# ---------------------------------------------------------------------------
# Exact block sampler for the variable-delay market
# ---------------------------------------------------------------------------


def _knots(market, t_start, t_end, sample_times):
    """Sorted union of block boundaries and requested sample times."""
    tol = 1e-12 * max(market.T, 1.0)
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
    return out


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
    merged = _knots(market, t_start, max(sample_times), sample_times)
    out = np.empty((n, len(sample_times)))
    tol = 1e-12 * max(market.T, 1.0)

    prev = t_start
    k_cur = block_index(t_start, market.h)
    substep = 0
    out_col = 0
    for t, wanted in merged:
        k = block_index(prev, market.h)
        if k != k_cur:
            k_cur = k
            substep = 0
        # refresh the frozen block state at each boundary
        if abs(prev - k * market.h) <= tol and prev > t_start + tol:
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
    if lag / dt > MAX_TIME_STEPS:
        raise ContractError(
            f"dt={dt} gives more than {MAX_TIME_STEPS} steps to the {name} lag {lag}"
        )
    m = round(lag / dt)
    if m < 1 or abs(m * dt - lag) > 1e-9 * max(lag, 1.0):
        raise ContractError(f"dt={dt} must divide the {name} lag {lag}")
    return m


def grid_steps(sfde, dt):
    """Steps (to T, of the diffusion lag b, of the drift lag a) on the dt grid.

    Raises :class:`ContractError` unless dt is positive, divides the
    horizon and the lags and gives at most ``MAX_TIME_STEPS`` steps to
    each.
    """
    if not is_positive(dt):
        raise ContractError(f"dt must be positive, got {dt}")
    if sfde.T / dt > MAX_TIME_STEPS:
        raise ContractError(
            f"dt={dt} gives more than {MAX_TIME_STEPS} steps to the horizon {sfde.T}"
        )
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
    if sfde.L / dt > MAX_TIME_STEPS:
        raise ContractError(
            f"dt={dt} gives more than {MAX_TIME_STEPS} history steps over L={sfde.L}"
        )
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
    # A state that overflows fails the finite check below; numpy need
    # not also warn about it.
    with np.errstate(all="ignore"):
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
    psi = np.ones(n_paths)
    y = buf.value(0)
    m_acc = np.zeros(n_paths)
    qv = np.zeros(n_paths)
    y_hist = np.empty((n_steps + 1, n_paths)) if record_y else None
    if record_y:
        y_hist[0] = y
    # As in em_values_vec, the finite check reports an overflow.
    with np.errstate(all="ignore"):
        for n in range(n_steps):
            t = n * dt
            if n % m_b == 0 and n > 0:
                # new block: restart the exponential at the current price
                psi.fill(1.0)
                m_acc.fill(0.0)
                qv.fill(0.0)
                y = buf.value(n)
            fval = _drift_values(sfde, buf, n, t, m_b, m_a)
            y = y + dt * fval / psi
            g_lag = sfde.g.vec(t, buf.lagged(n, m_b))
            m_acc = m_acc + g_lag * dW[n]
            qv = qv + g_lag * g_lag * dt
            psi = np.exp(m_acc - 0.5 * qv)
            s_next = psi * y
            if not np.all(np.isfinite(s_next)):
                raise IntegrationFailure(
                    f"non-finite state at step {n + 1}", step_index=n + 1
                )
            buf.put(n + 1, s_next)
            if record_y:
                y_hist[n + 1] = y
    times = np.arange(n_steps + 1) * dt
    if record_y:
        return times, buf.values(), y_hist.T
    return times, buf.values()


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


# Paths per convergence chunk.  A chunk holds the finest increments and
# one em/split buffer at a time, so its memory grows with the finest
# step count; 16,384 paths keep 512 steps near 240 MB.
CONVERGENCE_CHUNK = 16384


def fixed_delay_convergence(sfde, steps_list, n_paths, seed, workers=1):
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
    if steps_list[-1] > MAX_TIME_STEPS:
        raise ContractError(f"step counts must be at most {MAX_TIME_STEPS}, got {steps_list}")
    finest = steps_list[-1]
    for steps in steps_list:
        if finest % steps != 0:
            raise ContractError("step counts must divide the finest resolution")
    dt_f = sfde.T / finest

    def chunk(lo, hi):
        """(sum of gap^2, gap moments, sum of em, sum of split) per step count."""
        dW_f = brownian_increments(seed, lo, hi, finest, dt_f)
        out = []
        for steps in steps_list:
            factor = finest // steps
            dW = dW_f if factor == 1 else _pairwise_sum(
                dW_f.T.reshape(steps, factor, hi - lo)
            ).T
            dt = sfde.T / steps
            # copy the terminal rows so each buffer is freed before the next
            em_T = em_values_vec(sfde, dt, dW)[1][:, -1].copy()
            sp_T = split_values_vec(sfde, dt, dW)[1][:, -1].copy()
            with np.errstate(over="ignore", invalid="ignore"):
                gap = em_T - sp_T
                out.append(
                    (float((gap * gap).sum()), moments(gap), float(em_T.sum()), float(sp_T.sum()))
                )
        return out

    per_chunk = map_chunks(chunk, n_paths, workers, CONVERGENCE_CHUNK)
    results = []
    for steps, parts in zip(steps_list, zip(*per_chunk)):
        # An explicit fold in chunk order: sum() compensates from Python 3.12.
        gap_sq = em = sp = 0.0
        for part_gap_sq, _, part_em, part_sp in parts:
            gap_sq += part_gap_sq
            em += part_em
            sp += part_sp
        _, diff, m2 = merge_moments([gap for _, gap, _, _ in parts])
        results.append(
            {
                "steps": steps,
                "dt": sfde.T / steps,
                "rms_gap": math.sqrt(gap_sq / n_paths),
                "mean_diff": diff / n_paths,
                "se_diff": math.sqrt(m2 / n_paths / n_paths),
                "mean_em": em / n_paths,
                "mean_split": sp / n_paths,
            }
        )
        if not all(map(math.isfinite, results[-1].values())):
            raise NumericalError(f"non-finite convergence statistics: {results[-1]}")
    return results
