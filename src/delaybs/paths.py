"""Trajectory generation.

Three schemes:

* the exact block sampler for the variable-delay market (coefficients are
  frozen per block, so each block's log-increment is Gaussian and can be
  drawn without discretization error, under P jointly with the Girsanov
  density);
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
from .model import MAX_TIME_STEPS, block_index, is_positive, time_tolerance
from .parallel import reduce_moments
from .quadrature import block_integrals_vec


class SegmentBuffer:
    """Delay window of one or more paths on a uniform dt grid.

    A ring of ``n_hist + 2`` rows, one row per grid time holding all
    paths, so each step reads and writes contiguous rows.  Step ``n``
    reads the rows of times ``(n - n_hist) * dt`` to ``n * dt``, and a
    moving-average window as long as the history also drops the row
    before them from its running sum; step ``n`` then writes row
    ``n + 1`` into that dropped row's slot.  The running sum starts from
    the history rows at step 0 and every later step adds the new row and
    subtracts the row that left the window.
    """

    def __init__(self, phi, dt, n_paths, n_hist):
        self.n_hist = n_hist
        self.data = np.empty((n_hist + 2, n_paths))
        hist_times = (np.arange(-n_hist, 1)) * dt
        self.data[: n_hist + 1] = np.array([phi(t) for t in hist_times])[:, None]
        self._window_sum = None
        self._window_step = -1

    def value(self, step):
        return self.data[(self.n_hist + step) % len(self.data)]

    def window_mean(self, step, lag_steps):
        """Mean over rows step - lag_steps .. step; call once per step from 0."""
        if step == 0:
            r = self.n_hist
            self._window_sum = self.data[r - lag_steps : r + 1].sum(axis=0)
        elif step == self._window_step + 1:
            self._window_sum += self.value(step)
            self._window_sum -= self.value(step - lag_steps - 1)
        else:
            raise ContractError(f"window step {step} follows {self._window_step}")
        self._window_step = step
        return self._window_sum / (lag_steps + 1)

    def put(self, step, values):
        self.value(step)[:] = values


# ---------------------------------------------------------------------------
# Exact block sampler for the variable-delay market
# ---------------------------------------------------------------------------


# Relative tolerance below which the residual variance of the density
# increment given the price increment is treated as exactly zero.
DEGENERATE_TOL = 1e-12


def _joint_increments(g2, f_int, lam_int, theta_sq, z1, draw_z2):
    """Correlated (I1, I2) from independent standard normals z1 and
    z2 = draw_z2().

    I1 ~ N(0, g2), I2 ~ N(0, theta_sq), Cov(I1, I2) = f_int - lam_int.
    Degenerate residual variance collapses to perfect correlation, which
    is exact whenever theta is proportional to g within the block; z2 is
    drawn only if some lane keeps a residual variance.
    """
    c = f_int - lam_int
    i1 = np.sqrt(g2) * z1
    # theta_sq == 0 means no drift mismatch; any nonzero c there is
    # quadrature roundoff, tolerated up to the same relative budget.
    zero = theta_sq <= 1e-24
    # A variance that underflowed to 0 leaves no room for a covariance:
    # such a lane must have c == 0, and it divides by 1 instead of 0.
    flat = g2 == 0.0
    g2 = np.where(flat, 1.0, g2)
    with np.errstate(over="ignore"):  # a subnormal g2 overflows; such a lane is bad
        cross = c * c / g2
    bad = (flat & (c != 0.0)) | np.isinf(theta_sq) | np.where(
        zero,
        cross > DEGENERATE_TOL * np.maximum(g2, 1.0),
        cross > (1.0 + 1e-9) * np.maximum(theta_sq, 1e-300),
    )
    if np.any(bad):
        raise NumericalError(
            "block covariance is not finite and positive semidefinite; "
            "quadrature of v, c, theta_sq is inconsistent or overflows"
        )
    resid = np.maximum(theta_sq - cross, 0.0)
    resid = np.where(resid <= DEGENERATE_TOL * theta_sq, 0.0, resid)
    i2 = c / np.sqrt(g2) * z1
    if resid.any():
        i2 += np.sqrt(resid) * draw_z2()
    return i1, np.where(zero, 0.0, i2)


def _knots(market, t_start, sample_times):
    """(time, wanted, edge) triples: the block edges k*h after t_start, as
    in ``block_schedule``, merged with the sample times up to the last
    one; ``edge`` marks the knots that end a block.

    Sample times must increase from t_start up to the maturity T; one
    within tol of an edge replaces the edge.
    """
    h = market.h
    tol = time_tolerance(market.T)
    out = []
    prev = t_start
    k = block_index(t_start, h) + 1
    for t in sample_times:
        if t <= prev or t > market.T + tol:
            raise ContractError(
                f"sample time {t} outside ({prev}, {market.T}]: sample times "
                "must increase from t_start and end by the maturity"
            )
        while k * h < t - tol:
            out.append((k * h, False, True))
            k += 1
        edge = k * h <= t + tol
        if edge:
            k += 1
        out.append((t, True, edge))
        prev = t
    return out


def twin_variances(market, t_start, s_block, sample_times):
    """The Black-Scholes twin's variance over each knot :func:`exact_steps`
    steps through: the integral of g(u, s_block)^2, with the coefficients
    frozen once at the valuation-time block price ``s_block``."""
    out, prev = [], t_start
    for t, _, _ in _knots(market, t_start, sample_times):
        out.append(float(block_integrals_vec(market, s_block, prev, t)[0]))
        prev = t
    return out


def exact_steps(
    market,
    measure,
    seed,
    lo,
    hi,
    t_start,
    s_start,
    s_block,
    sample_times,
    density=False,
    twin=None,
):
    """Exact-scheme prices at each of sample_times for stream ids lo..hi-1.

    A generator: it yields a fresh price array at each sample time, or
    with ``density`` a (prices, log_rho) pair.  The sampler reads the
    yielded prices again to take its next step, so a caller may write to
    them only once it draws no further step.  ``s_start`` is the price
    at ``t_start`` and ``s_block`` the price at the start of the block
    containing ``t_start``, both scalars; the block price stays a scalar,
    and so do its block integrals, until the first block edge.  One
    Gaussian substream is consumed per (block, substep), where substep
    counts the sub-intervals visited inside each block.

    ``density`` (under P only) adds log_rho, the log of the Girsanov
    density dQ/dP.  The change of measure removes the drift mismatch
    (f - lambda) from the price dynamics.  Its log-density is driven by
    the same Brownian increments as the price, so the two are sampled
    jointly per block as a bivariate Gaussian: I1 = integral of g dW
    (price), I2 = integral of theta dW (density), with covariance
    integral of g*theta = f - lambda.  I2's normal is substream 1, so the
    density needs whole blocks: a sample time inside a block, other than
    the last, raises :class:`ContractError`.  Within a block theta is
    evaluated from the frozen block-start price only, which is what makes
    the density increment measurable at the block start.

    ``twin``, the knot variances from :func:`twin_variances`, appends to
    each yield the log-growth log(S~/s_start) of the Black-Scholes twin:
    the same normals z with g frozen once at ``s_block``, so each knot
    adds sqrt(v~) z to W~ and S~ = s_start exp(Lambda - V~/2 + W~), Lambda
    being the riskless rate integral under either measure.  Then comes the
    twin's discrete Ito sum I = sum_k W~_{k-1} sqrt(v~_k) z_k, W~ taken
    before the knot's own increment and without the drift.
    """
    if density and measure != "P":
        raise ContractError(f"the density is sampled under P, not {measure}")
    s, sb = float(s_start), float(s_block)
    log_rho = 0.0
    if twin is not None:
        twin_v = iter(twin)
        w, ito, twin_drift = 0.0, 0.0, 0.0
    prev = t_start
    k = block_index(t_start, market.h)
    substep = 0
    for t, wanted, edge in _knots(market, t_start, sample_times):
        if density and substep:
            raise ContractError(f"the density needs whole blocks; {prev} is inside block {k}")
        g2, f_int, lam_int, *theta_sq = block_integrals_vec(
            market, sb, prev, t, with_f=measure != "Q", with_theta=density
        )
        # z becomes I1, then the growth factor exp(drift - g2/2 + I1)
        z = rng.normals(seed, k, substep, lo, hi)
        if twin is not None:
            v = next(twin_v)
            dw = math.sqrt(v) * z
            ito = ito + w * dw  # W~ before this knot's increment
            w += dw
            twin_drift += lam_int - 0.5 * v
        if density:
            z, i2 = _joint_increments(
                g2, f_int, lam_int, theta_sq[0], z, lambda: rng.normals(seed, k, 1, lo, hi)
            )
            log_rho = log_rho - i2 - 0.5 * theta_sq[0]
        else:
            z *= np.sqrt(g2)
        z += (lam_int if measure == "Q" else f_int) - 0.5 * g2
        # a price that overflows fails its caller's finite check
        with np.errstate(over="ignore"):
            np.exp(z, out=z)
            z *= s
        s = z
        if edge:  # refresh the frozen block state
            k, substep, sb = k + 1, 0, s
        else:
            substep += 1
        if wanted:
            extras = [log_rho] if density else []
            extras += [] if twin is None else [w + twin_drift, ito]
            yield (s, *extras) if extras else s
        prev = t


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
    density=False,
    twin=None,
):
    """Exact-scheme values at sample_times for stream ids lo..hi-1, one
    column per sample time, from :func:`exact_steps`.

    With ``density`` or a ``twin`` the result is a tuple of the values and
    rho, the Girsanov density dQ/dP, or the twin's log-growth and Ito sum,
    or all three, at the last sample time.
    """
    out = np.empty((hi - lo, len(sample_times)))
    steps = exact_steps(
        market, measure, seed, lo, hi, t_start, s_start, s_block, sample_times, density, twin
    )
    tupled = density or twin is not None
    extras = []
    for col, step in enumerate(steps):
        if tupled:
            step, *extras = step
        out[:, col] = step
    if density:
        extras[0] = np.exp(extras[0])
    return (out, *extras) if tupled else out


# ---------------------------------------------------------------------------
# Fixed-delay integrators
# ---------------------------------------------------------------------------


def brownian_increments(seed, lo, hi, n_steps, dt):
    """Brownian increments, one substream per step, for streams lo..hi-1.

    Returns a (paths, steps) view of a time-major array, so the engines
    read each step's increments as one contiguous row.
    """
    return _fill_increments(np.empty((n_steps, hi - lo)), seed, lo, hi, 0, dt).T


def _fill_increments(out, seed, lo, hi, n0, dt):
    """Fill the rows of out with the increments of steps n0, n0 + 1, ..."""
    sq = math.sqrt(dt)
    for j, row in enumerate(out):
        np.multiply(sq, rng.normals(seed, 0, n0 + j, lo, hi), out=row)
    return out


def _steps(dt, name, length):
    if length / dt > MAX_TIME_STEPS:
        raise ContractError(
            f"dt={dt} gives more than {MAX_TIME_STEPS} steps to the {name} {length}"
        )
    m = round(length / dt)
    if m < 1 or abs(m * dt - length) > 1e-9 * max(length, 1.0):
        raise ContractError(f"dt={dt} must divide the {name} {length}")
    return m


def grid_steps(sfde, dt):
    """Steps (to T, of the diffusion lag b, of the drift lag a) on the dt grid.

    Raises :class:`ContractError` unless dt is positive, divides the
    horizon and the lags and gives at most ``MAX_TIME_STEPS`` steps to
    each.
    """
    if not is_positive(dt):
        raise ContractError(f"dt must be positive, got {dt}")
    n_steps = _steps(dt, "horizon", sfde.T)
    m_b = _steps(dt, "diffusion lag", sfde.b)
    m_a = _steps(dt, "drift lag", sfde.a) if sfde.drift.kind != "segment-point" else m_b
    return n_steps, m_b, m_a


class _Stepper:
    """One fixed-delay scheme on the dt grid, advanced one step at a time.

    ``step(dw)`` takes the increments of the next step, one per path, and
    returns the new state.  ``s`` is the state at the current step ``n``,
    a row of the segment buffer that later steps overwrite.  A state
    that is not finite raises :class:`IntegrationFailure`, after which
    the stepper must not be stepped again.
    """

    def __init__(self, sfde, dt, n_paths):
        _, self.m_b, self.m_a = grid_steps(sfde, dt)
        if sfde.L / dt > MAX_TIME_STEPS:
            raise ContractError(
                f"dt={dt} gives more than {MAX_TIME_STEPS} history steps over L={sfde.L}"
            )
        # a, b <= L, so the history rows cover both lags
        n_hist = int(math.ceil(sfde.L / dt - 1e-9))
        self.buf = SegmentBuffer(sfde.phi, dt, n_paths, n_hist)
        self.sfde, self.dt, self.n = sfde, dt, 0

    @property
    def s(self):
        return self.buf.value(self.n)

    def step(self, dw):
        n = self.n
        # A state that overflows fails the finite check below; numpy need
        # not also warn about it.
        with np.errstate(all="ignore"):
            s_next = self._advance(n, n * self.dt, dw)
        if not np.isfinite(s_next).all():
            raise IntegrationFailure(f"non-finite state at step {n + 1}", step_index=n + 1)
        self.buf.put(n + 1, s_next)
        self.n = n + 1
        return s_next

    def _drift(self, n):
        d, buf = self.sfde.drift, self.buf
        s_now = buf.value(n)
        if d.kind == "segment-point":
            return d.c * buf.value(n - self.m_b) + d.eps
        if d.kind == "proportional-lagged":
            lag = buf.value(n - self.m_a)
            return d.c * lag / (1.0 + lag) * s_now
        return d.c * buf.window_mean(n, self.m_a) * s_now

    def _g_lag(self, n, t):
        return self.sfde.g.vec(t, self.buf.value(n - self.m_b))


class EmStepper(_Stepper):
    """Euler--Maruyama.

    The scheme is not positivity preserving: values may cross zero for
    coarse dt.  ``first_nonpos`` holds the first crossing step per path
    (-1 where none) and the integration continues with the values as-is.
    """

    def __init__(self, sfde, dt, n_paths):
        super().__init__(sfde, dt, n_paths)
        self.first_nonpos = np.full(n_paths, -1, dtype=np.int64)

    def _advance(self, n, t, dw):
        s_n = self.buf.value(n)
        s_next = s_n + self._drift(n) * self.dt + self._g_lag(n, t) * s_n * dw
        crossed = (s_next <= 0.0) & (self.first_nonpos < 0)
        self.first_nonpos[crossed] = n + 1
        return s_next


class SplitStepper(_Stepper):
    """Splitting scheme.

    Advances in blocks of length b.  Within a block the martingale
    increments use the volatility of lagged prices (known from the
    previous block); psi is the stochastic exponential of that
    martingale and ``y`` solves the random delay ODE by explicit Euler.
    Each block restarts psi, its martingale and its quadratic variation
    as the scalars 1, 0 and 0, and y at the block-start price.
    """

    def _advance(self, n, t, dw):
        if n % self.m_b == 0:
            self.psi, self.m_acc, self.qv, self.y = 1.0, 0.0, 0.0, self.buf.value(n)
        self.y = self.y + self.dt * self._drift(n) / self.psi
        g_lag = self._g_lag(n, t)
        self.m_acc = self.m_acc + g_lag * dw
        self.qv = self.qv + g_lag * g_lag * self.dt
        self.psi = np.exp(self.m_acc - 0.5 * self.qv)
        return self.psi * self.y


def _collect(stepper, sfde, dt, dW):
    """(times, values, stepper) of one scheme over caller-made increments.

    values is the (paths, steps + 1) view of a time-major array that
    holds the state at every grid time.
    """
    dW = np.ascontiguousarray(dW.T)  # (steps, paths); free for engine-made dW
    n_steps, n_paths = dW.shape
    if n_steps != grid_steps(sfde, dt)[0]:
        raise ContractError("dW step count does not match the grid")
    stepper = stepper(sfde, dt, n_paths)
    out = np.empty((n_steps + 1, n_paths))
    out[0] = stepper.s
    for n, dw in enumerate(dW):
        out[n + 1] = stepper.step(dw)
    return np.arange(n_steps + 1) * dt, out.T, stepper


def em_values_vec(sfde, dt, dW):
    """Euler--Maruyama on the dt grid; returns (times, values, first_nonpos).

    See :class:`EmStepper`.
    """
    times, values, em = _collect(EmStepper, sfde, dt, dW)
    return times, values, em.first_nonpos


def split_values_vec(sfde, dt, dW):
    """Splitting scheme on the dt grid; returns (times, values).

    See :class:`SplitStepper`.
    """
    return _collect(SplitStepper, sfde, dt, dW)[:2]


# Paths per convergence chunk.  A chunk holds the segment buffers of
# every scheme and step count at once, each about L/dt rows, so its
# memory grows with the sum of L/dt over the step counts: at L = 0.25
# and 128, 256 and 512 steps, 16,384 paths allocate at most 63 MB.
CONVERGENCE_CHUNK = 16384


def fixed_delay_convergence(sfde, steps_list, n_paths, seed, workers=1):
    """Compare the two fixed-delay schemes on shared Brownian paths.

    Increments are generated on the finest grid and aggregated for the
    coarser ones, so every resolution sees the same Brownian path.  They
    are drawn one slab at a time, a slab being the fewest fine steps that
    hold a whole number of steps of every resolution, and every scheme
    at every resolution advances through each slab before the next is
    drawn.  A failure is raised as if the step counts ran one after
    another, smallest first and EM before splitting.
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
    rng.check_seed(seed)
    dt_f = sfde.T / finest
    slab = math.lcm(*(finest // steps for steps in steps_list))

    def chunk(lo, hi):
        """Yield gap, gap^2, em and split terminal values per step count."""
        steppers, failure = [], None
        try:
            for steps in steps_list:
                for stepper in (EmStepper, SplitStepper):
                    steppers.append((stepper(sfde, sfde.T / steps, hi - lo), finest // steps))
        except ContractError as exc:
            failure = exc
        # in the order of a run that takes the step counts one at a time; a
        # failure drops the steppers after it, which that run never reaches
        live = list(steppers)
        fine = np.empty((slab, hi - lo))
        for n0 in range(0, finest, slab):
            if not live:
                break
            _fill_increments(fine, seed, lo, hi, n0, dt_f)
            coarse = {
                f: fine if f == 1 else fine.reshape(slab // f, f, hi - lo).sum(axis=1)
                for f in {f for _, f in live}
            }
            for i, (stepper, f) in enumerate(live):
                try:
                    for dw in coarse[f]:
                        stepper.step(dw)
                except IntegrationFailure as exc:
                    failure, live = exc, live[:i]
                    break
        if failure is not None:
            raise failure
        for (em, _), (sp, _) in zip(steppers[::2], steppers[1::2]):
            with np.errstate(over="ignore", invalid="ignore"):
                gap = em.s - sp.s
                gap_sq = gap * gap
            yield from ((gap,), (gap_sq,), (em.s,), (sp.s,))

    merged = reduce_moments(chunk, n_paths, workers, CONVERGENCE_CHUNK)
    results = []
    for i, steps in enumerate(steps_list):
        (_, (diff,), (m2,)), (_, (gap_sq,), _), (_, (em,), _), (_, (sp,), _) = merged[
            4 * i : 4 * i + 4
        ]
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
