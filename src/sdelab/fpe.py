"""Forward PDE solvers and monitors.

1-D Fokker-Planck: du/dt + d/dx(F u) = d^2/dx^2(a u), discretised by a
conservative finite-volume scheme (upwind advection, flux-form diffusion).
Kinetic phase-space equation on a 2-D (x, v) grid with transport in both
coordinates and diffusion in v only, solved by dimensional splitting.

One description of the operator, its interface fluxes (``_fv_fluxes``),
which give the bands of the finite-volume generator A (``_fv_bands``), and
one step loop, ``_march``. ``_euler_step`` steps du/dt = A u forward, as the
fluxes' flow across each interface, under the CFL cap min(h/(2 sup|speed|),
h^2/(4 sup a)) by default, or backward with ``implicit=True`` (I - dt A
factored once, one line of it when every line has the same bands; an
M-matrix, as A has nonnegative off-diagonals and zero column sums, so
positivity and mass hold for any dt, and the default step is 0.9 times the
transport cap h/(2 sup|speed|)). The kinetic split step is three: explicit
transport sweeps in x and v (a = 0), then the v-diffusion.

Both solvers return a ``Law`` whose ``scheme`` records the numerics. Monitors:
pointwise stationary bound, energy inequality for int u^alpha between
recorded stamps, discrete maximum principle, density/law distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import CoefficientField, Grid
from .laws import Law, _check_horizon, _user_steps
from .report import Report, Serialisable

__all__ = [
    "EnergyReport",
    "cfl_cap_1d",
    "cfl_cap_kinetic",
    "plan_steps",
    "solve_fp_1d",
    "stationary_bound_check",
    "energy_monitor",
    "solve_kinetic",
    "max_principle_check",
    "law_compare",
]

@dataclass(frozen=True)
class EnergyReport(Serialisable):
    """Audit of the discrete inequality
    (int u^alpha)_{k+1} <= (int u^alpha)_k * (1 + (t_{k+1} - t_k) * rate)
    between consecutive recorded stamps t_k, not between solver steps: a
    stamp gap may span several steps, so the recording cadence decides what
    is checked."""

    alphas: tuple
    theta: float
    times: np.ndarray             # (nt,)
    values: np.ndarray            # (n_alpha, nt)
    budgets: np.ndarray           # (n_alpha, nt-1) right sides per gap
    grad_a_lp: np.ndarray         # (nt,) ||grad a(t_k)||_{L^p}
    violations: int
    constant: float               # the frozen C''
    passed: bool                  # no violations

    def table(self):
        """(header, rows): one row (t_{k+1}, alpha, lhs, budget) per gap."""
        return ["t", "alpha", "lhs", "budget"], [
            (self.times[k + 1], alpha, self.values[i, k + 1],
             self.budgets[i, k])
            for i, alpha in enumerate(self.alphas)
            for k in range(self.times.size - 1)]


def _check_box(grid: Grid, solver: str) -> None:
    """The fluxes put zero-flux walls at the box edge: no axis may wrap."""
    if any(grid.periodic):
        raise ValueError(f"{solver} expects a non-periodic box")


# -- 1-D Fokker-Planck ------------------------------------------------------

def _coeffs_1d(field: CoefficientField):
    if field.grid.d != 1:
        raise ValueError("solve_fp_1d needs a one-dimensional field")
    _check_box(field.grid, "solve_fp_1d")
    return field.drift[:, 0], field.a[:, 0, 0]


def _caps(speeds, hs, a: np.ndarray, h: float):
    """(transport, diffusive) explicit step caps, inf where a term is absent:
    min over axes of h/(2 sup|speed|), and h^2/(4 sup a)."""
    transport = min((hi / (2.0 * np.abs(s).max())
                     for s, hi in zip(speeds, hs) if np.abs(s).max() > 0),
                    default=np.inf)
    diffusive = h * h / (4.0 * a.max()) if a.max() > 0 else np.inf
    if transport == diffusive == np.inf:
        raise ValueError("field has zero transport and zero diffusion")
    return float(transport), float(diffusive)


def _caps_1d(field: CoefficientField):
    F, a = _coeffs_1d(field)
    h = field.grid.h[0]
    return _caps([F], [h], a, h)


def cfl_cap_1d(field: CoefficientField) -> float:
    """Largest stable explicit step: min(h/(2 sup|F|), h^2/(4 sup a))."""
    return min(_caps_1d(field))


def _project_initial(grid: Grid, u0) -> np.ndarray:
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != grid.shape:
        raise ValueError(f"initial density shape {u0.shape} != {grid.shape}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial density must be finite")
    if u0.min() < 0:
        raise ValueError("initial density must be nonnegative")
    mass = grid.cell_volume * u0.sum()
    if mass <= 0:
        raise ValueError("initial density has zero mass")
    return u0 / mass


def plan_steps(field: CoefficientField, T: float, dt: float | None = None,
               implicit: bool = False):
    """(steps, dt, cap) of a forward solve over [0, T]; ``cap`` is the
    explicit CFL cap. A 1-D field gets the ``solve_fp_1d`` rule, a 2-D one
    the ``solve_kinetic`` rule.

    Explicit: a user dt must not exceed ``cap``; the default is 0.9 cap,
    rounded down to divide T. Implicit: the default is 0.9 times the
    transport cap (200 equal steps in 1-D, 50 kinetic, without transport);
    a user dt is limited only by the transport cap of the kinetic sweeps,
    which stay explicit. A user dt must divide T, and T must be positive.
    """
    _check_horizon(T)
    if field.grid.d == 1:
        (transport, diffusive), fallback = _caps_1d(field), 200
        limit = np.inf
    else:
        (transport, diffusive), fallback = _caps_kinetic(field), 50
        limit = transport
    cap = min(transport, diffusive)
    target, limit = (transport, limit) if implicit else (cap, cap)
    if dt is None:
        steps = (max(1, int(np.ceil(T / (0.9 * target))))
                 if np.isfinite(target) else fallback)
        return steps, T / steps, cap
    return _user_steps(T, dt, limit), dt, cap


def _fv_fluxes(F, a, h: float):
    """(right, left) along the last axis: the flux from node i to node i+1
    is phi_i = right_i u_i + left_i u_{i+1}, du_i/dt = (phi_{i-1} - phi_i)/h
    with zero flux through the boundary; ``F`` (node speeds, F_half on the
    interfaces) and ``a`` broadcast to each other. Upwind: right =
    max(F_half, 0) + a_i/h, left = min(F_half, 0) - a_{i+1}/h, advection
    plus the flux -(a u)'/h of d^2/dx^2(a u)."""
    F, a = np.broadcast_arrays(np.asarray(F, float), np.asarray(a, float))
    F_half = 0.5 * (F[..., :-1] + F[..., 1:])
    # in place, so the fluxes keep F's memory order
    right, left = np.maximum(F_half, 0.0), np.minimum(F_half, 0.0)
    right += a[..., :-1] / h
    left -= a[..., 1:] / h
    return right, left


def _fv_bands(F, a, h: float):
    """Bands of the generator A of the upwind ``_fv_fluxes``, du/dt = A u:
    (A u)_i = lower_i u_{i-1} + diag_i u_i + upper_i u_{i+1}, shape (..., n).
    Off-diagonals are nonnegative (lower_0 = upper_{n-1} = 0); the diagonal
    is minus its column's off-diagonal sum."""
    right, left = _fv_fluxes(F, a, h)
    # A[i+1, i], out of node i rightward; A[i, i+1], out of node i+1 leftward
    right, left = right / h, -left / h
    zero = np.zeros(right.shape[:-1] + (1,))
    diag = -(np.concatenate([zero, left], axis=-1)
             + np.concatenate([right, zero], axis=-1))
    return (np.concatenate([zero, right], axis=-1), diag,
            np.concatenate([left, zero], axis=-1))


def _tridiagonal_csc(lower, diag, upper, dt=None):
    """``_fv_bands`` as one CSC matrix, block-tridiagonal over the lines in C
    order and acting on ``u.reshape(-1)``: A, or I - dt A given ``dt``
    (diagonal 1 - dt diag, off-diagonals -(dt x)). Exact zeros are left out,
    so the arrays are scipy's for ``diags_array`` and ``eye_array - dt A``."""
    from scipy import sparse
    n = diag.size
    # column j: rows j-1, j, j+1 hold upper_{j-1}, diag_j, lower_{j+1}
    vals = np.zeros((n, 3))
    vals[1:, 0] = upper.reshape(-1)[:-1]
    vals[:, 1] = diag.reshape(-1)
    vals[:-1, 2] = lower.reshape(-1)[1:]
    if dt is not None:
        vals *= -dt
        vals[:, 1] += 1.0
    keep = vals != 0.0
    index = np.int32 if 3 * n <= np.iinfo(np.int32).max else np.int64
    rows = np.arange(-1, n - 1, dtype=index)[:, None] + np.arange(3, dtype=index)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sparse.csc_array((vals[keep], rows[keep], indptr), shape=(n, n))


def _euler_step(F, a, h: float, dt: float, implicit: bool):
    """One Euler step u -> v of du/dt = A u (``_fv_fluxes``) along the last
    axis of u. Forward: the flow dt/h phi_i leaves node i and enters node
    i+1, v in u's memory order (a step of a transposed view copies nothing
    across). Backward: solve (I - dt A) v = u, I - dt A factored once. When
    every line's three bands equal the first line's (exact ``==``, as for
    the kinetic v-diffusion of a constant a_vv), only that line is factored
    and each step solves all lines as the columns of one right-hand side;
    otherwise the block-diagonal matrix over all lines is factored and
    solved as one column. Both give the block solve's bits."""
    if implicit:
        from scipy.sparse import linalg as splinalg
        bands = np.stack(_fv_bands(F, a, h))
        bands = bands.reshape(3, -1, bands.shape[-1])  # (band, line, node)
        if (bands == bands[:, :1]).all():
            bands = bands[:, :1]
        m = bands[0].size  # nodes of the factored system
        # one-column panels: on a tridiagonal matrix every update is one
        # scalar segment either way, so the factor is the same to the bit,
        # without the panel search that is half a 129^2-node block factor
        lu = splinalg.splu(_tridiagonal_csc(*bands, dt),
                           permc_spec="NATURAL", panel_size=1)
        # the transposed view is Fortran-ordered: the solve copies nothing
        return lambda u: lu.solve(u.reshape(-1, m).T).T.reshape(u.shape)
    right, left = _fv_fluxes(F, a, h)

    def forward(u):
        flow = dt / h * (right * u[..., :-1] + left * u[..., 1:])
        v = u.copy(order="K")
        v[..., :-1] -= flow
        v[..., 1:] += flow
        return v
    return forward


def _march(grid: Grid, u: np.ndarray, step, steps: int, dt: float,
           record_every: int, **scheme) -> Law:
    """Take ``steps`` steps u -> step(u), clamping each result at zero, and
    record u at 0, every ``record_every`` steps and at the end. The ``Law``
    carries ``scheme`` after dt and steps, then dt_over_cap and mass_drift.
    Each recorded u is copied once, into its row of the law's density."""
    _check_horizon(record_every=record_every)
    recorded = [*range(0, steps + 1, record_every)]
    if recorded[-1] != steps:
        recorded.append(steps)
    density = np.empty((len(recorded),) + u.shape, dtype=u.dtype)
    density[0], row = u, 1
    for k in range(1, steps + 1):
        u = step(u)
        np.maximum(u, 0.0, out=u)
        if k % record_every == 0 or k == steps:
            density[row], row = u, row + 1
    return Law(grid, np.array([k * dt for k in recorded]), density, dict(
        dt=float(dt), steps=steps, **scheme, dt_over_cap=float(dt) / scheme["cap"],
        mass_drift=float(grid.cell_volume * (density[-1].sum() - density[0].sum()))))


def solve_fp_1d(field: CoefficientField, u0, T: float, dt: float | None = None,
                record_every: int | None = None,
                implicit: bool = False) -> Law:
    """Conservative finite-volume solve of the 1-D forward equation.

    Advection d/dx(F u) uses upwind interface fluxes; the diffusion term
    d^2/dx^2(a u) is differenced as a flux of d/dx(a u), so total mass
    telescopes exactly (zero flux through the boundary). ``_march`` over
    ``_euler_step``: forward under ``cfl_cap_1d`` by default, backward with
    ``implicit=True`` (``plan_steps``); about 200 steps are recorded.
    """
    grid = field.grid
    F, a = _coeffs_1d(field)
    u = _project_initial(grid, u0)
    steps, dt, cap = plan_steps(field, T, dt, implicit)
    return _march(
        grid, u, _euler_step(F, a, grid.h[0], dt, implicit), steps, dt,
        max(1, steps // 200) if record_every is None else record_every,
        flux="upwind", method="fv_implicit_1d" if implicit else "fv_explicit_1d",
        implicit=implicit, cap=cap)


def stationary_bound_check(field: CoefficientField,
                           evolution: Law, C: float,
                           rtol: float = 1e-6) -> Report:
    """Pointwise bound u(t,x) <= C/a(x) * exp(int_0^x F/a) at every stamp.

    The initial slice must comply; later slices are checked against the same
    envelope with a small relative slack for the scheme.
    """
    F, a = _coeffs_1d(field)
    if a.min() <= 0:
        raise ValueError("the bound needs a > 0 on the whole grid")
    x = field.grid.nodes(0)
    # cumulative trapezoid of F/a (scipy's cumulative_trapezoid, same order)
    r = F / a
    I = np.concatenate([[0.0], np.cumsum(np.diff(x) * (r[1:] + r[:-1]) / 2.0)])
    anchor = int(np.argmin(np.abs(x)))
    envelope = C / a * np.exp(I - I[anchor])
    slack = rtol * max(envelope.max(), 1.0)
    if np.any(evolution.density[0] > envelope + slack):
        raise ValueError("initial density violates the bound for this C")
    excess = evolution.density - envelope
    bad = excess > slack
    worst = float(excess.max())
    return Report(
        name="stationary_bound",
        passed=not bool(bad.any()),
        details={"C": C, "violating_stamps": int(bad.any(axis=1).sum()),
                 "worst_excess": worst, "rtol": rtol},
    )


def energy_monitor(evolution: Law, field: CoefficientField,
                   alphas, p: float) -> EnergyReport:
    """Check of the moment inequality for int u^alpha between recorded
    stamps (see ``EnergyReport``).

    Budget rate: C'' * (1 + ||grad a||_{L^p}^{2/theta}) with theta = 1 - d/p.
    C'' = max_alpha alpha(alpha-1)(1 + sup|F|^2/(2c)) was calibrated once on
    the pure-diffusion case (where the integral is nonincreasing and any
    nonnegative constant passes) and is frozen here; the report records it.
    """
    grid = evolution.grid
    if grid.d != 1:
        raise ValueError("energy_monitor covers the 1-D solver")
    if p <= grid.d:
        raise ValueError("the moment estimate needs p > d")
    theta = 1.0 - grid.d / p
    alphas = tuple(float(al) for al in alphas)
    if any(al < 2 for al in alphas):
        raise ValueError("alpha >= 2 is required")

    a = field.a[:, 0, 0]
    c = float(a.min())
    if c <= 0:
        raise ValueError("ellipticity constant on the grid must be positive")

    grad_a = np.gradient(a, grid.h[0], edge_order=2)
    lp = float((grid.cell_volume * np.sum(np.abs(grad_a) ** p)) ** (1.0 / p))

    sup_F = field.sup_drift
    constant = max(al * (al - 1.0) for al in alphas) \
        * (1.0 + sup_F * sup_F / (2.0 * c))
    rate = constant * (1.0 + lp ** (2.0 / theta))

    vol = grid.cell_volume
    nt = evolution.times.size
    values = np.empty((len(alphas), nt))
    for i, al in enumerate(alphas):
        values[i] = vol * (evolution.density.reshape(nt, -1) ** al).sum(axis=1)
    dts = np.diff(evolution.times)
    budgets = values[:, :-1] * (1.0 + dts * rate)
    violations = int(np.sum(values[:, 1:] > budgets * (1 + 1e-12)))
    return EnergyReport(
        alphas=alphas, theta=theta, times=evolution.times, values=values,
        budgets=budgets, grad_a_lp=np.full(nt, lp), violations=violations,
        constant=float(constant), passed=violations == 0,
    )


# -- kinetic phase-space solver ---------------------------------------------

def _kinetic_coeffs(field: CoefficientField):
    if field.grid.d != 2:
        raise ValueError("the kinetic solver needs a 2-D (x, v) field")
    _check_box(field.grid, "solve_kinetic")
    if np.abs(field.a[..., 0, 0]).max() > 1e-14:
        raise ValueError("kinetic diffusion must act in v only")
    return field.drift[..., 0], field.drift[..., 1], field.a[..., 1, 1]


def _caps_kinetic(field: CoefficientField):
    speed_x, speed_v, a_vv = _kinetic_coeffs(field)
    return _caps([speed_x, speed_v], field.grid.h, a_vv, field.grid.h[1])


def cfl_cap_kinetic(field: CoefficientField) -> float:
    """Largest stable explicit splitting step: transport in x and v at
    h/(2 sup|speed|), v-diffusion at hv^2/(4 sup a_vv)."""
    return min(_caps_kinetic(field))


def solve_kinetic(field: CoefficientField, u0, T: float,
                  dt: float | None = None, record_every: int | None = None,
                  implicit: bool = False) -> Law:
    """Dimensional-splitting solve of the phase-space forward equation.

    ``_march`` over one split step of three ``_euler_step``s, each
    conservative with zero boundary flux: transport in x with speed drift_x
    (= v for the shipped preset), transport in v with speed drift_v, then
    the v-diffusion along v per x row. ``implicit=True`` makes the
    v-diffusion a backward step; the transport sweeps stay explicit, so dt
    is capped by transport alone (``plan_steps``). A v-diffusion whose bands
    are the same on every x row (a_vv constant in x, as in the shipped
    preset) factors one row and solves all rows as the columns of one
    right-hand side; an a_vv that varies in x factors the block-diagonal
    matrix over all rows (``_euler_step``). By default about 50 steps are
    recorded.
    """
    grid = field.grid
    speed_x, speed_v, a_vv = _kinetic_coeffs(field)
    hx, hv = grid.h
    u = _project_initial(grid, u0)
    steps, dt, cap = plan_steps(field, T, dt, implicit)
    sweep_x = _euler_step(speed_x.T, 0.0, hx, dt, False)
    sweep_v = _euler_step(speed_v, 0.0, hv, dt, False)
    diffuse = _euler_step(0.0, a_vv, hv, dt, implicit)
    return _march(grid, u, lambda u: diffuse(sweep_v(sweep_x(u.T).T)), steps,
                  dt, max(1, steps // 50) if record_every is None else record_every,
                  flux="upwind", method="splitting_kinetic", implicit=implicit,
                  cap=cap)


def max_principle_check(evolution: Law) -> Report:
    """max_x u(t_k) <= max_x u(0) * (1 + 1e-8) at every stamp; the report
    records the relative tolerance 1e-8."""
    tolerance = 1e-8
    peaks = evolution.density.reshape(evolution.times.size, -1).max(axis=1)
    cap = peaks[0] * (1.0 + tolerance)
    bad = peaks > cap
    return Report(
        name="max_principle",
        passed=not bool(bad.any()),
        details={"initial_max": float(peaks[0]),
                 "worst_max": float(peaks.max()),
                 "violating_stamps": int(bad.sum()),
                 "tolerance": tolerance},
    )


# -- law comparison ----------------------------------------------------------

def law_compare(lawA: Law, lawB: Law) -> dict:
    """L^1 and Wasserstein-1 distances between the final density slices of
    two 1-D laws on one grid."""
    if lawA.grid.d != 1 or lawB.grid.d != 1:
        raise ValueError("law_compare works on 1-D laws")
    if lawB.grid != lawA.grid:
        raise ValueError("law_compare needs both laws on one grid")
    ua, ub = lawA.density[-1], lawB.density[-1]
    h = lawA.grid.h[0]
    l1 = float(h * np.abs(ua - ub).sum())
    cdf_gap = np.cumsum(ua - ub) * h
    w1 = float(h * np.abs(cdf_gap).sum())
    return {"l1": l1, "w1": w1}
