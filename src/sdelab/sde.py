"""Shared-noise SDE ensembles and the convergence/uniqueness functionals.

Explicit Euler-Maruyama only: the estimates under test concern exact
solutions of regularized equations, so time-discretization error is folded
into the coefficient-convergence rate and isolated by step-refinement tests.
All ensembles driven by one BrownianStore share the identical increments,
which is what makes the pairwise difference functionals meaningful.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import CoefficientField, Grid
from .laws import Law
from .maxops import gradient_magnitude, maximal, maximal_modified
from .report import Report

__all__ = [
    "BrownianStore",
    "PathEnsemble",
    "FunctionalSeries",
    "simulate_ensemble",
    "q_functional",
    "q_tilde_functional",
    "l_eps_functional",
    "plateau_bump",
    "linear_ramp",
    "cauchy_diagnostic",
    "dyadic_eps_schedule",
    "dyadic_block_averages",
    "uniqueness_map",
    "coefficient_distance",
]

_MAGIC = b"SDLBSTOR"


class BrownianStore:
    """Shared Brownian increments at the finest time step.

    Increments are generated once from a counter-based generator keyed by the
    master seed; every ensemble built on the same store is driven by the
    identical noise. ``coarsen`` aggregates the same increments onto a
    coarser step so refinement studies stay coupled.
    """

    def __init__(self, seed: int, dt: float, increments: np.ndarray):
        self.seed = int(seed)
        self.dt = float(dt)
        self.increments = increments  # (N, steps, r)
        self.increments.setflags(write=False)

    @classmethod
    def generate(cls, seed: int, n_paths: int, n_steps: int, dt: float,
                 r: int = 1) -> "BrownianStore":
        if dt <= 0 or n_paths <= 0 or n_steps <= 0 or r <= 0:
            raise ValueError("invalid store dimensions")
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        inc = rng.standard_normal((n_paths, n_steps, r)) * np.sqrt(dt)
        return cls(seed, dt, inc)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]

    @property
    def r(self) -> int:
        return self.increments.shape[2]

    def coarsen(self, factor: int) -> "BrownianStore":
        if factor < 1 or self.n_steps % factor:
            raise ValueError("factor must divide the step count")
        n, s, r = self.increments.shape
        agg = self.increments.reshape(n, s // factor, factor, r).sum(axis=2)
        return BrownianStore(self.seed, self.dt * factor, agg)

    def same_noise_as(self, other: "BrownianStore") -> bool:
        return self.seed == other.seed and self.r == other.r

    def validate(self) -> Report:
        """Gaussian sanity bands on the increment sample moments."""
        flat = self.increments.reshape(-1)
        n = flat.size
        mean = float(flat.mean())
        var = float(flat.var(ddof=1))
        mean_band = 4.0 * np.sqrt(self.dt / n)
        var_band = 4.0 * self.dt * np.sqrt(2.0 / (n - 1))
        ok = abs(mean) <= mean_band and abs(var - self.dt) <= var_band
        return Report("brownian_store", ok, {
            "mean": mean, "mean_band": mean_band,
            "var": var, "var_target": self.dt, "var_band": var_band,
        })

    def save(self, path) -> None:
        header = _MAGIC + struct.pack(
            "<qqqqd", self.seed, self.n_paths, self.n_steps, self.r, self.dt
        )
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(self.increments.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "BrownianStore":
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ValueError("not a Brownian store file")
            seed, n, s, r, dt = struct.unpack("<qqqqd", fh.read(8 * 5))
            payload = np.frombuffer(fh.read(), dtype="<f8").reshape(n, s, r)
        return cls(seed, dt, payload.astype(np.float64))


@dataclass(frozen=True)
class PathEnsemble:
    field: CoefficientField
    times: np.ndarray            # recorded stamps, (nt,)
    paths: np.ndarray            # (N, nt, d)
    store: BrownianStore
    dt: float                    # integration step
    x0: np.ndarray
    exit_fraction: float

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def interp_values(self, grid_values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Linear interpolation of a 1-D grid function at path positions."""
        return _interp1(grid_values, self.grid, x)


@dataclass(frozen=True)
class FunctionalSeries:
    kind: str
    params: dict
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray

    @property
    def sup(self) -> float:
        return float(np.max(self.values))

    @property
    def sup_stderr(self) -> float:
        return float(self.stderr[int(np.argmax(self.values))])

    def to_csv(self, path) -> None:
        data = np.column_stack([self.times, self.values, self.stderr])
        np.savetxt(path, data, delimiter=",", header="stamp,value,stderr",
                   comments="", fmt="%.17g")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": self.params,
                "times": self.times.tolist(), "values": self.values.tolist(),
                "stderr": self.stderr.tolist()}


# -- field evaluation along paths -------------------------------------------


def _interp1(values: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    lo, h = grid.lower[0], grid.h[0]
    n = grid.shape[0]
    if grid.periodic[0]:
        pos = np.mod(x - lo, grid.upper[0] - lo) / h
        i0 = pos.astype(np.int64)
        frac = pos - i0
        i1 = (i0 + 1) % n
    else:
        pos = np.clip((x - lo) / h, 0.0, n - 1.0)
        i0 = np.minimum(pos.astype(np.int64), n - 2)
        frac = pos - i0
        i1 = i0 + 1
    v = values.reshape(n, -1)
    out = v[i0] * (1.0 - frac)[..., None] + v[i1] * frac[..., None]
    return out.reshape(x.shape + values.shape[1:]) if values.ndim > 1 \
        else out.reshape(x.shape)


def _interp2(values: np.ndarray, grid: Grid, xy: np.ndarray) -> np.ndarray:
    # xy: (..., 2); bilinear with clamp/wrap per axis
    idx = []
    frac = []
    for ax in range(2):
        lo, h = grid.lower[ax], grid.h[ax]
        n = grid.shape[ax]
        if grid.periodic[ax]:
            pos = np.mod(xy[..., ax] - lo, grid.upper[ax] - lo) / h
            i0 = pos.astype(np.int64)
            f = pos - i0
            i1 = (i0 + 1) % n
        else:
            pos = np.clip((xy[..., ax] - lo) / h, 0.0, n - 1.0)
            i0 = np.minimum(pos.astype(np.int64), n - 2)
            f = pos - i0
            i1 = i0 + 1
        idx.append((i0, i1))
        frac.append(f)
    (i0, i1), (j0, j1) = idx
    fx, fy = frac
    extra = values.shape[2:]
    v = values.reshape(values.shape[0], values.shape[1], -1)
    out = (v[i0, j0] * ((1 - fx) * (1 - fy))[..., None]
           + v[i1, j0] * (fx * (1 - fy))[..., None]
           + v[i0, j1] * ((1 - fx) * fy)[..., None]
           + v[i1, j1] * (fx * fy)[..., None])
    return out.reshape(xy.shape[:-1] + extra) if extra else out[..., 0]


def _eval_field(field: CoefficientField, x: np.ndarray):
    """Drift (N, d) and diffusion (N, d, r) at positions x (N, d)."""
    g = field.grid
    if g.d == 1:
        xx = x[:, 0]
        F = _interp1(field.drift, g, xx)
        S = _interp1(field.diffusion.reshape(g.shape[0], -1), g, xx)
        return F.reshape(-1, 1), S.reshape(-1, 1, field.r)
    F = _interp2(field.drift, g, x)
    S = _interp2(field.diffusion, g, x)
    return F, S


def _outside(grid: Grid, x: np.ndarray) -> np.ndarray:
    out = np.zeros(x.shape[0], dtype=bool)
    for ax in range(grid.d):
        if not grid.periodic[ax]:
            out |= (x[:, ax] < grid.lower[ax]) | (x[:, ax] > grid.upper[ax])
    return out


def stability_cap(field: CoefficientField, user_cap: float = np.inf) -> float:
    """Largest admissible Euler step for this field."""
    return min(0.1 / (1.0 + field.sup_drift + field.sup_diffusion ** 2), user_cap)


def simulate_ensemble(field: CoefficientField, x0, T: float,
                      store: BrownianStore, record_every: int = 1,
                      check_cap: bool = True) -> PathEnsemble:
    """Explicit Euler-Maruyama with multilinear coefficient interpolation.

    Deterministic given (store, field, x0). Paths leaving the box use the
    grid's extension rule; the exit fraction is reported, not hidden.
    """
    d = field.grid.d
    if field.r != store.r:
        raise ValueError("noise dimension mismatch between field and store")
    n_steps = int(round(T / store.dt))
    if abs(n_steps * store.dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError("T must be a multiple of the store step")
    if n_steps > store.n_steps:
        raise ValueError("store does not cover the horizon")
    if check_cap and store.dt > stability_cap(field) + 1e-15:
        raise ValueError(
            f"dt={store.dt} exceeds the stability cap {stability_cap(field)}"
        )
    N = store.n_paths
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 0:
        X = np.full((N, d), float(x0))
    elif x0.shape == (d,) and d > 1:
        X = np.tile(x0, (N, 1))
    elif x0.shape == (N,):
        X = x0[:, None].copy()
        if d != 1:
            raise ValueError("per-path initial points must have d components")
    elif x0.shape == (N, d):
        X = x0.copy()
    else:
        raise ValueError(f"initial spec shape {x0.shape} not understood")

    rec = list(range(0, n_steps + 1, record_every))
    if rec[-1] != n_steps:
        rec.append(n_steps)
    rec_set = {k: idx for idx, k in enumerate(rec)}
    out = np.empty((N, len(rec), d))
    out[:, 0] = X
    exits = 0
    dt = store.dt
    for k in range(n_steps):
        F, S = _eval_field(field, X)
        dW = store.increments[:, k, :]
        X = X + F * dt + np.einsum("nij,nj->ni", S, dW)
        if not np.all(np.isfinite(X)):
            bad = np.nonzero(~np.isfinite(X).all(axis=1))[0][0]
            raise FloatingPointError(
                f"non-finite path value at step {k + 1} (path {bad})"
            )
        exits += int(np.count_nonzero(_outside(field.grid, X)))
        if (k + 1) in rec_set:
            out[:, rec_set[k + 1]] = X
    times = dt * np.asarray(rec, dtype=float)
    return PathEnsemble(field, times, out, store, dt, x0,
                        exit_fraction=exits / (N * n_steps))


# -- pairwise functionals ----------------------------------------------------


def _coupled(ensA: PathEnsemble, ensB: PathEnsemble) -> np.ndarray:
    if ensA.store is not ensB.store and not ensA.store.same_noise_as(ensB.store):
        raise ValueError("ensembles must share the same Brownian store")
    if ensA.times.shape != ensB.times.shape or \
            not np.allclose(ensA.times, ensB.times):
        raise ValueError("ensembles must share the recording time grid")
    return np.linalg.norm(ensA.paths - ensB.paths, axis=-1)  # (N, nt)


def _series(kind, params, times, samples) -> FunctionalSeries:
    return FunctionalSeries(
        kind, params, times,
        samples.mean(axis=0),
        samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0]),
    )


def q_functional(ensA: PathEnsemble, ensB: PathEnsemble,
                 eps: float) -> FunctionalSeries:
    """E log(1 + |Delta_t|^2 / eps^2) per recorded stamp."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    delta = _coupled(ensA, ensB)
    return _series("Q", {"eps": eps}, ensA.times, np.log1p((delta / eps) ** 2))


def q_tilde_functional(ensA: PathEnsemble, ensB: PathEnsemble, eps: float,
                       h_tilde: np.ndarray) -> FunctionalSeries:
    """One-dimensional variant E[e^{-U} |Delta| log(1+|Delta|^2/eps^2)].

    U accumulates lambda = 4 (h~(X^A) + h~(X^B)) by trapezoid along the
    recorded stamps; h~ is the maximal function of |grad F|, precomputed by
    the caller on the ensemble grid.
    """
    if ensA.grid.d != 1:
        raise ValueError("q_tilde is one-dimensional")
    if eps <= 0:
        raise ValueError("eps must be positive")
    delta = _coupled(ensA, ensB)
    lam = 4.0 * (ensA.interp_values(h_tilde, ensA.paths[..., 0])
                 + ensB.interp_values(h_tilde, ensB.paths[..., 0]))
    t = ensA.times
    U = np.zeros_like(lam)
    dt = np.diff(t)
    U[:, 1:] = np.cumsum(0.5 * (lam[:, 1:] + lam[:, :-1]) * dt, axis=1)
    samples = np.exp(-U) * delta * np.log1p((delta / eps) ** 2)
    return _series("Qtilde", {"eps": eps}, t, samples)


def _smoothstep(s):
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def plateau_bump(x, eps: float):
    """C^2 cutoff: 0 below eps/2, 1 above eps, quintic bridge between."""
    ax = np.abs(np.asarray(x, dtype=float))
    s = np.clip((2.0 * ax - eps) / eps, 0.0, 1.0)
    return _smoothstep(s)


def linear_ramp(x, eps: float):
    """|x| above eps, 0 below eps/2, quintic C^2 bridge between."""
    ax = np.abs(np.asarray(x, dtype=float))
    s = np.clip((2.0 * ax - eps) / eps, 0.0, 1.0)
    # a s^3 + b s^4 + c s^5 matching value/slope/curvature of |x| at eps
    bridge = eps * s ** 3 * (8.0 + s * (-11.5 + 4.5 * s))
    return np.where(ax >= eps, ax, bridge)


def l_eps_functional(ensA: PathEnsemble, ensB: PathEnsemble, eps: float,
                     flavor: str = "plateau") -> FunctionalSeries:
    """E[L_eps(Delta_t)] per stamp for the plateau or linear-1d cutoff."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if flavor not in ("plateau", "linear1d"):
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor == "linear1d" and ensA.grid.d != 1:
        raise ValueError("linear1d flavor is one-dimensional")
    delta = _coupled(ensA, ensB)
    fn = plateau_bump if flavor == "plateau" else linear_ramp
    return _series(f"L_eps[{flavor}]", {"eps": eps}, ensA.times, fn(delta, eps))


# -- convergence and uniqueness diagnostics ----------------------------------


def coefficient_distance(fieldA: CoefficientField, fieldB: CoefficientField,
                         u: Law, T: float) -> float:
    """eta-type distance int int (|sigma_A - sigma_B| + |F_A - F_B|) u dx dt."""
    g = fieldA.grid
    ds = np.linalg.norm(
        (fieldA.diffusion - fieldB.diffusion).reshape(g.shape + (-1,)), axis=-1
    )
    dF = np.linalg.norm(fieldA.drift - fieldB.drift, axis=-1)
    return float(u.time_integral(ds + dF, T))


def cauchy_diagnostic(ensembles: list[PathEnsemble], p: float = 2.0,
                      law_grid: Grid | None = None) -> Report:
    """Matrix of E sup_t |Delta_t|^p over coupled ensemble pairs.

    Also estimates eta(n, m) from the empirical laws and checks that the
    worst entry at each refinement level is nonincreasing within two
    standard errors.
    """
    if len(ensembles) < 4:
        raise ValueError("need a family of at least 4 coupled ensembles")
    if p <= 1:
        raise ValueError("p must be > 1")
    k = len(ensembles)
    esup = np.zeros((k, k))
    se = np.zeros((k, k))
    eta = np.zeros((k, k))
    laws = [Law.from_ensemble(e, law_grid) for e in ensembles]
    T = float(ensembles[0].times[-1])
    for n in range(k):
        for m in range(n + 1, k):
            delta = _coupled(ensembles[n], ensembles[m])
            samples = np.max(delta, axis=1) ** p
            esup[n, m] = esup[m, n] = samples.mean()
            se[n, m] = se[m, n] = samples.std(ddof=1) / np.sqrt(samples.size)
            eta[n, m] = eta[m, n] = coefficient_distance(
                ensembles[n].field, ensembles[m].field, laws[n], T
            )
    level = np.array([esup[i, i + 1:].max() for i in range(k - 1)])
    level_se = np.array(
        [se[i, i + 1 + int(np.argmax(esup[i, i + 1:]))] for i in range(k - 1)]
    )
    drops = np.diff(level)
    ok = bool(np.all(drops <= 2.0 * (level_se[1:] + level_se[:-1])))
    return Report("cauchy_diagnostic", ok, {
        "p": p,
        "esup_matrix": esup,
        "stderr_matrix": se,
        "eta_matrix": eta,
        "level_worst": level,
        "level_stderr": level_se,
        "finest_entry": float(esup[k - 2, k - 1]),
        "finest_stderr": float(se[k - 2, k - 1]),
    })


def dyadic_eps_schedule(eps_min: float, eps_max: float) -> list[tuple[float, float]]:
    """Intervals [a_i, b_i) with b_i = sqrt(a_i), descending from eps_max."""
    if not 0.0 < eps_min < eps_max < 1.0:
        raise ValueError("need 0 < eps_min < eps_max < 1")
    out = []
    b = eps_max
    while b > eps_min:
        a = b * b
        out.append((a, b))
        b = a
    return out


def dyadic_block_averages(ensA: PathEnsemble, ensB: PathEnsemble,
                          schedule: list[tuple[float, float]],
                          weights: np.ndarray | None = None) -> Report:
    """Block averages of the dyadic band masses along the eps partition.

    beta_k is the time-average of E[w(X) 1_{2^{-k-1} <= |Delta| < 2^{-k}}]
    (w == 1 unless grid weights are supplied); each block averages beta_k
    over the dyadic bands contained in one schedule interval. Band masses
    are summable, so the block averages must die out along the schedule.
    """
    delta = _coupled(ensA, ensB)
    if weights is not None:
        w = 0.5 * (ensA.interp_values(weights, ensA.paths[..., 0])
                   + ensB.interp_values(weights, ensB.paths[..., 0]))
    else:
        w = None
    blocks = []
    betas_all = []
    for (a, b) in schedule:
        ks = [k for k in range(0, 200)
              if a - 1e-15 <= 2.0 ** (-k - 1) and 2.0 ** (-k) <= b + 1e-15]
        betas = []
        for k in ks:
            band = (delta >= 2.0 ** (-k - 1)) & (delta < 2.0 ** (-k))
            val = band if w is None else band * w
            betas.append(float(val.mean()))
        betas_all.append(betas)
        blocks.append(float(np.mean(betas)) if betas else 0.0)
    blocks = np.asarray(blocks)
    # longest run of consecutive non-increasing steps with an overall drop
    best = run = 0
    for i in range(1, blocks.size):
        if blocks[i] <= blocks[i - 1] and blocks[i - 1] > 0:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return Report("dyadic_blocks", best >= 2, {
        "schedule": schedule,
        "block_averages": blocks,
        "betas": betas_all,
        "longest_nonincreasing_run": int(best),
    })


def uniqueness_map(x_points, fieldA: CoefficientField, fieldB: CoefficientField,
                   eps_list, t: float, n_paths: int, store: BrownianStore,
                   base_field: CoefficientField | None = None,
                   threshold: float = 0.02,
                   factorA: int = 1, factorB: int = 1) -> Report:
    """Per-initial-condition uniqueness diagnostic.

    For each grid point x, both regularization builds run n_paths shared-noise
    paths from x; the report holds E|X_t - X^_t| per x and the a-priori
    integrand M_t^eps(x) = E int_0^t [(M|grad sigma|)^2 + |F| +
    M_{1/eps}|grad F|](X_s) ds for each eps, evaluated on the unregularized
    coefficients.
    """
    x_points = np.asarray(x_points, dtype=float)
    n_x = x_points.size
    need = n_x * n_paths
    if store.n_paths < need:
        raise ValueError(f"store must hold {need} paths")
    if fieldA.grid.d != 1:
        raise ValueError("uniqueness_map is one-dimensional")
    x0 = np.repeat(x_points, n_paths)
    sub = BrownianStore(store.seed, store.dt, store.increments[:need])
    ensA = simulate_ensemble(fieldA, x0,
                             t, sub if factorA == 1 else sub.coarsen(factorA),
                             record_every=max(1, 16 // factorA))
    ensB = simulate_ensemble(fieldB, x0,
                             t, sub if factorB == 1 else sub.coarsen(factorB),
                             record_every=max(1, 16 // factorB))
    # align recorded stamps
    common = np.intersect1d(np.round(ensA.times, 12), np.round(ensB.times, 12))
    ia = np.searchsorted(np.round(ensA.times, 12), common)
    ib = np.searchsorted(np.round(ensB.times, 12), common)
    dmat = np.abs(ensA.paths[:, ia, 0] - ensB.paths[:, ib, 0])
    kt = int(np.argmin(np.abs(common - t)))
    n_eps = dmat[:, kt].reshape(n_x, n_paths).mean(axis=1)

    base = base_field if base_field is not None else fieldA
    g = base.grid
    msig = maximal(gradient_magnitude(
        base.diffusion.reshape(g.shape + (-1,)), g), g) ** 2
    absF = np.linalg.norm(base.drift, axis=-1)
    gF = gradient_magnitude(base.drift, g)
    m_eps = {}
    xa = ensA.paths[:, ia, 0][:, common <= t + 1e-12]
    ta = common[common <= t + 1e-12]
    for eps in eps_list:
        integrand = msig + absF + maximal_modified(gF, g, 1.0 / eps)
        along = _interp1(integrand, g, xa)
        per_path = np.trapezoid(along, ta, axis=1)
        m_eps[float(eps)] = per_path.reshape(n_x, n_paths).mean(axis=1)
    frac = float(np.mean(n_eps <= threshold))
    return Report("uniqueness_map", frac == 1.0, {
        "x_points": x_points,
        "E_abs_delta": n_eps,
        "M_eps": m_eps,
        "threshold": threshold,
        "fraction_below": frac,
        "t": t,
    })
