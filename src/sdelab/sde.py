"""Shared-noise SDE ensembles and the convergence/uniqueness functionals.

Explicit Euler-Maruyama only: the estimates under test concern exact
solutions of regularized equations, so time-discretization error is folded
into the coefficient-convergence rate and isolated by step-refinement tests.
All ensembles driven by one BrownianStore share the identical increments,
which is what makes the pairwise difference functionals meaningful.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fields import CoefficientField, Grid
from .laws import Law, _check_horizon, _user_steps, path_blocks
from .maxops import gradient_magnitude, maximal, maximal_modified
from .report import Report

__all__ = [
    "BrownianStore",
    "PathEnsemble",
    "FunctionalSeries",
    "simulate_ensemble",
    "simulate_family",
    "q_functional",
    "q_tilde_functional",
    "l_eps_functional",
    "plateau_bump",
    "cauchy_diagnostic",
    "dyadic_eps_schedule",
    "dyadic_block_averages",
    "uniqueness_map",
    "coefficient_distance",
]


def _philox(seed: int) -> np.random.Generator:
    """The Philox generator keyed by ``seed`` as a Python int, so that every
    seed below 2^128 is a key (below 2^64 with the stream of
    ``key=np.uint64(seed)``); Philox raises a ValueError for a larger one."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


class BrownianStore:
    """Shared Brownian increments at the finest time step.

    Increments are generated once from a counter-based generator keyed by the
    master seed; every ensemble built on the same store is driven by the
    identical noise. ``coarsen`` aggregates the same increments onto a
    coarser step and ``prefix`` keeps the first paths, so refinement studies
    and sub-ensembles stay coupled: both keep the store's lineage, and two
    stores carry the same noise exactly when their lineages agree.

    ``increments`` is indexed (path, step, component) whatever its memory
    layout. A generated store holds it step-major, (steps, r, N) in memory,
    so that one step's increments are r contiguous rows for the Euler walk.
    """

    def __init__(self, seed: int, dt: float, increments: np.ndarray,
                 lineage: tuple | None = None):
        self.seed = int(seed)
        self.dt = float(dt)
        self.increments = increments  # (N, steps, r)
        self.increments.setflags(write=False)
        # (seed, finest dt, steps per path as generated, r)
        self.lineage = lineage or (self.seed, self.dt, self.n_steps, self.r)

    @classmethod
    def generate(cls, seed: int, n_paths: int, n_steps: int, dt: float,
                 r: int = 1) -> "BrownianStore":
        """The Philox draw ``standard_normal((n_paths, n_steps, r))`` times
        sqrt(dt), bit for bit: drawn path block by path block in stream
        order into one reused block, each scaled into the step-major buffer."""
        if not 0.0 < dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if n_paths <= 0 or n_steps <= 0 or r <= 0:
            raise ValueError("invalid store dimensions")
        rng = _philox(seed)
        blocks = path_blocks(n_paths, n_steps * r)
        draw = np.empty((max(b.stop - b.start for b in blocks), n_steps, r))
        buf = np.empty((n_steps, r, n_paths))
        for blk in blocks:
            block = rng.standard_normal(out=draw[:blk.stop - blk.start])
            np.multiply(block.transpose(1, 2, 0), np.sqrt(dt),
                        out=buf[:, :, blk])
        return cls(seed, dt, buf.transpose(2, 0, 1))

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
        # summed over a path-major copy: the order of the sum follows the
        # layout, and the path-major order is the one the store was made in
        agg = np.ascontiguousarray(self.increments).reshape(
            n, s // factor, factor, r).sum(axis=2)
        return BrownianStore(self.seed, self.dt * factor, agg, self.lineage)

    def prefix(self, n_paths: int) -> "BrownianStore":
        """The first ``n_paths`` paths, same lineage (a view, no copy)."""
        if not 0 < n_paths <= self.n_paths:
            raise ValueError(f"store must hold {n_paths} paths")
        return BrownianStore(self.seed, self.dt, self.increments[:n_paths],
                             self.lineage)

    def same_noise_as(self, other: "BrownianStore") -> bool:
        return self.lineage == other.lineage

    def validate(self) -> Report:
        """Gaussian sanity bands on the increment sample moments, summed in
        path-major order (on a step-major store ``reshape`` copies)."""
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


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    field: CoefficientField
    times: np.ndarray            # recorded stamps, (nt,)
    paths: np.ndarray            # (N, nt, d)
    store: BrownianStore
    dt: float                    # integration step
    exit_fraction: float

    @property
    def grid(self) -> Grid:
        return self.field.grid

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    def interp_values(self, grid_values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Linear interpolation of a 1-D grid function at path positions."""
        return _interpolate(grid_values, self.grid, x[..., None])


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


# -- field evaluation along paths -------------------------------------------


def _axes(grid: Grid):
    """Constants of the interpolation, hoisted out of step loops: per axis
    the lower bound, box length, step, node count and periodicity, and the
    offsets from ``_locate``'s flat index to the 2^d corners of its cell in
    ``_table``, corners with axis 0 fastest."""
    axes = [(grid.lower[a], grid.upper[a] - grid.lower[a], grid.h[a],
             grid.shape[a], grid.periodic[a]) for a in range(grid.d)]
    strides = np.cumprod((1,) + tuple(n + 2 for n in grid.shape[:0:-1]))[::-1]
    return axes, np.array([sum((1 + (c >> a & 1)) * s for a, s in enumerate(strides))
                           for c in range(2 ** grid.d)])


def _locate(axes, coords):
    """Cell index and corner weights of positions given per axis.

    coords[a] holds the axis-a coordinates. Per axis the cell index is
    clamped (or wrapped) and weighted (1 - f, f); the 2^d corner weights are
    products of these, corners with axis 0 fastest. The flat index counts
    nodes of the grid padded by one node per side, as in ``_table``.
    """
    flat, w = None, None
    for (lo, span, h, n, periodic), x in zip(axes, coords):
        if periodic:
            pos = np.mod(x - lo, span) / h
        else:
            pos = np.minimum(np.maximum((x - lo) / h, 0.0), n - 1.0)
        # a position that rounds onto the far end of a periodic axis keeps
        # f = 1 in the last cell, whose upper corner wraps to node 0
        cell = np.minimum(np.floor(pos), n - 1 if periodic else n - 2)
        f = pos - cell
        i = cell.astype(np.intp)
        flat = i if flat is None else flat * (n + 2) + i
        w = [1.0 - f, f] if w is None else [wc * g for g in (1.0 - f, f) for wc in w]
    return flat, w


def _table(grid: Grid, channels, out: np.ndarray) -> np.ndarray:
    """Write each grid-shaped channel, padded by one node per side so that
    a cell's upper corners follow the extension rule, into its row of
    ``out`` (C, nodes of the padded grid), one channel at a time."""
    for row, values in zip(out, channels):
        row[:] = grid.pad(values, (1,) * grid.d).ravel()
    return out


def _padded_nodes(grid: Grid) -> int:
    return int(np.prod([n + 2 for n in grid.shape]))


def _combine(table: np.ndarray, flat, w, corners, out=None) -> np.ndarray:
    """Sum over corners c of table[:, flat + corners[c]] * w[c] in corner
    order, one corner at a time; ``flat`` is shifted in place."""
    flat += corners[0]
    out = np.multiply(np.take(table, flat, axis=-1), w[0], out=out)
    for c in range(1, len(w)):
        flat += corners[c] - corners[c - 1]
        out += np.take(table, flat, axis=-1) * w[c]
    return out


def _interpolate(values: np.ndarray, grid: Grid, x: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of grid values (*grid.shape, ...) at x (..., d).

    The result keeps the memory layout of x, so a reduction over it (such
    as a per-path trapezoid) adds in the same order as over x itself.
    """
    extra = values.shape[grid.d:]
    channels = np.moveaxis(values.reshape(grid.shape + (-1,)), -1, 0)
    table = _table(grid, channels, np.empty(
        (len(channels), _padded_nodes(grid)), values.dtype))
    axes, corners = _axes(grid)
    out = np.empty_like(x[..., :1], shape=x.shape[:-1] + table.shape[:1])
    _combine(table, *_locate(axes, np.moveaxis(x, -1, 0)), corners,
             out=np.moveaxis(out, -1, 0))
    return out.reshape(x.shape[:-1] + extra)


def path_time_integrals(paths: np.ndarray, grid: Grid, values: np.ndarray,
                        times: np.ndarray, stamps) -> np.ndarray:
    """Per-path trapezoid over ``times`` of grid values along
    ``paths[:, stamps]`` (paths (N, nt, d), stamps a mask or indices).

    Walked in path blocks that pick their stamps from their own slice, so
    no (N, len(times)) copy exists; no path's integral depends on the blocks.
    """
    per_path = np.empty(paths.shape[0])
    for blk in path_blocks(paths.shape[0], len(times)):
        along = _interpolate(values, grid, paths[blk][:, stamps])
        per_path[blk] = np.trapezoid(along, times, axis=1)
    return per_path


def stability_cap(field: CoefficientField) -> float:
    """Largest admissible Euler step for this field."""
    return 0.1 / (1.0 + field.sup_drift + field.sup_diffusion ** 2)


def _check_family(fields, x0, T: float, dt: float, n_paths: int, r: int,
                  check_cap: bool = True, record_every: int = 1):
    """``simulate_family``'s checks that need no increments; returns the
    fields as a list, the step count, x0 as an array and whether per path."""
    _check_horizon(T, record_every)
    fields = list(fields)
    if not fields or any(f.grid != fields[0].grid for f in fields):
        raise ValueError("a family needs one or more fields on one grid")
    d = fields[0].grid.d
    if any(f.r != r for f in fields):
        raise ValueError("noise dimension mismatch between field and store")
    cap = min(stability_cap(f) for f in fields) if check_cap else np.inf
    n_steps = _user_steps(T, dt, cap)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape not in ((), (d,), (n_paths,), (n_paths, d)):
        raise ValueError(f"initial spec shape {x0.shape} not understood")
    if not np.isfinite(x0).all():
        raise ValueError("initial point x0 must be finite")
    per_path = x0.shape == (n_paths,) != (d,)
    if per_path and d != 1:
        raise ValueError("per-path initial points must have d components")
    return fields, n_steps, x0, per_path


# From this many paths on (a measured gate, not a setting) simulate_family
# steps the two path halves on two threads; numpy releases the interpreter
# lock inside each step's array operations.
POOL_PATHS = 2 ** 16
_POOL = ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1))


def simulate_family(fields, x0, T: float, store: BrownianStore,
                    record_every: int = 1,
                    check_cap: bool = True) -> list[PathEnsemble]:
    """Explicit Euler-Maruyama for coupled fields driven by one store.

    The members share the grid and the Brownian increments. Each step
    locates all K x N positions once and reads the drift and diffusion of
    every member with the same weights from one stacked table, so each
    member equals its own ``simulate_ensemble`` bit for bit. Deterministic given
    (store, fields, x0). Paths leaving the box use the grid's extension
    rule; exit fractions are reported per member. From POOL_PATHS paths on,
    the two path halves step on two threads with identical results.
    """
    fields, n_steps, x0, per_path = _check_family(
        fields, x0, T, store.dt, store.n_paths, store.r, check_cap,
        record_every)
    if n_steps > store.n_steps:
        raise ValueError("store does not cover the horizon")
    grid = fields[0].grid
    d, r = grid.d, store.r
    K, N = len(fields), store.n_paths

    rec = sorted(set(range(0, n_steps + 1, record_every)) | {n_steps})
    rec_set = {k: idx for idx, k in enumerate(rec)}
    out = np.empty((K, N, len(rec), d))
    out[:, :, 0] = x0[:, None] if per_path else x0
    dt = store.dt
    axes, corners = _axes(grid)
    walls = [(a, grid.lower[a], grid.upper[a]) for a in range(d)
             if not grid.periodic[a]]
    hits = np.zeros((K, N), dtype=np.int64)
    # one table for the family: member m's nodes follow those of m - 1,
    # its channels the drift components, then the diffusion entries
    nodes = _padded_nodes(grid)
    table = np.empty((d + d * r, K * nodes))
    for m, f in enumerate(fields):
        _table(grid, [f.drift[..., i] for i in range(d)] + [
            f.diffusion[..., i, j] for i in range(d) for j in range(r)],
            table[:, m * nodes:(m + 1) * nodes])
    offsets = corners[:, None, None] + nodes * np.arange(K)[:, None]  # (2^d, K, 1)

    def walk(part):
        """The step loop on one path range: None or the first (step, member,
        path) with a non-finite value."""
        X = np.moveaxis(out[:, part, 0], -1, 0).copy()  # (d, K, n)
        inc, rows, hit = store.increments[part], out[:, part], hits[:, part]
        for k in range(n_steps):
            dW = inc[:, k, :].T  # (r, n): contiguous rows of a generated store
            FS = _combine(table, *_locate(axes, X), offsets)  # (d + d*r, K, n)
            X += FS[:d] * dt
            noise = FS[d::r] * dW[0]
            for j in range(1, r):
                noise += FS[d + j::r] * dW[j]
            X += noise
            # per-axis extremes: a NaN or an infinity shows in them, and so
            # does any path beyond a wall; only then are the paths named
            low, high = X.min(axis=(1, 2)), X.max(axis=(1, 2))
            if not np.isfinite(low).all() or not np.isfinite(high).all():
                member, path = np.nonzero(~np.isfinite(X).all(axis=0))
                return k + 1, int(member[0]), part.start + int(path[0])
            if any(low[a] < lo or high[a] > hi for a, lo, hi in walls):
                hit += functools.reduce(np.logical_or, [
                    (X[a] < lo) | (X[a] > hi) for a, lo, hi in walls])
            if (k + 1) in rec_set:
                rows[:, :, rec_set[k + 1]] = np.moveaxis(X, 0, -1)
        return None

    if N < POOL_PATHS:
        bad = [walk(slice(0, N))]
    else:
        bad = [f.result() for f in [_POOL.submit(walk, part) for part in
                                    (slice(0, N // 2), slice(N // 2, N))]]
    bad = [b for b in bad if b is not None]
    if bad:
        step, _, path = min(bad)
        raise FloatingPointError(
            f"non-finite path value at step {step} (path {path})")
    times = dt * np.asarray(rec, dtype=float)
    return [PathEnsemble(f, times, out[m], store, dt,
                         exit_fraction=int(hits[m].sum()) / (N * n_steps))
            for m, f in enumerate(fields)]


def simulate_ensemble(field: CoefficientField, x0, T: float,
                      store: BrownianStore, record_every: int = 1,
                      check_cap: bool = True) -> PathEnsemble:
    """Explicit Euler-Maruyama for one field: ``simulate_family([field], ...)``."""
    return simulate_family([field], x0, T, store, record_every, check_cap)[0]


# -- pairwise functionals ----------------------------------------------------


def _coupled(ensA: PathEnsemble, ensB: PathEnsemble) -> np.ndarray:
    if ensA.store is not ensB.store and not ensA.store.same_noise_as(ensB.store):
        raise ValueError("ensembles must share the same Brownian store")
    if ensA.times.shape != ensB.times.shape or \
            not np.allclose(ensA.times, ensB.times):
        raise ValueError("ensembles must share the recording time grid")
    return np.linalg.norm(ensA.paths - ensB.paths, axis=-1)  # (N, nt)


def _series(kind, params, times, samples) -> FunctionalSeries:
    _check_paths(samples.shape[0])
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


def l_eps_functional(ensA: PathEnsemble, ensB: PathEnsemble,
                     eps: float) -> FunctionalSeries:
    """E[L_eps(Delta_t)] per stamp for the plateau cutoff ``plateau_bump``."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    delta = _coupled(ensA, ensB)
    return _series("L_eps[plateau]", {"eps": eps}, ensA.times,
                   plateau_bump(delta, eps))


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


def _check_paths(n_paths: int) -> None:
    """The standard errors of ``_series`` and ``cauchy_diagnostic`` need
    two paths."""
    if n_paths < 2:
        raise ValueError("need at least 2 paths for a standard error")


def _check_cauchy(n_members: int, p: float) -> None:
    """``cauchy_diagnostic``'s checks that need no paths."""
    if n_members < 4:
        raise ValueError("need a family of at least 4 coupled ensembles")
    if p <= 1:
        raise ValueError("p must be > 1")


def cauchy_diagnostic(ensembles: list[PathEnsemble], p: float = 2.0) -> Report:
    """Matrix of E sup_t |Delta_t|^p over coupled ensemble pairs.

    Also estimates eta(n, m) from the empirical laws (histograms on the
    ensembles' grid) and checks that the worst entry at each refinement
    level is nonincreasing within two standard errors.
    """
    _check_cauchy(len(ensembles), p)
    _check_paths(ensembles[0].n_paths)
    k = len(ensembles)
    esup = np.zeros((k, k))
    se = np.zeros((k, k))
    eta = np.zeros((k, k))
    T = float(ensembles[0].times[-1])
    for n in range(k - 1):
        # eta[n, m] reads the law of the coarser member n only: one law is
        # alive at a time, and no pair's (N, nt) gaps while it is built
        law = Law.from_ensemble(ensembles[n])
        for m in range(n + 1, k):
            samples = np.max(_coupled(ensembles[n], ensembles[m]),
                             axis=1) ** p
            esup[n, m] = esup[m, n] = samples.mean()
            se[n, m] = se[m, n] = samples.std(ddof=1) / np.sqrt(samples.size)
            eta[n, m] = eta[m, n] = coefficient_distance(
                ensembles[n].field, ensembles[m].field, law, T
            )
        del law
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
                          schedule: list[tuple[float, float]]) -> Report:
    """Block averages of the dyadic band masses along the eps partition.

    beta_k is the time-average of P(2^{-k-1} <= |Delta| < 2^{-k}); each
    block averages beta_k over the dyadic bands contained in one schedule
    interval. Band masses are summable, so the block averages must die out
    along the schedule.
    """
    delta = _coupled(ensA, ensB)
    blocks = []
    betas_all = []
    for (a, b) in schedule:
        ks = [k for k in range(0, 200)
              if a - 1e-15 <= 2.0 ** (-k - 1) and 2.0 ** (-k) <= b + 1e-15]
        betas = []
        for k in ks:
            band = (delta >= 2.0 ** (-k - 1)) & (delta < 2.0 ** (-k))
            betas.append(float(band.mean()))
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


def _check_uniqueness(eps_list) -> None:
    """``uniqueness_map``'s checks that need no paths: the integrand's
    M_{1/eps} needs L = 1/eps >= 1, so each eps lies in (0, 1]."""
    for eps in eps_list:
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"each eps must lie in (0, 1], got {eps}")


def uniqueness_map(x_points, fieldA: CoefficientField, fieldB: CoefficientField,
                   eps_list, t: float, n_paths: int, store: BrownianStore,
                   base_field: CoefficientField | None = None,
                   threshold: float = 0.02) -> Report:
    """Per-initial-condition uniqueness diagnostic.

    For each point x, both regularization builds run n_paths shared-noise
    paths from x as one ``simulate_family`` walk on the store's first
    len(x_points) * n_paths paths, recording every 16th step and the last;
    the report holds E|X_t - X^_t| per x at the last stamp and the a-priori
    integrand M_t^eps(x) = E int_0^t [(M|grad sigma|)^2 + |F| +
    M_{1/eps}|grad F|](X_s) ds for each eps in (0, 1], evaluated along the
    paths of fieldA on the unregularized coefficients (base_field, else
    fieldA).
    """
    x_points = np.asarray(x_points, dtype=float)
    n_x = x_points.size
    if fieldA.grid.d != 1:
        raise ValueError("uniqueness_map is one-dimensional")
    _check_uniqueness(eps_list)
    ensA, ensB = simulate_family([fieldA, fieldB], np.repeat(x_points, n_paths),
                                 t, store.prefix(n_x * n_paths), record_every=16)
    gap = np.abs(ensA.paths[:, -1, 0] - ensB.paths[:, -1, 0])
    n_eps = gap.reshape(n_x, n_paths).mean(axis=1)

    base = base_field if base_field is not None else fieldA
    g = base.grid
    msig = maximal(gradient_magnitude(
        base.diffusion.reshape(g.shape + (-1,)), g), g) ** 2
    absF = np.linalg.norm(base.drift, axis=-1)
    gF = gradient_magnitude(base.drift, g)
    m_eps = {}
    # stamps as an index array (a copy), not a slice (a view): the memory
    # layout of the picked stamps sets the trapezoid's summation order
    stamps = np.arange(ensA.times.size)
    for eps in eps_list:
        integrand = msig + absF + maximal_modified(gF, g, 1.0 / eps)
        per_path = path_time_integrals(ensA.paths, g, integrand, ensA.times,
                                       stamps)
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
