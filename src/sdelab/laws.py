"""Time-indexed probability laws on a grid.

A Law stores one density slice per time stamp, normalized so that
``cell_volume * sum(density) == 1`` (Riemann weights; presets keep their mass
well inside the box, so endpoint weighting is immaterial). The forward
solvers return a Law too, with what their numerics did in ``scheme``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import Grid, _correlate_symmetric
from .report import write_csv

__all__ = ["Law"]


MASS_TOL = 1e-10
# Path x stamp positions per block of a path-block walk, chosen by
# measurement so that a block's temporaries stay in cache; not a setting.
PATH_BLOCK = 2 ** 15


def _gaussian_filter(values: np.ndarray, sigma: float, axis: int) -> np.ndarray:
    """ndimage.gaussian_filter1d(values, sigma, axis, mode="nearest"), bit
    for bit: scipy's taps (radius int(4 sigma + 0.5), exp(-x^2 / 2 sigma^2)
    over their sum, reversed) on values extended by their edge value."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    width = [(0, 0)] * values.ndim
    width[axis] = (radius, radius)
    return _correlate_symmetric(np.pad(values, width, mode="edge"),
                                (phi / phi.sum())[::-1], axis)


def path_blocks(n_paths: int, n_stamps: int, positions: int | None = None):
    """Contiguous path slices of about ``positions`` (default PATH_BLOCK)
    path x stamp positions. No block holds one path unless n_paths is 1:
    numpy sums an (n, nt) stamp selection in stamp order for n >= 2 but
    pairwise for n = 1, which would move that path's quadrature."""
    step = max(2, (positions or PATH_BLOCK) // max(n_stamps, 1))
    starts = range(0, max(n_paths - 1, 1), step)  # a one-path tail merges
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n_paths])]


def _check_horizon(T: float = 1.0, record_every: int = 1) -> None:
    """The path and PDE solvers' rule on a horizon and a recording cadence:
    T > 0 (finite) and record_every a positive integer."""
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if not isinstance(record_every, (int, np.integer)) or record_every < 1:
        raise ValueError(
            f"record_every must be a positive integer, got {record_every!r}")


def _stamps_through(times: np.ndarray, T: float) -> np.ndarray:
    """Mask of the ascending stamps in [0, T], the quadrature nodes of an
    integral up to T; T must be a stamp (to 1e-12), so that no integral
    silently stops at an earlier one."""
    keep = times <= T + 1e-12
    n = int(keep.sum())
    if n == 0 or times[n - 1] < T - 1e-12:
        where = (f"before the first stamp {times[0]:g}" if n == 0 else
                 f"past the last stamp {times[-1]:g}" if n == times.size else
                 f"between the stamps {times[n - 1]:g} and {times[n]:g}")
        raise ValueError(f"T={T:g} is not a recorded stamp: it lies {where}")
    return keep


def _user_steps(T: float, dt: float, cap: float) -> int:
    """Step count of a given dt over [0, T]; the user-dt rule of both the
    PDE and the SDE solvers: dt must not exceed cap (to a relative 1e-12)
    and must divide T (to 1e-9 max(1, T))."""
    if dt > cap * (1 + 1e-12):
        raise ValueError(f"dt={dt:.3e} exceeds the stability cap {cap:.3e}")
    steps = int(round(T / dt))
    if steps < 1 or abs(steps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("dt must divide the horizon T")
    return steps


def _gaussian(grid: Grid, mean=0.0, std=1.0) -> np.ndarray:
    """Unnormalised normal profile on the nodes, the product over axes a of
    exp(-((x_a - mean_a) / std_a)^2 / 2). mean and std have 1 or grid.d
    components; the mean is finite, the std positive and finite."""
    m, s = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (mean, std))
    if m.ndim != 1 or s.ndim != 1 or {m.size, s.size} - {1, grid.d}:
        raise ValueError(f"mean and std must each have 1 or {grid.d} "
                         f"components, got {m.shape} and {s.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"mean must be finite, got {mean}")
    if not np.all(np.isfinite(s) & (s > 0)):
        raise ValueError(f"std must be positive and finite, got {std}")
    m, s = np.broadcast_to(m, grid.d), np.broadcast_to(s, grid.d)
    u = np.ones(grid.shape)  # 1.0 * e is exact: one axis gives e itself
    for ax, x in enumerate(grid.meshgrid()):
        u = u * np.exp(-0.5 * ((x - m[ax]) / s[ax]) ** 2)
    return u


def _mass(grid: Grid, slices: np.ndarray) -> np.ndarray:
    return grid.cell_volume * slices.reshape(slices.shape[0], -1).sum(axis=1)


@dataclass(frozen=True, eq=False)
class Law:
    """``scheme`` is empty except on solver output: ``dt``, ``steps``,
    ``flux`` (always "upwind"), ``method``, ``implicit``, the explicit CFL
    ``cap``, ``dt_over_cap`` and ``mass_drift`` (what the clamps at zero
    added)."""

    grid: Grid
    times: np.ndarray       # (nt,)
    density: np.ndarray     # (nt, *grid.shape), >= 0, mass 1 per slice
    scheme: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        times = np.atleast_1d(np.asarray(self.times, dtype=float))
        density = np.asarray(self.density, dtype=float)
        if density.shape != (times.size,) + self.grid.shape:
            raise ValueError(
                f"density shape {density.shape} != {(times.size,) + self.grid.shape}"
            )
        if not np.all(np.isfinite(density)):
            raise ValueError("density must be finite")
        if np.any(density < 0):
            raise ValueError("density must be nonnegative")
        drift = np.abs(_mass(self.grid, density) - 1.0)
        if np.any(drift > MASS_TOL):
            raise ValueError(f"law slices must have unit mass: drift "
                             f"{drift.max():.3e} exceeds {MASS_TOL}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "density", density)

    def mass(self) -> np.ndarray:
        """Per-stamp mass ``cell_volume * sum(density)``."""
        return _mass(self.grid, self.density)

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def as_law(self) -> "Law":
        return Law.from_density_evolution(self)

    def dump_csv(self, path) -> None:
        """One row per (time, node) observation."""
        mesh = [m.reshape(-1) for m in self.grid.meshgrid()]
        slices = zip(self.times, self.density)
        write_csv(path, ["t"] + [f"x{i}" for i in range(self.grid.d)] + ["u"],
                  ((t, *(m[j] for m in mesh), u) for t, dens in slices
                   for j, u in enumerate(dens.reshape(-1))))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _normalize(grid: Grid, slices: np.ndarray, out=None) -> np.ndarray:
        """``slices`` over their masses, into ``out`` if given (``slices``
        itself only when the caller owns them)."""
        mass = _mass(grid, slices)
        if np.any(mass <= 0):
            raise ValueError("cannot normalize a zero-mass slice")
        return np.divide(slices, mass.reshape((-1,) + (1,) * (slices.ndim - 1)),
                         out=out)

    @classmethod
    def from_slices(cls, grid: Grid, times, slices) -> "Law":
        slices = np.atleast_2d(np.asarray(slices, dtype=float)) \
            if grid.d == 1 else np.asarray(slices, dtype=float)
        if slices.ndim == grid.d:
            slices = slices[None]
        return cls(grid, np.atleast_1d(times), cls._normalize(grid, slices))

    @classmethod
    def gaussian(cls, grid: Grid, times, mean: float = 0.0, std: float = 1.0) -> "Law":
        """Normal profile (``_gaussian``) on a 1-D grid, normalised per slice
        by ``from_slices``."""
        if grid.d != 1:
            raise ValueError("gaussian constructor is one-dimensional")
        return cls.from_slices(grid, times, np.broadcast_to(
            _gaussian(grid, mean, std),
            (np.atleast_1d(times).size,) + grid.shape).copy())

    @classmethod
    def from_ensemble(cls, ensemble, grid: Grid | None = None,
                      bandwidth: float | None = None) -> "Law":
        """Histogram (optionally kernel-smoothed) law of a path ensemble.

        bandwidth, if given, is the standard deviation of a Gaussian
        smoothing kernel in coordinate units (the documented option is two
        cell widths).
        """
        if grid is None:
            grid = ensemble.grid
        # One bincount over (stamp, cell) indices per path block of at least
        # as many positions as bins; the integer counts add up exactly. The
        # bins are those of np.histogramdd on positions clipped into the
        # box: edges[b] <= x < edges[b+1], the last bin closed, NaN dropped.
        # The arithmetic guess is off by at most one bin and is corrected
        # against the edges. (Binning in a helper that frees its temporaries
        # before the slices are allocated cost 4x the page faults.)
        nt = ensemble.times.size
        size = nt * int(np.prod(grid.shape))
        counts = None
        for blk in path_blocks(ensemble.paths.shape[0], nt,
                               max(PATH_BLOCK, size)):
            paths = ensemble.paths[blk]
            cell = np.broadcast_to(np.arange(nt), paths.shape[:2])
            valid = ~np.isnan(paths).any(axis=-1)
            for ax in range(grid.d):
                x = grid.nodes(ax)
                h = grid.h[ax]
                edges = np.concatenate([[x[0] - h / 2], x + h / 2])
                pos = np.clip(paths[..., ax], edges[0], edges[-1])
                with np.errstate(invalid="ignore"):
                    b = ((pos - edges[0]) / h).astype(np.intp)
                np.clip(b, 0, x.size - 1, out=b)
                b -= pos < edges[b]
                b += (pos >= edges[b + 1]) & (b < x.size - 1)
                cell = cell * x.size + b
            block = np.bincount(cell[valid], minlength=size)
            if counts is None:
                counts = block
            else:
                counts += block
        counts = counts.reshape((nt, -1))
        slices = counts / (counts.sum(axis=1, keepdims=True) * grid.cell_volume)
        del counts  # freed before the normalisation, which works in place
        slices = slices.reshape((nt,) + grid.shape)
        if bandwidth is not None:
            for ax in range(grid.d):
                slices = _gaussian_filter(slices, bandwidth / grid.h[ax], 1 + ax)
        return cls(grid, ensemble.times,
                   cls._normalize(grid, slices, out=slices))

    @classmethod
    def from_density_evolution(cls, evolution) -> "Law":
        """A solver's Law with its slices renormalized."""
        density = cls._normalize(evolution.grid, evolution.density)
        return cls(evolution.grid, evolution.times, density,
                   dict(evolution.scheme))

    # -- operations --------------------------------------------------------

    def smooth(self, delta: float) -> "Law":
        """Heat-kernel smoothing at scale delta (weak-* probe sequences)."""
        out = self.density
        for ax, hi in enumerate(self.grid.h):
            out = _gaussian_filter(out, delta / hi, 1 + ax)
        return Law(self.grid, self.times, self._normalize(self.grid, out))

    def expectation(self, values: np.ndarray) -> np.ndarray:
        """Per-stamp expectation of a grid function."""
        v = np.asarray(values, dtype=float)
        flat = self.density.reshape(self.times.size, -1)
        return self.grid.cell_volume * flat @ v.reshape(-1)

    def time_integral(self, values: np.ndarray, T: float | None = None) -> float:
        """int_0^T E[values(X_t)] dt by trapezoid over the stamps up to T,
        which must be one of them (``_stamps_through``); all stamps if T is
        None."""
        e = self.expectation(values)
        t = self.times
        if t.size == 1:
            # single-slice law: treated as time-constant on [0, T]
            return float((T if T is not None else 1.0) * e[0])
        if T is not None:
            keep = _stamps_through(t, T)
            t, e = t[keep], e[keep]
        return float(np.trapezoid(e, t))

    def marginal(self, axis: int) -> "Law":
        """1-D marginal of a 2-D law."""
        if self.grid.d != 2:
            raise ValueError("marginal needs a 2-D law")
        other = 1 - axis
        g = self.grid
        sub = Grid((g.lower[axis],), (g.upper[axis],), (g.counts[axis],),
                   (g.periodic[axis],))
        dens = self.density.sum(axis=2 if other == 1 else 1) * g.h[other]
        return Law(sub, self.times, self._normalize(sub, dens))
