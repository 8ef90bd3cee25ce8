"""Grids, coefficient fields and mollification.

A field lives on a uniform tensor grid in dimension 1 or 2. Non-periodic
axes carry ``count + 1`` nodes including both endpoints; periodic axes carry
``count`` nodes (the right endpoint is identified with the left). Outside the
box a field is extended periodically or by its edge value, per axis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Grid",
    "CoefficientField",
    "Mollifier",
    "make_grid",
    "preset_field",
    "mollify",
    "mollify_array",
    "PRESET_NAMES",
]

MIN_CELLS = 8
# Bytes of one output block of _correlate_footprint, chosen by measurement
# (a block and its product buffer stay in cache); not a setting.
FOOTPRINT_BLOCK = 2 ** 18


@dataclass(frozen=True)
class Grid:
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]
    periodic: tuple[bool, ...]

    @property
    def d(self) -> int:
        return len(self.counts)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((u - l) / c for l, u, c in zip(self.lower, self.upper, self.counts))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(c if p else c + 1 for c, p in zip(self.counts, self.periodic))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def nodes(self, axis: int = 0) -> np.ndarray:
        n = self.shape[axis]
        return self.lower[axis] + self.h[axis] * np.arange(n)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*(self.nodes(a) for a in range(self.d)), indexing="ij"))

    def pad(self, values: np.ndarray, halo: Sequence[int]) -> np.ndarray:
        """Extend values by halo[a] nodes at both ends of grid axis a.

        Periodic axes wrap, the others repeat their edge value; trailing
        component axes are left alone.
        """
        out = np.asarray(values)
        for axis, k in enumerate(halo):
            width = [(0, 0)] * out.ndim
            width[axis] = (k, k)
            out = np.pad(out, width, mode="wrap" if self.periodic[axis] else "edge")
        return out

    @property
    def box_diameter(self) -> float:
        return float(np.hypot(*[u - l for l, u in zip(self.lower, self.upper)])) \
            if self.d == 2 else self.upper[0] - self.lower[0]


def make_grid(d, bounds, counts, periodic=False) -> Grid:
    """Build a uniform grid.

    bounds: (lo, hi) for d=1 or ((lo1, hi1), (lo2, hi2)) for d=2.
    counts: cell count per axis (scalar broadcasts).
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if d == 1 and np.isscalar(bounds[0]):
        bounds = (bounds,)
    counts = (counts,) * d if np.isscalar(counts) else tuple(counts)
    periodic = (periodic,) * d if isinstance(periodic, bool) else tuple(periodic)
    if len(bounds) != d or len(counts) != d or len(periodic) != d:
        raise ValueError("bounds/counts/periodic must match dimension")
    lower, upper = [], []
    for (lo, hi) in bounds:
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("grid bounds must be finite")
        if not lo < hi:
            raise ValueError("grid bounds must satisfy lower < upper")
        lower.append(lo)
        upper.append(hi)
    for c in counts:
        if int(c) != c or c < MIN_CELLS:
            raise ValueError(f"cell count must be an integer >= {MIN_CELLS}, got {c}")
    grid = Grid(tuple(lower), tuple(upper), tuple(int(c) for c in counts), periodic)
    if np.prod(grid.shape, dtype=float) > np.iinfo(np.intp).max // 8:
        raise ValueError(f"a grid of {grid.shape} nodes is too large for an array")
    return grid


def _check_psd(a: np.ndarray) -> None:
    # a has shape (..., d, d); for d<=2 the PSD test is cheap and explicit.
    d = a.shape[-1]
    if d == 1:
        ok = np.all(a[..., 0, 0] >= -1e-12)
    else:
        tr = a[..., 0, 0] + a[..., 1, 1]
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        ok = np.all(tr >= -1e-12) and np.all(det >= -1e-12 * (1.0 + tr ** 2))
    if not ok:
        raise ValueError("diffusion matrix a = sigma sigma*/2 is not positive semidefinite")


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Drift F and diffusion sigma sampled on grid nodes (autonomous).

    drift has shape grid.shape + (d,), diffusion grid.shape + (d, r).
    """

    grid: Grid
    drift: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        d = self.grid.d
        drift = np.asarray(self.drift, dtype=float)
        diffusion = np.asarray(self.diffusion, dtype=float)
        if drift.shape != self.grid.shape + (d,):
            raise ValueError(f"drift shape {drift.shape} != {self.grid.shape + (d,)}")
        if diffusion.shape[:-1] != self.grid.shape + (d,) or diffusion.ndim != d + 2:
            raise ValueError(f"diffusion shape {diffusion.shape} invalid")
        if not (np.all(np.isfinite(drift)) and np.all(np.isfinite(diffusion))):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diffusion)
        a = self._sigma_sigma()
        _check_psd(a)
        if not np.all(np.isfinite(a)):
            raise ValueError("diffusion matrix a = sigma sigma*/2 must be finite")

    @property
    def r(self) -> int:
        return self.diffusion.shape[-1]

    def _sigma_sigma(self) -> np.ndarray:
        return 0.5 * np.einsum("...ik,...jk->...ij", self.diffusion, self.diffusion)

    @property
    def a(self) -> np.ndarray:
        """a = sigma sigma*/2, shape grid.shape + (d, d); computed on the
        first read, then kept read-only (a field never read pays nothing)."""
        a = self.__dict__.get("_a")
        if a is None:
            a = self._sigma_sigma()
            a.flags.writeable = False
            object.__setattr__(self, "_a", a)
        return a

    @property
    def sup_drift(self) -> float:
        return float(np.max(np.linalg.norm(self.drift, axis=-1)))

    @property
    def sup_diffusion(self) -> float:
        return float(np.max(np.linalg.norm(self.diffusion, axis=(-2, -1))))


def _clip_abs(x):
    return np.minimum(np.abs(x), 1.0)


def _kink(x, beta):
    return beta * _clip_abs(x) * np.sign(x)


def _isotropic(grid: Grid, scale: float) -> np.ndarray:
    return np.broadcast_to(scale * np.eye(grid.d),
                           grid.shape + (grid.d, grid.d)).copy()


def _on_line(profile):
    """A one-dimensional preset from profile(x, **params) -> (F, sigma)."""
    def build(grid, **params):
        F, sig = profile(grid.nodes(0), **params)
        return F[:, None], sig[:, None, None]
    return build


def _kinetic(grid, beta, temp):
    x, v = grid.meshgrid()
    diffusion = np.zeros(grid.shape + (2, 1))
    diffusion[..., 1, 0] = np.sqrt(2.0 * temp)
    return np.stack([v, _kink(x, -beta)], axis=-1), diffusion


# name: (grid dimension, None for any; parameter defaults; builder
# (grid, **params) -> (drift, diffusion))
_PRESETS = {
    "ou": (None, {}, lambda grid: (-np.stack(grid.meshgrid(), axis=-1),
                                   _isotropic(grid, np.sqrt(2.0)))),
    "heat": (None, {}, lambda grid: (np.zeros(grid.shape + (grid.d,)),
                                     _isotropic(grid, 1.0))),
    "sqrt_diffusion": (1, {"kappa": 0.0}, _on_line(lambda x, kappa: (
        np.zeros_like(x), np.sqrt(_clip_abs(x) + kappa)))),
    "kink_drift": (1, {"beta": 1.0, "sigma": 1.0}, _on_line(
        lambda x, beta, sigma: (_kink(x, beta), np.full_like(x, sigma)))),
    "degenerate_1d": (1, {}, _on_line(lambda x: (np.zeros_like(x),
                                                 _clip_abs(x)))),
    "kinetic_langevin": (2, {"beta": 1.0, "temp": 0.5}, _kinetic),
}

PRESET_NAMES = tuple(_PRESETS)


def preset_field(name: str, params: dict | None, grid: Grid) -> CoefficientField:
    """Analytic coefficient presets.

    ou:               F = -x, sigma = sqrt(2)            (stationary N(0,1))
    heat:             F = 0,  sigma = 1                  (a = 1/2)
    sqrt_diffusion:   F = 0,  sigma = sqrt(min(|x|,1)+kappa), kappa >= 0
    kink_drift:       F = beta*min(|x|,1)*sign(x), sigma = sigma0 (default 1)
    degenerate_1d:    F = 0,  sigma = min(|x|,1)         (a vanishes at 0)
    kinetic_langevin: on a 2-D (x,v) grid, the phase-space system
                      F = (v, -beta*min(|x|,1)*sign(x)), noise sqrt(2*temp)
                      acting on v only.

    ou and heat take any dimension, kinetic_langevin a 2-D grid, the others
    a 1-D grid.
    """
    params = dict(params or {})
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    dim, defaults, build = _PRESETS[name]
    if dim not in (None, grid.d):
        raise ValueError(f"preset {name!r} is one-dimensional" if dim == 1
                         else f"{name} needs a 2-D (x, v) phase-space grid")
    used = {key: float(params.get(key, v)) for key, v in defaults.items()}
    extra = sorted(set(params) - set(defaults))
    if extra:
        raise ValueError(f"unexpected parameters {extra}")
    for key in ("kappa", "temp"):
        if used.get(key, 0.0) < 0:
            raise ValueError(f"{key} must be >= 0")
    return CoefficientField(grid, *build(grid, **used))


@dataclass(frozen=True)
class Mollifier:
    """Compactly supported smooth bump at scale delta, unit discrete mass."""

    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("mollifier scale delta must be > 0")

    def profile(self, s: np.ndarray) -> np.ndarray:
        """Unnormalized bump exp(-1/(1-(s/delta)^2)) on |s| < delta."""
        s = np.asarray(s, dtype=float)
        q = (s / self.delta) ** 2
        out = np.zeros_like(q)
        inside = q < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - q[inside]))
        return out

    def taps_1d(self, h: float) -> np.ndarray:
        """Normalized discrete kernel at node offsets multiple of h."""
        return self.taps_radial((h,))

    def taps_radial(self, h: Sequence[float]) -> np.ndarray:
        """Normalized radial bump kernel on the lattice of cell widths h
        (one per axis), at node offsets up to the support."""
        if self.delta < 2.0 * max(h):
            raise ValueError(
                f"mollifier scale {self.delta} under-resolved on cell width {max(h)}"
            )
        ks = [int(np.ceil(self.delta / hi)) - 1 for hi in h]
        offsets = [hi * np.arange(-k, k + 1) for hi, k in zip(h, ks)]
        # the radius on the offset lattice; on one axis the signed offsets
        # themselves, which the profile squares
        w = self.profile(functools.reduce(np.hypot, np.ix_(*offsets)))
        w = w / w.sum()  # the centre tap is exp(-1) > 0
        assert abs(w.sum() - 1.0) < 1e-12
        return w


# The two correlation kernels below read an array already extended by the
# taps' half-width (Grid.pad, or an edge pad) and return the inner region.
# Each repeats scipy.ndimage's floating-point operations in its order, so
# their output equals ndimage's bit for bit (tests/test_correlate.py).

def _correlate_symmetric(ext: np.ndarray, w: np.ndarray,
                         axis: int = 0) -> np.ndarray:
    """ndimage.correlate1d's symmetric branch along ``axis``.

    out = x[i] w[c], then out += (x[i-j] + x[i+j]) w[c-j] for j = c down
    to 1, where c = len(w) // 2 and w == w[::-1].
    """
    c = w.size // 2
    if w.size % 2 == 0 or not np.array_equal(w, w[::-1]):
        raise ValueError("symmetric correlation needs odd symmetric taps")
    n = ext.shape[axis] - 2 * c

    def shifted(lo):
        idx = [slice(None)] * ext.ndim
        idx[axis] = slice(lo, lo + n)
        return ext[tuple(idx)]

    out = shifted(c) * w[c]
    pair = np.empty_like(out)
    for j in range(c, 0, -1):
        np.add(shifted(c - j), shifted(c + j), out=pair)
        pair *= w[c - j]
        out += pair
    return out


def _correlate_footprint(ext: np.ndarray, w: np.ndarray) -> np.ndarray:
    """ndimage.correlate with 2-D taps over the leading two axes of ``ext``.

    Starts from 0.0 and adds x w[a, b] over the taps with |w| > DBL_EPSILON
    in C order (ndimage's footprint); trailing axes are carried along. The
    output is walked in blocks of rows that stay in cache across the taps.
    """
    n0, n1 = (e - s + 1 for e, s in zip(ext.shape, w.shape))
    out = np.zeros((n0, n1) + ext.shape[2:])
    keep = np.abs(w) > np.finfo(float).eps
    taps = [(a, b, wab) for (a, b), wab in
            zip(np.argwhere(keep).tolist(), w[keep].tolist())]
    rows = min(n0, max(1, FOOTPRINT_BLOCK // out[0].nbytes))
    product = np.empty((rows,) + out.shape[1:])
    for r0 in range(0, n0, rows):
        block = out[r0:r0 + rows]
        buf = product[:block.shape[0]]
        r1 = r0 + block.shape[0]
        for a, b, wab in taps:
            np.multiply(ext[r0 + a:r1 + a, b:b + n1], wab, out=buf)
            block += buf
    return out


def mollify_array(values: np.ndarray, grid: Grid, delta: float) -> np.ndarray:
    """Convolve node values with the unit-mass bump at scale delta.

    Trailing component axes (beyond grid.d) are smoothed independently.
    """
    moll = Mollifier(delta)
    values = np.asarray(values, dtype=float)
    w = moll.taps_radial(grid.h)
    halo = [(s - 1) // 2 for s in w.shape]
    padded = grid.pad(values.reshape(grid.shape + (-1,)), halo)
    if grid.d == 1:
        out = _correlate_symmetric(padded, w)
    else:
        out = _correlate_footprint(padded, w)
    return out.reshape(values.shape)


def mollify(field: CoefficientField, delta: float) -> CoefficientField:
    """Smooth drift and diffusion at scale delta."""
    drift = mollify_array(field.drift, field.grid, delta)
    diffusion = mollify_array(field.diffusion, field.grid, delta)
    return CoefficientField(field.grid, drift, diffusion)
