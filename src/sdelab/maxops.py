"""Maximal operators and the spectral half-derivative.

Three operators drive every pointwise estimate in this laboratory:

* ``maximal``: sup over a geometric radius schedule of ball averages,
* ``maximal_modified``: the log-thresholded singular-kernel variant
  M_L g(x) = sqrt(log L) + int_{B(x,1)} g(z) 1_{g >= sqrt(log L)}
             / ((1/L + |x-z|) |x-z|^{d-1}) dz,
* ``half_derivative``: the Fourier multiplier |xi|^{1/2} on periodic 1-D grids,

together with ``check_pointwise_bound`` which scans node pairs against the
coefficient-difference inequalities these operators control.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import Grid, _correlate_footprint

__all__ = [
    "RadiusSchedule",
    "ViolationReport",
    "maximal",
    "maximal_modified",
    "half_derivative",
    "gradient",
    "gradient_magnitude",
    "check_pointwise_bound",
    "sample_pairs",
]


@dataclass(frozen=True)
class RadiusSchedule:
    radii: tuple[float, ...]

    @classmethod
    def geometric(cls, grid: Grid) -> "RadiusSchedule":
        """r_k = h 2^k up to half the box diameter, h the widest cell."""
        radii = []
        r = max(grid.h)
        while r <= grid.box_diameter / 2 * (1 + 1e-12):
            radii.append(r)
            r *= 2.0
        return cls(tuple(radii))


# Entries of each per-grid geometry cache below: a run visits a few grids
# with a dozen radii or a few L values each; not a setting.
GEOMETRY_CACHE = 64


@functools.lru_cache(maxsize=GEOMETRY_CACHE)
def _disc_spans(grid: Grid, r: float) -> tuple[tuple[int, int], tuple, int]:
    """(halo, columns, count) of the disc of radius r on a 2-D grid's lattice.

    The disc mask has rows -halo[0]..halo[0] and columns -halo[1]..halo[1];
    ``columns[b]`` is the (first, last) mask row of column b (every column
    holds the centre row, so each is one run), and ``count`` is the number
    of mask nodes.
    """
    hx, hy = grid.h
    ki, kj = int(r / hx), int(r / hy)
    oi = hx * np.arange(-ki, ki + 1)
    oj = hy * np.arange(-kj, kj + 1)
    mask = (oi[:, None] ** 2 + oj[None, :] ** 2) <= r * r + 1e-12
    first = np.argmax(mask, axis=0).tolist()
    last = (2 * ki - np.argmax(mask[::-1], axis=0)).tolist()
    return (ki, kj), tuple(zip(first, last)), int(np.count_nonzero(mask))


def _ball_averages(f: np.ndarray, grid: Grid, radii):
    """Yield the ball average of f at each radius in turn.

    f is extended once, by ``grid.pad`` at the largest halo; each radius reads
    its own extension as the centred sub-block of that array, which equals
    ``grid.pad(f, halo)`` value for value. A 2-D yield is a buffer that the
    next radius overwrites.
    """
    if grid.d == 1:
        # A running sum in ndimage.uniform_filter1d's order, bit for bit: the
        # first window summed in sequence, then one difference per shift.
        ks = [int(r / grid.h[0]) for r in radii]
        top = max(ks)
        big = grid.pad(f, (top,))
        for k in ks:
            size = 2 * k + 1
            ext = big[top - k:top + k + f.size]
            first = np.cumsum(ext[:size])[-1:]
            yield np.cumsum(np.concatenate([first, ext[size:] - ext[:-size]])) / size
        return
    # Row spans of one cumulative sum along axis 0 (a summed-area table in
    # one direction, Crow 1984): mask column b covers rows a0..a1, which add
    # up to C[i+a1+1, j+b] - C[i+a0, j+b]. O(n^2 r) work, O(n^2) memory.
    # Each radius takes the cumulative sum of its own sub-block: differencing
    # one table across radii would change the rounding.
    spans = [_disc_spans(grid, r) for r in radii]
    top = [max(halo[axis] for halo, _, _ in spans) for axis in (0, 1)]
    big = grid.pad(f, top)
    n0, n1 = f.shape
    C = np.zeros((big.shape[0] + 1, big.shape[1]))
    total = np.empty(f.shape)
    tmp = np.empty(f.shape)
    for (ki, kj), columns, count in spans:
        ext = big[top[0] - ki:top[0] + ki + n0, top[1] - kj:top[1] + kj + n1]
        c = C[:ext.shape[0] + 1, :ext.shape[1]]
        np.cumsum(ext, axis=0, out=c[1:])
        total.fill(0.0)
        for b, (a0, a1) in enumerate(columns):
            np.subtract(c[a1 + 1:a1 + 1 + n0, b:b + n1], c[a0:a0 + n0, b:b + n1],
                        out=tmp)
            total += tmp
        np.divide(total, count, out=total)
        yield total


def maximal(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete maximal function: max of the ball averages over the radii of
    ``RadiusSchedule.geometric(grid)``.

    f must be finite and nonnegative (use sites feed |grad sigma| and
    friends); NaN, infinite or negative values are a caller bug and are
    rejected.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} != grid shape {grid.shape}")
    if not np.all(np.isfinite(f)):
        raise ValueError("maximal operator input must be finite")
    if np.any(f < 0):
        raise ValueError("maximal operator input must be nonnegative")
    out = np.full_like(f, -np.inf)
    for avg in _ball_averages(f, grid, RadiusSchedule.geometric(grid).radii):
        np.maximum(out, avg, out=out)
    return out


@functools.lru_cache(maxsize=GEOMETRY_CACHE)
def _ml_kernel_2d(grid: Grid, L: float) -> np.ndarray:
    hx, hy = grid.h
    ki, kj = int(np.floor(1.0 / hx + 0.5)), int(np.floor(1.0 / hy + 0.5))
    oi = hx * np.arange(-ki, ki + 1)
    oj = hy * np.arange(-kj, kj + 1)
    rr = np.hypot(oi[:, None], oj[None, :])
    w = np.zeros_like(rr)
    inside = rr <= 1.0 + 1e-12
    # midpoint rule away from the singularity
    far = inside & (rr > 2.0 * max(hx, hy))
    w[far] = hx * hy / ((1.0 / L + rr[far]) * rr[far])
    # refined 5x5 sub-cell midpoints near the origin, exact disc at the origin
    near = inside & ~far
    ii, jj = np.nonzero(near)
    sub = (np.arange(5) - 2.0) / 5.0
    si = sub * hx
    sj = sub * hy
    for a, b in zip(ii, jj):
        ci, cj = oi[a], oj[b]
        if ci == 0.0 and cj == 0.0:
            # equal-area disc around the singularity:
            # int 2 pi r dr / ((1/L + r) r) = 2 pi log(1 + L R), pi R^2 = hx*hy
            R = np.sqrt(hx * hy / np.pi)
            w[a, b] = 2.0 * np.pi * np.log1p(L * R)
            continue
        pts_r = np.hypot(ci + si[:, None], cj + sj[None, :])
        vals = 1.0 / ((1.0 / L + pts_r) * pts_r)
        w[a, b] = hx * hy * vals.mean()
    w.flags.writeable = False
    return w


def maximal_modified(g: np.ndarray, grid: Grid, L: float) -> np.ndarray:
    """Modified maximal operator M_L with threshold sqrt(log L).

    Near-singular kernel cells use exact (1-D) or refined/analytic (2-D) cell
    integrals; the plain midpoint rule would diverge under grid refinement.
    g must be finite and nonnegative; a NaN would otherwise read as below the
    threshold and vanish.
    """
    if L < 1.0:
        raise ValueError("L must be >= 1")
    g = np.asarray(g, dtype=float)
    if g.shape != grid.shape:
        raise ValueError(f"field shape {g.shape} != grid shape {grid.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("modified maximal operator input must be finite")
    if np.any(g < 0):
        raise ValueError("modified maximal operator input must be nonnegative")
    thr = np.sqrt(np.log(L))
    gt = np.where(g >= thr, g, 0.0)
    if grid.d == 1:
        h = grid.h[0]
        k = int(np.floor(1.0 / h + 0.5))
        centers = h * np.arange(-k, k + 1)
        lo = np.maximum(centers - h / 2, -1.0)
        hi = np.minimum(centers + h / 2, 1.0)

        def anti(s):
            return np.sign(s) * np.log1p(L * np.abs(s))

        w = np.clip(anti(hi) - anti(lo), 0.0, None)
        integral = np.convolve(grid.pad(gt, (k,)), w[::-1], mode="valid")
    else:
        w = _ml_kernel_2d(grid, L)
        halo = [(s - 1) // 2 for s in w.shape]
        integral = _correlate_footprint(grid.pad(gt, halo), w)
    return thr + integral


def half_derivative(sigma: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral half-derivative on a periodic power-of-two 1-D grid."""
    if grid.d != 1:
        raise ValueError("half_derivative is one-dimensional")
    if not grid.periodic[0]:
        raise ValueError(
            "half_derivative needs a periodic grid; embed compactly supported "
            "fields in a large periodic box"
        )
    n = grid.shape[0]
    if n & (n - 1):
        raise ValueError("cell count must be a power of two")
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n,):
        raise ValueError("field shape does not match grid")
    xi = 2.0 * np.pi * np.fft.rfftfreq(n, d=grid.h[0])  # multiplier |xi|^{1/2}
    return np.fft.irfft(np.fft.rfft(sigma) * np.sqrt(np.abs(xi)), n)


def gradient(f: np.ndarray, grid: Grid, axis: int = 0) -> np.ndarray:
    """Second-order centered differences; one-sided at non-periodic edges."""
    f = np.asarray(f, dtype=float)
    h = grid.h[axis]
    if grid.periodic[axis]:
        return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)
    return np.gradient(f, h, axis=axis, edge_order=2)


def gradient_magnitude(f: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad f| for a scalar field, or Frobenius norm for component stacks.

    Component axes (beyond grid.d) are treated as independent scalar fields.
    """
    f = np.asarray(f, dtype=float)
    comps = f.reshape(grid.shape + (-1,))
    total = np.zeros(grid.shape)
    for c in range(comps.shape[-1]):
        for ax in range(grid.d):
            total += gradient(comps[..., c], grid, ax) ** 2
    return np.sqrt(total)


@dataclass(frozen=True)
class ViolationReport:
    violations: int
    worst_ratio: float


def sample_pairs(grid: Grid, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n random node-index pairs (d=1), distinct coordinates per pair."""
    rng = np.random.default_rng(seed)
    m = grid.shape[0]
    i = rng.integers(0, m, size=n)
    j = rng.integers(0, m - 1, size=n)
    j = np.where(j >= i, j + 1, j)
    return i, j


def check_pointwise_bound(
    kind: str,
    values: np.ndarray,
    grid: Grid,
    pairs: tuple[np.ndarray, np.ndarray],
    *,
    L: float | None = None,
    K_cal: float = 1.0,
) -> ViolationReport:
    """Scan node pairs against a pointwise coefficient-difference bound.

    kind='classic':  |f(x)-f(y)| <= (M|grad f|(x)+M|grad f|(y)) |x-y|
    kind='modified': |F(x)-F(y)| <= (h(x)+h(y)) (|x-y| + 1/L),
                     h = |F| + M_L |grad F|   (values plays F; pass L)
    kind='half':     |f(x)-f(y)| <= K_cal (M|d^(1/2) f|(x)+M|d^(1/2) f|(y))
                     |x-y|^(1/2)   (periodic power-of-two grid)

    M is ``maximal`` over its geometric radius schedule. A discretization
    allowance tau = 4 h max|grad f| is added to the right side before
    counting violations. The reported worst ratio divides the left side by
    the *mean*-normalized right side (so smooth equality cases score 1); for
    kind='half' that worst ratio is the empirical calibration constant.
    """
    if grid.d != 1:
        raise ValueError("pair scans are implemented for d=1 grids")
    i, j = pairs
    i = np.asarray(i)
    j = np.asarray(j)
    if i.size == 0:
        raise ValueError("empty pair sample")
    values = np.asarray(values, dtype=float).reshape(grid.shape)
    x = grid.nodes(0)
    dist = np.abs(x[i] - x[j])
    lhs = np.abs(values[i] - values[j])
    gmax = float(np.max(np.abs(gradient(values, grid))))
    tau = 4.0 * grid.h[0] * gmax

    if kind == "classic":
        g = maximal(np.abs(gradient(values, grid)), grid)
        base = (g[i] + g[j]) * dist
        cal = 1.0
    elif kind == "modified":
        if L is None:
            raise ValueError("kind='modified' needs L")
        if L < 1:
            raise ValueError("L must be >= 1")
        hfield = np.abs(values) + maximal_modified(
            np.abs(gradient(values, grid)), grid, L
        )
        base = (hfield[i] + hfield[j]) * (dist + 1.0 / L)
        cal = 1.0
    elif kind == "half":
        g = maximal(np.abs(half_derivative(values, grid)), grid)
        base = (g[i] + g[j]) * np.sqrt(dist)
        cal = K_cal
    else:
        raise ValueError(f"unknown kind {kind!r}")

    rhs = cal * base + tau
    bad = lhs > rhs
    # ratio against the average-normalized right side: equality cases (linear
    # fields under kind='classic') score exactly 1
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(base > 0, lhs / (0.5 * base), np.where(lhs > 0, np.inf, 0.0))
    return ViolationReport(violations=int(np.count_nonzero(bad)),
                           worst_ratio=float(np.max(ratios)))
