"""The maximal operators extend a field once and cache their geometry.

``_ball_averages`` pads its input once, at the largest halo of its radii,
and each radius reads its own extension as a sub-block of that array; the
disc spans per (grid, r), as tuples, and the 2-D M_L kernel per (grid, L),
as a read-only array, are cached. None of it may change a bit: one
multi-radius ``_ball_averages`` call, and ``maximal`` on the geometric
schedule, must equal a fold of ``np.maximum`` over one-radius calls, the 2-D
ball average must equal the mask-per-call code it replaced (the oracle
below), and the 2-D ``maximal_modified`` must keep the digest it had before.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdelab import (
    RadiusSchedule,
    gradient_magnitude,
    make_grid,
    maximal,
    maximal_modified,
    preset_field,
)
from sdelab.maxops import _ball_averages, _disc_spans, _ml_kernel_2d


def _ball_average_oracle(f, grid, r):
    """The 2-D disc average as written before the caches: a fresh mask, a
    fresh extension and each column's rows found by flatnonzero."""
    hx, hy = grid.h
    ki, kj = int(r / hx), int(r / hy)
    oi = hx * np.arange(-ki, ki + 1)
    oj = hy * np.arange(-kj, kj + 1)
    mask = (oi[:, None] ** 2 + oj[None, :] ** 2) <= r * r + 1e-12
    padded = grid.pad(f, (ki, kj))
    C = np.zeros((padded.shape[0] + 1, padded.shape[1]))
    np.cumsum(padded, axis=0, out=C[1:])
    n0, n1 = f.shape
    total = np.zeros(f.shape)
    for b, column in enumerate(mask.T):
        rows = np.flatnonzero(column)
        a0, a1 = rows[0], rows[-1]
        total += C[a1 + 1:a1 + 1 + n0, b:b + n1] - C[a0:a0 + n0, b:b + n1]
    return total / np.count_nonzero(mask)


@st.composite
def _case(draw):
    """A grid (1-D or anisotropic 2-D; edge, wrap or mixed boundaries), its
    geometric radii or a refined or widened list of them, whether that list
    is the geometric one, and a nonnegative field."""
    d = draw(st.sampled_from([1, 2]))
    lo = draw(st.floats(-5.0, 0.0))
    if d == 1:
        grid = make_grid(1, (lo, lo + draw(st.floats(0.5, 12.0))),
                         draw(st.integers(8, 120)), periodic=draw(st.booleans()))
    else:
        widths = [draw(st.floats(1.0, 6.0)) for _ in range(2)]
        grid = make_grid(2, tuple((lo, lo + w) for w in widths),
                         [draw(st.integers(8, 40)) for _ in range(2)],
                         periodic=tuple(draw(st.booleans()) for _ in range(2)))
    radii = RadiusSchedule.geometric(grid).radii
    geometric = True
    if draw(st.booleans()):
        r = np.asarray(radii)
        radii = tuple(np.sort(np.concatenate([r, np.sqrt(r[:-1] * r[1:])])))
        geometric = False
    if d == 1 and draw(st.booleans()):
        # windows up to four box widths wrap the extension more than once
        wide = draw(st.lists(st.floats(1.0, 4.0), min_size=1, max_size=3,
                             unique=True))
        radii = radii + tuple(sorted(w * grid.box_diameter for w in wide))
        geometric = False
    seed = draw(st.integers(0, 2 ** 32 - 1))
    f = np.random.default_rng(seed).exponential(1.0, grid.shape)
    return grid, radii, geometric, f


@settings(max_examples=120, deadline=None)
@given(case=_case())
def test_maximal_is_the_fold_of_one_radius_averages(case):
    grid, radii, geometric, f = case
    fold = np.full(grid.shape, -np.inf)
    for r in radii:
        avg = next(_ball_averages(f, grid, (r,)))
        if grid.d == 2:
            assert np.array_equal(avg, _ball_average_oracle(f, grid, r))
        fold = np.maximum(fold, avg)
    for _ in range(2):  # cold, then from the cached spans
        joint = np.full(grid.shape, -np.inf)
        for avg in _ball_averages(f, grid, radii):
            np.maximum(joint, avg, out=joint)
        assert np.array_equal(joint, fold)
    if geometric:
        assert np.array_equal(maximal(f, grid), fold)


def test_maximal_modified_keeps_its_digest_where_the_threshold_bites():
    grid = make_grid(2, ((-4.0, 4.0), (-4.0, 4.0)), 64)
    g = gradient_magnitude(preset_field("kinetic_langevin", {}, grid).drift, grid)
    L = 3.0
    above = np.mean(g >= np.sqrt(np.log(L)))
    assert 0.2 < above < 0.3  # the threshold keeps some nodes and drops others
    for _ in range(2):  # cold, then from the cached kernel
        out = maximal_modified(g, grid, L)
        assert hashlib.sha256(out.tobytes()).hexdigest() == \
            "8cf6bd5e482328e5db4bc9d7dd9d0f95521858b6c5dc2bb3f6a42d5061bdb515"


def test_cached_geometry_is_shared_and_read_only():
    def plane():
        return make_grid(2, ((-1.0, 1.0), (-2.0, 2.0)), (16, 24))

    kernel = _ml_kernel_2d(plane(), 3.0)
    assert _ml_kernel_2d(plane(), 3.0) is kernel
    assert not kernel.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kernel[0, 0] = 1.0
    spans = _disc_spans(plane(), 0.5)
    assert _disc_spans(plane(), 0.5) is spans
    halo, columns, count = spans  # tuples of ints: nothing to write to
    assert isinstance(columns, tuple) and len(columns) == 2 * halo[1] + 1
    assert count == sum(a1 - a0 + 1 for a0, a1 in columns)
