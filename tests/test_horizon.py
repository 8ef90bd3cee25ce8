"""One horizon rule for every time integral over a law's or a path
ensemble's stamps: the integral runs over the stamps up to T, and T must be
one of them (``laws._stamps_through``). A T between two stamps, or past the
last, raises instead of stopping silently at the stamp before it; a
single-slice law stays constant in time on [0, T].
"""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sdelab as sl
from sdelab import sde
from sdelab.laws import _stamps_through

GRID = sl.make_grid(1, (-4.0, 4.0), 64)
STAMPS = [0.0, 0.25, 0.5, 0.75, 1.0]
# five slices of different widths, so each stamp weighs differently
LAW = sl.Law.from_slices(GRID, STAMPS, [
    np.exp(-0.5 * (GRID.nodes(0) / s) ** 2) for s in (0.5, 0.8, 1.1, 1.4, 1.7)])
BETWEEN = "T=0.7 is not a recorded stamp: it lies between the stamps 0.5 and 0.75"


def test_time_integral_stops_only_at_a_stamp():
    ones = np.ones(GRID.shape)
    assert LAW.time_integral(ones, T=0.75) == pytest.approx(0.75, rel=1e-12)
    assert LAW.time_integral(ones) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match=re.escape(BETWEEN)):
        LAW.time_integral(ones, T=0.7)
    with pytest.raises(ValueError, match="past the last stamp 1"):
        LAW.time_integral(ones, T=1.25)
    # a single-slice law is constant in time on [0, T] for any T
    single = sl.Law.gaussian(GRID, [0.0])
    assert single.time_integral(ones, T=0.7) == pytest.approx(0.7, rel=1e-12)


def test_the_norms_take_the_same_rule():
    drift = sl.preset_field("ou", {}, GRID).drift
    with pytest.raises(ValueError, match=re.escape(BETWEEN)):
        sl.w11_norm(drift, LAW, T=0.7)
    with pytest.raises(ValueError, match=re.escape(BETWEEN)):
        sl.h1_norm(drift, LAW, T=0.7)
    assert sl.w11_norm(drift, LAW, T=0.75).value < \
        sl.w11_norm(drift, LAW, T=1.0).value


def test_the_pathwise_estimator_takes_the_same_rule():
    field = sl.preset_field("ou", {}, GRID)
    store = sde.BrownianStore.generate(3, 8, 20, 0.01)
    ens = sde.simulate_ensemble(field, 0.0, 0.2, store, record_every=5)
    assert ens.times.tolist() == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])
    law = sl.Law.gaussian(GRID, [0.0])
    full = sl.h1_norm(field.drift, law, T=0.2, method="pathwise", ensemble=ens)
    part = sl.h1_norm(field.drift, law, T=0.1, method="pathwise", ensemble=ens)
    assert 0 < part.value < full.value
    with pytest.raises(ValueError, match="between the stamps 0.05 and 0.1"):
        sl.h1_norm(field.drift, law, T=0.07, method="pathwise", ensemble=ens)
    with pytest.raises(ValueError, match="past the last stamp 0.2"):
        sl.h1_norm(field.drift, law, T=0.3, method="pathwise", ensemble=ens)


def _trapezoid(values, times):
    return sum((times[k + 1] - times[k]) * (values[k] + values[k + 1]) / 2.0
               for k in range(len(times) - 1))


def test_holder_domination_on_a_multi_stamp_law():
    """lhs is the law's own time integral of (M|grad f|)^2 up to T, and rhs
    the product ||(M|grad f|)^2||_{L^q_t(L^p_x)} ||u||_{L^q'_t(L^p'_x)} over
    the stamps up to T, summed here by hand."""
    f = np.sin(GRID.nodes(0))
    p, q, T = 3.0, 4.0, 0.75
    rep = sl.holder_domination_check(f, LAW, p, q, T)
    g2 = sl.maximal(sl.gradient_magnitude(f, GRID), GRID) ** 2
    assert rep.details["lhs"] == LAW.time_integral(g2, T)

    pp, qq = p / (p - 1.0), q / (q - 1.0)
    h = GRID.cell_volume
    gx = (h * np.sum(g2 ** p)) ** (1.0 / p)
    kept = STAMPS[:4]
    ux = [(h * np.sum(LAW.density[k] ** pp)) ** (1.0 / pp) for k in range(4)]
    g_tq = _trapezoid([gx ** q] * 4, kept) ** (1.0 / q)
    u_tq = _trapezoid([v ** qq for v in ux], kept) ** (1.0 / qq)
    assert rep.details["rhs"] == pytest.approx(g_tq * u_tq, rel=1e-12)
    assert rep.passed and 0 < rep.details["ratio"] <= 1.0
    with pytest.raises(ValueError, match=re.escape(BETWEEN)):
        sl.holder_domination_check(f, LAW, p, q, 0.7)


@settings(max_examples=200, deadline=None)
@given(gaps=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=8),
       pick=st.integers(0, 8), offset=st.floats(-2.0, 2.0))
def test_a_horizon_is_kept_exactly_when_it_is_a_stamp(gaps, pick, offset):
    """_stamps_through(t, T) returns t <= T + 1e-12 when T is within 1e-12
    of a stamp, and raises when it is farther from every stamp (distances
    within rounding of 1e-12 itself are not drawn)."""
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    T = float(times[pick % times.size] + offset * 1e-3)
    gap = np.abs(times - T).min()
    assume(not 0.5e-12 < gap < 2e-12)
    if gap <= 1e-12:
        assert np.array_equal(_stamps_through(times, T), times <= T + 1e-12)
    else:
        message = f"T={T:g} is not a recorded stamp"
        with pytest.raises(ValueError, match=re.escape(message)):
            _stamps_through(times, T)
