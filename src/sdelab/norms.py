"""Weighted Sobolev-type norms relative to a law.

Four functionals, each computable by grid quadrature and (where meaningful)
by a pathwise Monte Carlo estimator over a simulated ensemble:

* H1:       value^2 = int int (|f|^2 + (M|grad f|)^2) u dx dt
* W11:      value   = int int M|grad F| u dx dt
* WphiWeak: value   = sup_L phi(L)/(L log L) * int int (|F| + M_L|grad F|) u
* Hhalf:    value^2 = int int (M|d^(1/2) f|)^2 u dx dt   (1-D, periodic box)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, mollify_array
from .laws import Law, _stamps_through
from .maxops import gradient_magnitude, half_derivative, maximal, maximal_modified
from .report import Report, Serialisable
from .sde import _estimate, path_time_integrals

__all__ = [
    "NormValue",
    "h1_norm",
    "w11_norm",
    "wphi_weak_norm",
    "h_half_norm",
    "semicontinuity_probe",
    "holder_domination_check",
]


@dataclass(frozen=True)
class NormValue(Serialisable):
    kind: str
    value: float
    method: str
    T: float
    mc_stderr: float | None = None
    L_grid: tuple | None = None
    argmax_L: float | None = None


def _phi_weight(L):
    """phi(L)/(L log L) for the super-linear weight phi(L) = L sqrt(1 + log L)
    of the weak drift norm.

    This phi keeps the sup finite despite the additive sqrt(log L) inside
    M_L; with phi(L) = L log L that additive term alone makes the sup
    infinite for every drift.
    """
    L = np.asarray(L, dtype=float)
    return L * np.sqrt(1.0 + np.log(L)) / (L * np.log(L))


def _as_components(values, grid: Grid) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    return v.reshape(grid.shape + (-1,))


def _check_law(values, u: Law, T: float) -> None:
    if np.asarray(values).shape[: u.grid.d] != u.grid.shape:
        raise ValueError("field and law grids do not match")
    if u.times.size > 1:
        _stamps_through(u.times, T)


def _sq_mag(comp: np.ndarray) -> np.ndarray:
    return np.sum(comp * comp, axis=-1)


def _sqrt_norm(kind, w, u: Law, T: float, method: str, ensemble) -> NormValue:
    """sqrt of int int w u dx dt: by grid quadrature, or from the pathwise
    mean over ``ensemble`` with its standard error carried through the root."""
    se = mc = None
    if method == "quadrature":
        total = u.time_integral(w, T)
    elif method != "pathwise":
        raise ValueError(f"unknown method {method!r}")
    elif ensemble is None:
        raise ValueError("pathwise method needs an ensemble")
    elif ensemble.grid.d != 1:
        raise ValueError("pathwise estimators are one-dimensional")
    elif ensemble.grid != u.grid:
        raise ValueError("the ensemble and the law must share one grid")
    else:
        keep = _stamps_through(ensemble.times, T)
        total, se = _estimate(path_time_integrals(
            ensemble.paths, ensemble.grid, w, ensemble.times[keep], keep))
    value = float(np.sqrt(max(total, 0.0)))
    if se is not None:
        mc = float(se / (2.0 * value)) if value > 0 else float(np.sqrt(se))
    return NormValue(kind, value, method, T, mc_stderr=mc)


def h1_norm(values, u: Law, T: float, method: str = "quadrature", *,
            ensemble=None) -> NormValue:
    """H1(u) norm of a scalar or component-stacked field; M is ``maximal``
    over its geometric radius schedule."""
    _check_law(values, u, T)
    comp = _as_components(values, u.grid)
    w = _sq_mag(comp) + maximal(gradient_magnitude(comp, u.grid), u.grid) ** 2
    return _sqrt_norm("H1", w, u, T, method, ensemble)


def w11_norm(values, u: Law, T: float) -> NormValue:
    """Degree-1 drift functional int int M|grad F| u dx dt; M is ``maximal``
    over its geometric radius schedule."""
    _check_law(values, u, T)
    comp = _as_components(values, u.grid)
    w = maximal(gradient_magnitude(comp, u.grid), u.grid)
    return NormValue("W11", float(u.time_integral(w, T)), "quadrature", T)


def _l_grid(L_grid) -> tuple:
    """``wphi_weak_norm``'s L grid: e^1 .. e^8 by default; a given grid must
    be finite, start at or above L = e and keep phi(L)/L nondecreasing."""
    if L_grid is None:
        L_grid = tuple(np.exp(np.arange(1, 9)))
    L_grid = tuple(float(L) for L in L_grid)
    if not np.all(np.isfinite(L_grid)):
        raise ValueError("L grid must be finite")
    if min(L_grid) < np.e - 1e-9:
        raise ValueError("L grid must start at or above L = e")
    L = np.asarray(L_grid, dtype=float)
    if np.any(np.diff(L * np.sqrt(1.0 + np.log(L)) / L) < -1e-12):
        raise ValueError("phi(L)/L must be nondecreasing along the grid")
    return L_grid


def wphi_weak_norm(values, u: Law, T: float, L_grid=None) -> NormValue:
    """sup over the L grid of phi(L)/(L log L) * int int (|F|+M_L|grad F|) u,
    with phi(L) = L sqrt(1 + log L) (``_phi_weight``)."""
    _check_law(values, u, T)
    L_grid = _l_grid(L_grid)
    comp = _as_components(values, u.grid)
    mag = np.sqrt(_sq_mag(comp))
    gmag = gradient_magnitude(comp, u.grid)
    vals = []
    for L in L_grid:
        integrand = mag + maximal_modified(gmag, u.grid, L)
        vals.append(_phi_weight(L) * u.time_integral(integrand, T))
    k = int(np.argmax(vals))
    return NormValue("WphiWeak", float(vals[k]), "quadrature", T,
                     L_grid=L_grid, argmax_L=L_grid[k])


def h_half_norm(values, u: Law, T: float) -> NormValue:
    """H^{1/2}(u) norm on a periodic 1-D grid, by grid quadrature; M is
    ``maximal`` over its geometric radius schedule."""
    if u.grid.d != 1:
        raise ValueError("h_half_norm is one-dimensional")
    _check_law(values, u, T)
    dh = half_derivative(np.asarray(values, dtype=float).reshape(u.grid.shape),
                         u.grid)
    w = maximal(np.abs(dh), u.grid) ** 2
    return _sqrt_norm("Hhalf", w, u, T, "quadrature", None)


_PROBES = {"H1": h1_norm, "WphiWeak": wphi_weak_norm, "Hhalf": h_half_norm}


def _check_probe_kind(kind) -> None:
    if not isinstance(kind, str) or kind not in _PROBES:
        raise ValueError(f"kind must be one of {tuple(_PROBES)}")


def semicontinuity_probe(values, grid: Grid, u: Law, deltas, kind: str = "H1",
                         T: float = 1.0) -> Report:
    """Lower-semicontinuity probes along mollification / law-smoothing schedules.

    Checks ||f|| <= min over the schedule tail of ||f_n|| (and the law-side
    variant) up to a relative tolerance of 0.05, which the report records.
    """
    tolerance = 0.05
    _check_probe_kind(kind)
    deltas = sorted(float(d) for d in deltas)
    if len(deltas) < 4:
        raise ValueError("schedule needs at least 4 terms")
    norm = _PROBES[kind]
    base = norm(values, u, T).value
    field_seq = [norm(mollify_array(values, grid, d), u, T).value
                 for d in deltas]
    law_seq = [norm(values, u.smooth(d), T).value for d in deltas]
    slack = tolerance * max(base, 1e-30)
    tail = len(deltas) // 2
    ok_field = base <= min(field_seq[:tail + 1]) + slack
    ok_law = base <= min(law_seq[:tail + 1]) + slack
    return Report(
        name=f"semicontinuity[{kind}]",
        passed=bool(ok_field and ok_law),
        details={
            "kind": kind,
            "norm": base,
            "deltas": deltas,
            "mollified_norms": field_seq,
            "smoothed_law_norms": law_seq,
            "tolerance": tolerance,
        },
    )


def holder_domination_check(values, u: Law, p: float, q: float,
                            T: float | None = None) -> Report:
    """Discrete Hoelder chain for the gradient part of the H1 norm (M is
    ``maximal`` over its geometric radius schedule).

    int int (M|grad f|)^2 u <= ||(M|grad f|)^2||_{L^q_t(L^p_x)}
                               * ||u||_{L^{q'}_t(L^{p'}_x)}
    holds exactly on matching discrete sums; p, q > 1 is required because the
    maximal operator is unbounded on L^1.
    """
    if p <= 1 or q <= 1:
        raise ValueError("p and q must be > 1")
    grid = u.grid
    comp = _as_components(values, grid)
    g2 = maximal(gradient_magnitude(comp, grid), grid) ** 2
    T = u.T if T is None else T
    lhs = u.time_integral(g2, T)

    pp = p / (p - 1)
    qq = q / (q - 1)
    vol = grid.cell_volume
    gx = (vol * np.sum(g2.reshape(-1) ** p)) ** (1.0 / p)
    ux = (vol * np.sum(u.density.reshape(u.times.size, -1) ** pp,
                       axis=1)) ** (1.0 / pp)
    t = u.times
    if t.size == 1:
        span = T
        g_tq = gx * span ** (1.0 / q)
        u_tq = ux[0] * span ** (1.0 / qq)
    else:
        keep = _stamps_through(t, T)
        tt, uu = t[keep], ux[keep]
        g_tq = (np.trapezoid(np.full_like(tt, gx ** q), tt)) ** (1.0 / q)
        u_tq = (np.trapezoid(uu ** qq, tt)) ** (1.0 / qq)
    rhs = float(g_tq * u_tq)
    return Report(
        name="holder_domination",
        passed=bool(lhs <= rhs * (1 + 1e-12)),
        details={"lhs": float(lhs), "rhs": rhs, "p": p, "q": q,
                 "ratio": float(lhs / rhs) if rhs > 0 else 0.0},
    )
