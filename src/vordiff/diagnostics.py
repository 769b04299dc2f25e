"""Numerical diagnosis of initial-time regularity.

Solutions of the model are smooth up to t = 0 when the order vanishes
there (with its value growing like alpha'(0) t), but when alpha(0) > 0
the second time derivative blows up like t^{-alpha(0)}.  These routines
estimate that exponent from second differences of a computed field and
evaluate the weighted norm that stays finite exactly when the blow-up
has the predicted strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .forward import SolutionField
from .fracops import _check_orders
from .spectral import sobolev_norm

SMOOTH_SLOPE_THRESHOLD = 0.1
MIN_FIT_SAMPLES = 8
MIN_MESH_M = 64  # mesh intervals needed to difference a field twice
ROUNDING_MARGIN = 100.0  # differences kept: gamma-norm >= this times their rounding bound
EXCITED_SHARE = 1e-8  # u0 excites mode i when |c_i(0)| > this times the largest |c(0)|


@dataclass
class RegularityReport:
    alpha0: float
    fitted_slope: float
    weighted_norm: float
    fit_window: tuple

    @property
    def expected_slope(self):
        return -self.alpha0

    @property
    def verdict(self):
        return "smooth" if abs(self.fitted_slope) < SMOOTH_SLOPE_THRESHOLD else "singular"


def _difference_norms(field: SolutionField, gamma: float):
    """(sup_u, du, t, d2u, dd2): the one pass over the field that the diagnosis reads.

    sup_u = max_t |u|_gamma; du and d2u are the gamma-norms of the first and the
    three-point second divided differences (non-uniform nodes allowed), dd2 the
    second differences per mode, and t the interior nodes of d2u and dd2.  A
    difference is kept where its norm is at least ROUNDING_MARGIN times its
    rounding bound, 2 eps sup_u / h or 4 eps sup_u / (h1 h2).
    Needs M >= MIN_MESH_M.
    """
    if field.mesh.M < MIN_MESH_M:
        raise DomainError(
            f"need a mesh with M >= {MIN_MESH_M} to difference twice, got M = {field.mesh.M}"
        )
    t, U, h = field.mesh.nodes, field.values, field.mesh.spacing
    sup_u = sobolev_norm(field.basis, U, gamma).max()
    floor = ROUNDING_MARGIN * np.finfo(float).eps * sup_u
    du = sobolev_norm(field.basis, np.diff(U, axis=1) / h, gamma)
    h1, h2 = h[:-1], h[1:]
    dd2 = 2.0 * (
        U[:, :-2] / (h1 * (h1 + h2)) - U[:, 1:-1] / (h1 * h2) + U[:, 2:] / (h2 * (h1 + h2))
    )
    d2u = sobolev_norm(field.basis, dd2, gamma)
    keep = d2u >= 4.0 * floor / (h1 * h2)
    return sup_u, du[du >= 2.0 * floor / h], t[1:-1][keep], d2u[keep], dd2[:, keep]


def second_derivative_norms(field: SolutionField, gamma: float):
    """|d^2 u/dt^2 (., t_n)|_gamma as arrays (t, norms) over the interior nodes that
    _difference_norms keeps; a graded mesh resolves the behavior near t = 0."""
    return _difference_norms(field, gamma)[2:4]


def fit_window_mask(t, window):
    """True where window[0] <= t <= window[1]: the samples a fit uses."""
    return (window[0] <= t) & (t <= window[1])


def fit_singularity_exponent(t, values, window) -> float:
    """Least-squares slope of ln(value) against ln(t) inside the window.

    t and values are matching arrays, such as the pair that
    second_derivative_norms returns; one mask selects the samples with
    t_lo <= t <= t_hi.  The slope estimates the exponent p in
    value ~ t^p near t = 0; the model predicts p = -alpha(0).
    """
    t_lo, t_hi = window
    if not 0.0 < t_lo < t_hi:
        raise DomainError(f"degenerate fit window ({t_lo}, {t_hi})")
    t, v = np.asarray(t, dtype=float), np.asarray(values, dtype=float)
    inside = fit_window_mask(t, window)
    count = np.count_nonzero(inside)
    if count < MIN_FIT_SAMPLES:
        raise DomainError(f"only {count} samples inside the fit window, need >= {MIN_FIT_SAMPLES}")
    t, v = t[inside], v[inside]
    if np.any(v <= 0.0):
        raise DomainError("nonpositive norm values cannot be log-fitted")
    slope, _ = np.polyfit(np.log(t), np.log(v), 1)
    return float(slope)


def weighted_cm_norm(field: SolutionField, mu: float, gamma: float) -> float:
    """Discrete weighted norm: C^1 part plus sup_n t_n^(1-mu) |d^2 u/dt^2|_gamma.

    Finite under mesh refinement exactly when the second derivative blows up
    no faster than t^(mu-1); with mu = 1 - alpha(0) that is the predicted
    initial-time behavior for alpha(0) > 0.  The C^1 part is the sup of the
    field's gamma-norms and of its kept first differences' (_difference_norms).
    """
    return _weighted_norm(mu, *_difference_norms(field, gamma)[:4])


def _weighted_norm(mu, sup_u, du, t, d2u):
    """weighted_cm_norm from the parts that _difference_norms returns."""
    if not 0.0 <= mu < 1.0:
        raise DomainError(f"weight exponent mu must lie in [0, 1), got {mu}")
    c1_part = max(float(sup_u), float(du.max(initial=0.0)))
    return c1_part + float((t ** (1.0 - mu) * d2u).max(initial=0.0))


def default_fit_window(T: float) -> tuple:
    """Near t = 0 but above the first steps where differences are noisy."""
    return (T * 1e-3, T * 1e-1)


def _mode_fit_window(basis, c0, window):
    """The slowest mode i with |c0_i| > EXCITED_SHARE max|c0|, and the window capped for it."""
    i, lam = int(np.argmax(np.abs(c0) > EXCITED_SHARE * np.abs(c0).max())), basis.eigenvalues()
    return i, (window[0], window[1] * (lam[0] / lam[i]))


def regularity_report(
    field: SolutionField, alpha0: float, gamma: float, window=None
) -> RegularityReport:
    """Fit the blow-up exponent and evaluate the matching weighted norm.

    alpha0 is the order at t = 0, in [0, 1); the expected log-log slope is -alpha0.
    The weighted norm uses mu = 1 - alpha0 (mu = 0 when alpha0 = 0, where
    the weight is degenerate and the plain norm is reported).  The slope is
    fitted to the second differences of the slowest mode i that u0 excites,
    on the window with its upper end scaled by lambda_1 / lambda_i (recorded in
    the report), so that the mode's own e^(-lambda_i t) decay stays out.  When
    it holds MIN_FIT_SAMPLES interior mesh nodes but the rounding floor keeps
    fewer, the DomainError names the floor and the first node it keeps.
    """
    _check_orders(np.array([alpha0], dtype=float))
    if window is None:
        window = default_fit_window(field.mesh.T)
    *parts, dd2 = _difference_norms(field, gamma)
    i, window = _mode_fit_window(field.basis, field.values[:, 0], window)
    t, norms = parts[2], np.abs(dd2[i])  # its gamma weight is a factor, which leaves the slope
    inside = fit_window_mask(t, window)
    kept = np.count_nonzero(inside)
    nodes = np.count_nonzero(fit_window_mask(field.mesh.nodes[1:-1], window))
    if kept < MIN_FIT_SAMPLES <= nodes:
        raise DomainError(
            f"the rounding floor keeps {kept} of the {nodes} interior nodes in the fit "
            f"window, need >= {MIN_FIT_SAMPLES}; the first node it keeps is t = "
            f"{t.min(initial=np.inf):.4e}"
        )
    if np.any(norms[inside] <= 0.0):
        fitted = 0.0
    else:
        fitted = fit_singularity_exponent(t, norms, window)
    mu = 1.0 - alpha0 if alpha0 > 0.0 else 0.0
    return RegularityReport(
        alpha0=alpha0,
        fitted_slope=fitted,
        weighted_norm=_weighted_norm(mu, *parts),
        fit_window=(float(window[0]), float(window[1])),
    )
