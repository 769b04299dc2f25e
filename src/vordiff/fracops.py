"""Variable-order fractional integral and Caputo operators on time meshes.

Conventions used throughout:

* the order alpha(t) is a polynomial on [0, T] with values in
  [0, alpha_star], alpha_star < 1;
* at an evaluation node t_n the kernel exponent is frozen to
  a = alpha(t_n); no per-step order history is kept;
* the integrand is interpolated piecewise linearly between mesh nodes
  (so its derivative is piecewise constant) and every kernel moment is
  integrated exactly on each subinterval (L1-type product integration);
* a = 0 degenerates to the identity limit D^0 g = g(t) - g(0), which is
  returned exactly instead of evaluating 0-exponent kernels.

All operations are pure functions of their value inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import digamma, gamma

from .errors import DomainError, SingularOrderError

MAX_ORDER_DEGREE = 6


def polyval(coeffs, t):
    """Evaluate sum_j coeffs[j] * t**j for scalar or array t."""
    return np.polynomial.polynomial.polyval(t, np.asarray(coeffs, dtype=float))


def order_range(coeffs, T):
    """Exact minimum and maximum of sum_j coeffs[j] t**j over [0, T].

    The extremes lie at t = 0, t = T or a critical point, so the values
    there and at the real parts of the derivative's roots, clipped to
    [0, T], are compared.  Roots are found in s = t / T after trailing
    derivative terms below machine epsilon times the largest are dropped:
    on [0, 1] they change the derivative only at rounding level, and a
    near-zero leading term would overflow the companion matrix.
    """
    c = np.asarray(coeffs, dtype=float)
    if not np.all(np.isfinite(c)):
        raise DomainError(f"order coefficients must be finite, got {c.tolist()}")
    j = np.arange(1, c.size)
    slope = j * c[1:] * T**j  # derivative coefficients in s = t / T
    size = np.abs(slope)
    big = np.flatnonzero(size > np.finfo(float).eps * size.max(initial=0.0))
    s = np.polynomial.polynomial.polyroots(slope[: big[-1] + 1]) if big.size else []
    vals = polyval(c, np.concatenate(([0.0, T], T * np.clip(np.real(s), 0.0, 1.0))))
    return float(vals.min()), float(vals.max())


def project_admissible(coeffs, T, alpha_star):
    """Map coefficients to an order with values in [0, alpha_star] on [0, T].

    Until order_range passes: if the range is wider than alpha_star, the
    non-constant part is shrunk to a range of 0.999 alpha_star; otherwise
    the constant term is shifted into the box.  One pass can land a
    rounding error outside, and a range that fitted at a large constant
    term can overshoot near zero, so both steps repeat.  The result always
    constructs an OrderFunction; admissible input is returned as is.
    """
    c = np.array(coeffs, dtype=float)
    lo, hi = order_range(c, T)
    while lo < 0.0 or hi > alpha_star:
        if hi - lo > alpha_star:
            c[1:] *= 0.999 * alpha_star / (hi - lo)
        else:
            c[0] += -lo if lo < 0.0 else alpha_star - hi
        lo, hi = order_range(c, T)
    return c


@dataclass
class TimeMesh:
    """Graded time nodes t_n = T * (n/M)**r, n = 0..M.

    r = 1 gives a uniform mesh; r > 1 clusters nodes near t = 0, which is
    where solutions of the model lose smoothness when alpha(0) > 0.
    r is None for meshes built from explicit nodes.
    """

    T: float
    M: int
    r: float | None = 1.0
    nodes: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.nodes is None:
            if self.T <= 0.0:
                raise DomainError(f"mesh horizon T must be positive, got {self.T}")
            if self.M < 1:
                raise DomainError(f"mesh needs M >= 1 intervals, got {self.M}")
            if self.r is None or self.r < 1.0:
                raise DomainError(f"mesh grading r must be >= 1, got {self.r}")
            n = np.arange(self.M + 1, dtype=float)
            self.nodes = self.T * (n / self.M) ** self.r
        else:
            self.nodes = np.asarray(self.nodes, dtype=float)
            if self.nodes.ndim != 1 or self.nodes.size < 2:
                raise DomainError("explicit mesh needs at least two nodes")
            if self.nodes[0] != 0.0:
                raise DomainError("mesh must start at t = 0")
            self.T = float(self.nodes[-1])
            self.M = self.nodes.size - 1
        if np.any(np.diff(self.nodes) <= 0.0):
            raise DomainError("mesh nodes must be strictly increasing")
        self.spacing = np.diff(self.nodes)

    @classmethod
    def from_nodes(cls, nodes):
        nodes = np.asarray(nodes, dtype=float)
        return cls(T=float(nodes[-1]), M=nodes.size - 1, r=None, nodes=nodes)


@dataclass(frozen=True)
class OrderFunction:
    """Polynomial variable order alpha(t) = sum_j coeffs[j] t**j on [0, T].

    Admissibility (0 <= alpha(t) <= alpha_star < 1) is enforced at
    construction on the exact order_range over [0, T].  Polynomials
    are the analytic subclass this library supports; the vanishing of
    (alpha(t) - alpha(0)) ln t as t -> 0 is automatic for them.
    """

    coeffs: tuple
    alpha_star: float
    T: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise DomainError("order polynomial needs at least one coefficient")
        if len(self.coeffs) - 1 > MAX_ORDER_DEGREE:
            raise DomainError(
                f"order polynomial degree {len(self.coeffs) - 1} exceeds "
                f"maximum {MAX_ORDER_DEGREE}"
            )
        if not (0.0 < self.alpha_star < 1.0):
            raise DomainError(
                f"alpha_star must lie in (0, 1), got {self.alpha_star}: "
                "the model requires 0 <= alpha(t) <= alpha_star < 1"
            )
        if self.T <= 0.0:
            raise DomainError(f"order horizon T must be positive, got {self.T}")
        lo, hi = order_range(self.coeffs, self.T)
        if lo < 0.0 or hi > self.alpha_star:
            raise DomainError(
                f"order values span [{lo:.6g}, {hi:.6g}] on [0, {self.T}], "
                f"violating the bound 0 <= alpha(t) <= alpha_star < 1 "
                f"with alpha_star = {self.alpha_star}"
            )

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def alpha0(self):
        """Order at the initial time; controls the solution's smoothness there."""
        return self.coeffs[0]

    def __call__(self, t):
        """alpha(t) at a time t, or elementwise at an array of times."""
        lo, hi = np.min(t), np.max(t)
        if lo < 0.0 or hi > self.T:
            bad = lo if lo < 0.0 else hi
            raise DomainError(f"t = {bad} outside the order's domain [0, {self.T}]")
        value = polyval(self.coeffs, t)
        return float(value) if np.ndim(t) == 0 else value

    @classmethod
    def constant(cls, value, T, alpha_star=None):
        if alpha_star is None:
            alpha_star = max(value, 1e-12)
        return cls((float(value),), alpha_star, T)


@dataclass
class SampledFunction:
    """Function samples g(t_n) on the nodes of a time mesh."""

    mesh: TimeMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.M + 1,):
            raise DomainError(
                f"expected {self.mesh.M + 1} samples (one per node), "
                f"got shape {self.values.shape}"
            )

    @classmethod
    def from_function(cls, mesh, fn):
        return cls(mesh, np.asarray([fn(t) for t in mesh.nodes], dtype=float))


def _check_node(mesh, n):
    if not 1 <= n <= mesh.M:
        raise DomainError(f"node index n = {n} outside 1..{mesh.M}")


def l1_weights(mesh: TimeMesh, n: int, alpha_n: float) -> np.ndarray:
    """Weights w_j with sum_j w_j (g_j - g_{j-1}) the Caputo value at node n.

    w_j = ((t_n - t_{j-1})^(1-a) - (t_n - t_j)^(1-a)) / (Gamma(2-a) h_j)
    for j = 1..n with a = alpha_n.  At a = 0 every weight is exactly 1,
    so the sum telescopes to the identity limit g_n - g_0.
    """
    if alpha_n == 0.0:
        return np.ones(n)
    t = mesh.nodes
    p = (t[n] - t[: n + 1]) ** (1.0 - alpha_n)  # p[n] = 0 exactly
    return (p[:-1] - p[1:]) / (gamma(2.0 - alpha_n) * mesh.spacing[:n])


def l1_diagonal_weights(mesh: TimeMesh, a) -> np.ndarray:
    """Current-step weights w_n of l1_weights(mesh, n, a[n]) for n = 1..M.

    a holds the order at every node t_0..t_M.  w_n = h_n^(1-a) /
    (Gamma(2-a) h_n), which is exactly 1 at a = 0.
    """
    a = np.asarray(a, dtype=float)[1:]
    h = mesh.spacing
    return h ** (1.0 - a) / (gamma(2.0 - a) * h)


def frac_integral_vo(g: SampledFunction, alpha: OrderFunction, n: int) -> float:
    """Variable-order fractional integral of g at node n.

    Approximates (1/Gamma(a)) * int_0^{t_n} g(s) (t_n - s)^(a-1) ds with
    a = alpha(t_n), g piecewise linear between nodes and the kernel
    integrated exactly on each subinterval.
    """
    _check_node(g.mesh, n)
    t = g.mesh.nodes
    a_n = alpha(t[n])
    if a_n == 0.0:
        raise SingularOrderError(
            f"alpha(t_{n}) = 0: the fractional integral degenerates; "
            "use the identity-limit convention of the Caputo operator instead"
        )
    h = g.mesh.spacing[:n]
    lo = t[n] - t[:n]  # t_n - t_{j-1}
    hi = t[n] - t[1 : n + 1]  # t_n - t_j
    m0 = (lo**a_n - hi**a_n) / a_n
    m1 = lo * m0 - (lo ** (a_n + 1.0) - hi ** (a_n + 1.0)) / (a_n + 1.0)
    left = g.values[:n]
    slope = np.diff(g.values[: n + 1]) / h
    return float((left @ m0 + slope @ m1) / gamma(a_n))


def caputo_vo(g: SampledFunction, alpha: OrderFunction, n: int) -> float:
    """Variable-order Caputo derivative of g at node n (L1 discretization).

    Approximates (1/Gamma(1-a)) * int_0^{t_n} g'(s) (t_n - s)^(-a) ds with
    a = alpha(t_n), using difference quotients for g' and exact kernel
    moments.  a = 0 returns g(t_n) - g(t_0) exactly.
    """
    _check_node(g.mesh, n)
    a_n = alpha(g.mesh.nodes[n])
    if a_n == 0.0:
        return float(g.values[n] - g.values[0])
    w = l1_weights(g.mesh, n, a_n)
    return float(w @ np.diff(g.values[: n + 1]))


def _log_kernel_moments(lo, hi, one_minus_a):
    """Exact values of int ln(tau) tau^(-a) dtau over [hi_j, lo_j] per interval.

    Antiderivative tau^(1-a) (ln tau / (1-a) - 1/(1-a)^2); its limit at
    tau = 0 is 0 since 1 - a > 0.
    """

    def anti(tau):
        out = np.zeros_like(tau)
        pos = tau > 0.0
        lt = np.log(tau[pos])
        out[pos] = tau[pos] ** one_minus_a * (
            lt / one_minus_a - 1.0 / one_minus_a**2
        )
        return out

    return anti(lo) - anti(hi)


def order_sensitivity_weights(mesh: TimeMesh, n: int, alpha_value: float) -> np.ndarray:
    """Weights s_j with sum_j s_j (g_j - g_{j-1}) / h_j the order-derivative
    of the Caputo value at node n, for j = 1..n.

    Discretizes (1/Gamma(1-a)) * int_0^{t_n} (psi(1-a) - ln(t_n - s))
    g'(s) (t_n - s)^(-a) ds in the same L1 style as caputo_vo, with
    psi the digamma function and a = alpha_value.  Because the L1 weights
    depend on the order only through a = alpha(t_n), this is the exact
    order-derivative of the discrete operator, not merely a consistent
    approximation.  The weights do not depend on g, so one vector serves
    every function sampled on the mesh.
    """
    _check_node(mesh, n)
    if not 0.0 <= alpha_value < 1.0:
        raise DomainError(f"order value {alpha_value} outside [0, 1)")
    oma = 1.0 - alpha_value
    t = mesh.nodes
    lo = t[n] - t[:n]
    hi = t[n] - t[1 : n + 1]
    m0 = (lo**oma - hi**oma) / oma
    mlog = _log_kernel_moments(lo, hi, oma)
    return (digamma(oma) * m0 - mlog) / gamma(oma)


def caputo_order_sensitivity(g: SampledFunction, alpha_value: float, n: int) -> float:
    """Derivative of the Caputo value of g at node n with respect to the order."""
    weights = order_sensitivity_weights(g.mesh, n, alpha_value)
    slope = np.diff(g.values[: n + 1]) / g.mesh.spacing[:n]
    return float(slope @ weights)
