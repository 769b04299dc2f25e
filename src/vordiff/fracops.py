"""The variable-order Caputo operator and its order-sensitivity on time meshes.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _count, _real

MAX_ORDER_DEGREE = 6
SENSITIVITY_BLOCK = 64  # nodes per weight block in order_sensitivities


def polyval(coeffs, t):
    """Evaluate sum_j coeffs[j] * t**j for scalar or array t, by Horner's
    rule in the operation order of numpy.polynomial's polyval."""
    c = np.asarray(coeffs, dtype=float)
    v = c[-1] + t * 0
    for cj in c[-2::-1]:
        v = cj + v * t
    return v


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
    slope = np.arange(1, c.size) * _in_s(c, T)[1:]  # derivative coefficients in s = t / T
    size = np.abs(slope)
    big = np.flatnonzero(size > np.finfo(float).eps * size.max(initial=0.0))
    s = np.roots(slope[big[-1] :: -1]) if big.size else []
    vals = polyval(c, np.concatenate(([0.0, T], T * np.clip(np.real(s), 0.0, 1.0))))
    return float(vals.min()), float(vals.max())


def _in_s(c, T, back=False):
    """c_q T^q, the coefficients in s = t / T of sum_q c_q t^q (with back, c_q / T^q),
    for each column of c: one factor of T at a time, so no T**q overflows."""
    g = np.array(c, dtype=float)
    for q in range(1, len(g)):
        g[q:] = g[q:] / T if back else g[q:] * T
    return g


def _bernstein_maps(d):
    """(P, Q) with g = P b and b = Q g, for the coefficients g of a polynomial of
    degree d in s and its Bernstein coefficients b, sum_i b_i C(d, i) s^i (1 - s)^(d - i):
    P[q, i] = C(d, q) C(q, i) (-1)^(q - i) and Q[i, q] = C(i, q) / C(d, q)."""
    k = range(d + 1)
    P = [[math.comb(d, q) * math.comb(q, i) * (-1) ** (q - i) for i in k] for q in k]
    Q = [[math.comb(i, q) / math.comb(d, q) for q in k] for i in k]
    return np.array(P, dtype=float), np.array(Q)


def project_admissible(coeffs, T, alpha_star):
    """Map coefficients to an order with values in [0, alpha_star] on [0, T].

    Admissible input is returned as is.  Otherwise the order's Bernstein
    coefficients b on [0, T], between whose least and greatest the order
    lies, are clipped into [0, alpha_star] and mapped back.  Where rounding
    leaves that outside, b_0 = alpha(0) is clipped exactly and the others a
    margin inside, so the result always constructs an OrderFunction.
    """
    c = np.array(coeffs, dtype=float)
    for margin in (0.0, 24 * 3 ** (c.size - 1) * np.finfo(float).eps * alpha_star):
        lo, hi = order_range(c, T)
        if lo >= 0.0 and hi <= alpha_star:
            return c
        (P, Q), m = _bernstein_maps(c.size - 1), margin * (np.arange(c.size) > 0)  # b_0 exact
        b = np.clip(Q @ _in_s(coeffs, T), m, alpha_star - m)
        g = P @ (b - b[0])  # row 0 of P is e_0 and the others sum to 0 exactly,
        g[0] += b[0]  # so a constant b maps back to exactly (b_0, 0, ..., 0)
        c = _in_s(g, T, back=True)
    return c


@dataclass(eq=False)
class TimeMesh:
    """Graded time nodes t_n = T * (n/M)**r, n = 0..M.

    r = 1 gives a uniform mesh; r > 1 clusters nodes near t = 0, which is
    where solutions of the model lose smoothness when alpha(0) > 0.
    r is None for meshes built from explicit nodes.
    """

    T: float
    M: int
    r: float | None = 1.0
    nodes: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.nodes is None:
            self.T = _real(self.T, "mesh horizon T", positive=True)
            self.M = _count(self.M, "mesh intervals M")
            self.r = _real(self.r, "mesh grading r", lo=1)
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
        if not (np.isfinite(self.nodes).all() and (np.diff(self.nodes) > 0.0).all()):
            raise DomainError("mesh nodes must be finite and strictly increasing")
        self.spacing = np.diff(self.nodes)

    @classmethod
    def from_nodes(cls, nodes):
        """A mesh on explicit nodes; __post_init__ checks them and sets T and M."""
        return cls(T=None, M=None, r=None, nodes=nodes)


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
        _real(self.T, "order horizon T", positive=True)
        lo, hi = order_range(self.coeffs, self.T)
        if lo < 0.0 or hi > self.alpha_star:
            raise DomainError(
                f"order values span [{lo:.6g}, {hi:.6g}] on [0, {self.T}], "
                f"violating the bound 0 <= alpha(t) <= alpha_star < 1 "
                f"with alpha_star = {self.alpha_star}"
            )

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
    if _count(n, "node index n") > mesh.M:
        raise DomainError(f"node index n = {n} outside 1..{mesh.M}")


def _check_orders(a):
    """Raise DomainError unless every order value in a lies in [0, 1)."""
    ok = (a >= 0.0) & (a < 1.0)  # false for NaN too
    if not ok.all():
        raise DomainError(f"order value {a[~ok][0]} outside [0, 1)")


def _kernel_increments(p, a, inc) -> np.ndarray:
    """The L1 increments p_{j-1} - p_j into inc, shared by every builder of
    increment rows: the step's, l1_weights and _sensitivity_weight_rows.  p
    holds the gaps t_n - t_j (clipped at 0) over consecutive nodes j, one row
    per node n with its order in a, and becomes the kernel values p_j =
    (t_n - t_j)^(1-a_n).  A constant order gives a Python-float exponent, so
    numpy's fast scalar paths, such as sqrt at a = 0.5, apply.  Returns inc."""
    p **= float(1.0 - a.flat[0]) if (a == a.flat[0]).all() else (1.0 - a)[..., None]
    return np.subtract(p[..., :-1], p[..., 1:], out=inc)


def l1_weights(mesh: TimeMesh, n: int, alpha_n: float) -> np.ndarray:
    """Weights w_j with sum_j w_j (g_j - g_{j-1}) the Caputo value at node n.

    w_j = ((t_n - t_{j-1})^(1-a) - (t_n - t_j)^(1-a)) / (Gamma(2-a) h_j)
    for j = 1..n with a = alpha_n, Gamma taken from math.gamma: the row of
    _kernel_increments at node n over Gamma(2-a) h_j.  At a = 0 every
    weight is exactly 1, so the sum telescopes to the identity limit
    g_n - g_0.  n must lie in 1..M and alpha_n in [0, 1).
    """
    _check_node(mesh, n)
    a = np.array([alpha_n], dtype=float)
    _check_orders(a)
    if alpha_n == 0.0:
        return np.ones(n)
    h = mesh.spacing[:n]
    p = mesh.nodes[n] - mesh.nodes[None, : n + 1]
    return _kernel_increments(p, a, np.empty((1, n)))[0] / (math.gamma(2.0 - alpha_n) * h)


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


def _digamma(x):
    """Digamma psi(x) for x > 0, elementwise.

    psi(x) = psi(z) - sum_{k<12} 1/(x + k) with z = x + 12, and psi(z) from
    the asymptotic series ln z - 1/(2z) - sum_k B_2k / (2k z^2k) through the
    z^-12 term; at z >= 12 the first term left out is below 1e-16.
    """
    x = np.asarray(x, dtype=float)
    z = x + 12.0
    coeffs = (-1 / 12, 1 / 120, -1 / 252, 1 / 240, -1 / 132, 691 / 32760)
    series = np.log(z) - 0.5 / z + z[..., None] ** -np.arange(2.0, 13.0, 2.0) @ coeffs
    return series - (1.0 / (x[..., None] + np.arange(12.0))).sum(axis=-1)


def _sensitivity_weight_rows(mesh: TimeMesh, n, a) -> np.ndarray:
    """Order-sensitivity weights at the nodes n[r] with orders a[r], one row each.

    Row r holds the weights s_1..s_{n[r]} of caputo_order_sensitivity at
    node n[r] and order a[r], followed by zeros up to the largest node
    index in n.  They are the a-derivative of the L1 increment row
    (p_{j-1} - p_j) / Gamma(2-a), p_j = (t_n - t_j)^(1-a) (0 for t_j >= t_n):
    s_j = (psi(2-a) (p_{j-1} - p_j) - (q_{j-1} - q_j)) / Gamma(2-a) with
    q_j = p_j ln(t_n - t_j); p and its increments come from _kernel_increments.
    psi(2-a) = _digamma(1-a) + 1/(1-a) keeps _digamma on (0, 1].
    """
    _check_orders(a)
    tau = np.maximum(mesh.nodes[n, None] - mesh.nodes[: n.max() + 1], 0.0)  # zero for j >= n
    w = _kernel_increments(p := tau.copy(), a, np.empty((n.size, n.max())))
    q = np.multiply(p, np.log(tau, out=tau, where=tau > 0.0), out=tau)  # 0 where p is
    w *= (_digamma(1.0 - a) + 1.0 / (1.0 - a))[:, None]
    w -= np.subtract(q[:, :-1], q[:, 1:], out=p[:, :-1])  # p is spent
    return np.divide(w, np.fromiter(map(math.gamma, 2.0 - a), float, a.size)[:, None], out=w)


def order_sensitivities(mesh: TimeMesh, a, slopes) -> np.ndarray:
    """Order-derivatives of the Caputo values of many functions at every node.

    a holds alpha(t_n) at every node t_0..t_M and slopes holds the
    difference quotients (g_j - g_{j-1}) / h_j of each function as an
    (N, M) array.  Column n of the (N, M+1) result is sum_j s_j(n, a[n])
    slopes[:, j-1] with the weights of caputo_order_sensitivity, the
    a-derivative of the L1 increment row at node n; column 0 is 0.  The
    weights are built SENSITIVITY_BLOCK nodes at a time and applied with
    one matrix product per block, so memory grows with M, not M^2.
    """
    a = np.asarray(a, dtype=float)
    out = np.zeros((slopes.shape[0], mesh.M + 1))
    for first in range(1, mesh.M + 1, SENSITIVITY_BLOCK):
        n = np.arange(first, min(first + SENSITIVITY_BLOCK, mesh.M + 1))
        out[:, n] = slopes[:, : n[-1]] @ _sensitivity_weight_rows(mesh, n, a[n]).T
    return out


def caputo_order_sensitivity(g: SampledFunction, alpha_value: float, n: int) -> float:
    """Derivative of the Caputo value of g at node n with respect to the order.

    The value is sum_j s_j (g_j - g_{j-1}) / h_j for j = 1..n, with a =
    alpha_value and s_j the a-derivative of the L1 increment row
    (p_{j-1} - p_j) / Gamma(2-a), p_j = (t_n - t_j)^(1-a), that caputo_vo
    applies to the same slopes.  Because the L1 weights depend on the
    order only through a = alpha(t_n), this is the exact order-derivative
    of the discrete operator, not merely a consistent approximation.  The
    weights do not depend on g, so one vector serves every function
    sampled on the mesh.
    """
    _check_node(g.mesh, n)
    weights = _sensitivity_weight_rows(g.mesh, np.array([n]), np.array([float(alpha_value)]))
    slope = np.diff(g.values[: n + 1]) / g.mesh.spacing[:n]
    return float(slope @ weights[0])
