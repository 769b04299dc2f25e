"""Implicit time stepping for the decoupled fractional mode system.

Expanding the solution of

    u_t + k(t) D^{alpha(t)} u - K u_xx = 0,   u(0,t) = u(L,t) = 0,

in the Dirichlet sine basis decouples it into one scalar problem per mode:

    u_i'(t) + k(t) D^{alpha(t)} u_i(t) = -lambda_i u_i(t),  u_i(0) = (u0, phi_i).

Every mode follows the same first-order implicit scheme: backward
difference for u', the L1 history sum for the Caputo term with the
current-step weight moved to the implicit side, and k, alpha frozen at
the new node.  step_modes advances all modes together, STEP_BLOCK nodes
at a time: each block sums its history from before it at once; the
block's own lower-triangular system is applied through its inverses, built
by recursive doubling once per eigenvalue for a chunk of blocks at a time
and broadcast over any stacked right-hand sides.  The node scalars and
step coefficients are computed and checked once per pass.  Below
SOE_MIN_M intervals the history is the exact L1 sum, the block's kernel
increment rows against the stored slopes, O(M^2); from SOE_MIN_M on it is
a sum of exponentials on a state carried across blocks (Jiang, Zhang,
Zhang & Zhang, Commun. Comput. Phys. 21, 2017) from one exponent table
per block, O(M Q) for at most Q = (33 + ln(45 T / h_min)) / 0.3 terms, 243
at M = 8192 and r = 4.  Either way in M / STEP_BLOCK Python iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericalError, _real
from .fracops import OrderFunction, TimeMesh, _check_orders, _kernel_increments, polyval
from .spectral import SpectralBasis, analyze, analyze_function, sobolev_norm

STEP_BLOCK = 16  # nodes per block in step_modes
CHUNK_INVERSES = 64  # (block, eigenvalue) inverses per chunk of step tables
SOE_MIN_M = 2048  # meshes this fine sum the history by exponentials, see step_modes
SOE_STEP, SOE_CUT = 0.3, 45.0  # trapezoid step in ln x; e^-45 ends a term


def default_grading(alpha0: float) -> float:
    """Mesh grading that resolves the initial-time singularity of order alpha0.

    r = min(4, 2/(1 - alpha0)) when alpha0 > 0; uniform (r = 1) when the
    order vanishes at t = 0 and the solution stays smooth.
    """
    if alpha0 <= 0.0:
        return 1.0
    return min(4.0, 2.0 / (1.0 - alpha0))


@dataclass
class ModelSpec:
    """Problem data: diffusivity K, domain [0, L] x [0, T], reaction
    coefficient k(t) (polynomial), variable order alpha(t), initial datum u0.

    u0 is either a callable of x or samples on a uniform grid including the
    endpoints; it must vanish at x = 0 and x = L.  alpha may be None in
    templates used by the inverse solver, which supplies candidates.
    """

    K: float
    L: float
    T: float
    k_coeffs: tuple
    alpha: OrderFunction | None
    u0: object

    def __post_init__(self):
        self.K, self.L, self.T = (_real(v, "K, L, T", positive=True)
                                  for v in (self.K, self.L, self.T))
        self.k_coeffs = tuple(float(c) for c in self.k_coeffs)
        if not np.isfinite(self.k_coeffs).all():
            raise DomainError(f"k coefficients must be finite, got {self.k_coeffs}")
        if self.alpha is not None and self.alpha.T != self.T:
            raise DomainError(
                f"order horizon {self.alpha.T} does not match model horizon {self.T}"
            )

    def k_at(self, t):
        return float(polyval(self.k_coeffs, t))

    def node_values(self, mesh: TimeMesh):
        """Order and k values at every mesh node, as two (M+1,) arrays."""
        if self.alpha is None:
            raise DomainError("model has no order function; supply one via with_alpha")
        return self.alpha(mesh.nodes), polyval(self.k_coeffs, mesh.nodes)

    def with_alpha(self, alpha: OrderFunction) -> "ModelSpec":
        return replace(self, alpha=alpha)

    def basis(self, N: int) -> SpectralBasis:
        return SpectralBasis(self.K, self.L, N)

    def u0_coefficients(self, basis: SpectralBasis) -> np.ndarray:
        """u0's sine coefficients as an (N,) array."""
        if callable(self.u0):
            return analyze_function(basis, self.u0)
        return analyze(basis, np.asarray(self.u0, dtype=float))


@dataclass
class SolutionField:
    """Truncated sine expansion of the space-time solution.

    values holds the mode coefficients u_i(t_n) as an (N, M+1) array.
    """

    basis: SpectralBasis
    mesh: TimeMesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.basis.N, self.mesh.M + 1):
            raise DomainError(
                f"coefficient array shape {self.values.shape} does not match "
                f"N = {self.basis.N} modes on {self.mesh.M + 1} nodes"
            )


def _block_tables(mesh: TimeMesh, a, k_gam, lam, first: int, count: int, b: int):
    """step_modes' tables of count consecutive b-node blocks from node first:
    C[:, 0] of each block, (count, b, 1), and (T0 + lam_i I)^-1 for each
    eigenvalue in lam, (count, lam.size, b, b), by recursive doubling: each
    diagonal block [[A, 0], [X, D]] of width 2, 4, .. gets its lower-left
    -D^-1 X A^-1, in matmuls batched over all (block, eigenvalue) pairs.
    Each pair has its own small products, so no inverse depends on the others.
    """
    n = first + np.arange(count * b).reshape(count, b)
    j = n[:, :1] - 1 + np.arange(b + 1)
    p = np.maximum(mesh.nodes[n][..., None] - mesh.nodes[j][:, None], 0.0)
    h = mesh.spacing[j[:, :-1]][:, None]  # h_j, j = first_c..last_c
    band = _kernel_increments(p, a[n], np.empty((count, b, b)))
    # in-block history: sum_j C[n, j] (u_j - u_{j-1}), C = (I + k_gam band) / h_j,
    # regrouped on u_j into T0; u_{first-1} goes to the right-hand side
    C = (np.eye(b) + k_gam[n - 1, None] * band) / h
    size = 1 << (b - 1).bit_length()  # a short block is padded with zeros
    T0 = np.zeros((count, size, size))
    T0[:, :b, :b] = C
    T0[:, :b, : b - 1] -= C[..., 1:]
    inv = np.repeat(-T0[:, None], lam.size, axis=1)  # each -X, until its doubling step
    diag = np.diagonal(T0, axis1=1, axis2=2)[:, None] + lam[:, None]
    inv.reshape(count, lam.size, -1)[..., :: size + 1] = 1.0 / diag
    *outer, row, col = inv.strides
    for hw in (1 << i for i in range(size.bit_length() - 1)):  # half widths 1, 2, 4, ..
        d = np.ndarray((count, lam.size, size // (2 * hw), 2 * hw, 2 * hw), float, inv, 0,
                       (*outer, 2 * hw * (row + col), row, col))  # the diagonal blocks
        np.matmul(d[..., hw:, hw:] @ d[..., hw:, :hw], d[..., :hw, :hw], out=d[..., hw:, :hw])
    return C[..., :1], np.ascontiguousarray(inv[..., :b, :b])


def step_modes(mesh: TimeMesh, a, k, lam, u0, forcing=None, tables=None) -> np.ndarray:
    """Step u_i' + k(t) D^{alpha(t)} u_i = -lam_i u_i + f_i(t) for all modes.

    a and k hold alpha(t_n) and k(t_n) at every node, as (M+1,) arrays, and
    lam one eigenvalue per mode, (N,).  u0 holds start values, (..., N), and
    forcing, if given, f_i(t_n), (..., N, M+1) with column 0 unused; leading
    axes stack right-hand sides on the same lam (the Jacobian's columns).
    At node t_n each mode satisfies one linear equation

        u_n (d_n + lam) = u_{n-1} d_n - H_n + f_n,   d_n = 1/h_n + k_n w_n,

    with w_n = h_n^(-a_n) / Gamma(2 - a_n) the implicit L1 weight and the
    history H_n = (k_n / Gamma(2 - a_n)) sum_{j<n} (p_{j-1} - p_j) s_j on
    the slopes s_j = (u_j - u_{j-1}) / h_j, with the raw kernel increments
    of fracops._kernel_increments at order a_n: no row is divided by
    Gamma(2 - a_n) h_j.  Shapes and orders (in [0, 1)) are checked first,
    then every coefficient d_n + lam_i, once per pass and before any row or
    table is built: for k >= 0, lam > 0 they are strictly positive and the
    scheme is unconditionally stable; otherwise the first failing node, and
    the first failing mode there, is reported.  Returns (..., N, M+1).

    The nodes are stepped STEP_BLOCK at a time.  Per block, the history over
    the m slopes from before it is one matrix-vector product per right-hand
    side, the block's increment rows (fracops._kernel_increments, in two
    work buffers) against the stored slopes s_1..s_m.  At a_n = 0 the
    increments are the steps h_j, so that order needs no case of its own.
    The block's own equations form the lower-triangular system
    (T0 + lam_i I) u = r_i with T0 independent of the mode.  Its inverses,
    one per entry of lam, come from _block_tables CHUNK_INVERSES // N blocks
    at a time; one broadcast matmul applies them to every right-hand side.
    Given a dict as tables, every chunk's tables are kept, not dropped once
    stepped: an empty dict is filled, a filled one (same mesh, a, k and lam)
    is read.  No right-hand side's arithmetic mixes with another's, so each
    is bitwise the same whichever others share the call.

    From M = SOE_MIN_M on (for T < 1e280 and h_min > 1e-295, so that each
    x_l is a normal float), the history is a sum of exponentials: the
    trapezoid rule of step SOE_STEP in s = ln x on Gamma(a) tau^-a =
    int x^a e^(-x tau) ds, from s = -33 - ln T (the terms below, where
    x tau <= e^-33, summed in closed form as c(a)) to ln(45 / h_min).  As
    p_{j-1} - p_j = (1 - a) int tau^-a over (t_{j-1}, t_j), the history is
    (1 - a) (c(a) (u_m - u_0) + sum_l v_l e^(-x_l (t_n - t_m)) Y_l) with
    v_l = SOE_STEP x_l^(a-1) / Gamma(a), on the states Y_l = sum_{j<=m} s_j
    (e^(-x_l (t_m - t_j)) - e^(-x_l (t_m - t_{j-1}))).  Per block, one
    exponent product from a table built before the loop, and one exp, give
    the history terms and the decays that carry Y to the block's last node,
    where its slopes extend Y by one gemv per right-hand side.  A term with
    x_l min_{j>m} h_j > SOE_CUT stays below e^-45 from block m on and is
    dropped.  The weights ride in the exponent, so a = 0 leaves exactly
    u_m - u_0.  Against the exact sum: 5e-16 to 3e-15 of max|u|.
    """
    a, k = np.asarray(a, dtype=float), np.asarray(k, dtype=float)
    lam, u0 = np.asarray(lam, dtype=float), np.asarray(u0, dtype=float)
    forcing = None if forcing is None else np.asarray(forcing, dtype=float)
    M, N = mesh.M, lam.size
    for name, value, shape in (("a", a, (M + 1,)), ("k", k, (M + 1,)), ("lam", lam, (N,)),
                               ("u0", u0, (*u0.shape[:-1], N)),
                               ("forcing", forcing, (*u0.shape, M + 1))):
        if value is not None and value.shape != shape:
            raise DomainError(f"{name} has shape {value.shape}, expected {shape}")
    _check_orders(a)
    if np.any(lam <= 0.0):
        raise DomainError(f"eigenvalue must be positive, got {lam[lam <= 0.0][0]}")
    t, h, a_n, k_n = mesh.nodes, mesh.spacing, a[1:], k[1:]
    gam = (math.gamma(2.0 - a_n[0]) if (a_n == a_n[0]).all()
           else np.fromiter(map(math.gamma, 2.0 - a_n), float, M))
    k_gam = k_n / gam
    d = 1.0 / h + k_gam * h**-a_n
    coef = d[:, None] + lam  # (M, N) step coefficients, node-major
    ok = (coef > 0.0) & (coef < np.inf)  # false for NaN too
    if not ok.all():
        n, i = divmod(int(np.argmin(ok)), N)  # first failing node, then mode
        raise NumericalError(
            f"non-invertible step coefficient {coef[n, i]:.6g} at node {n + 1} "
            f"(t = {mesh.nodes[n + 1]:.6g}, k = {k_n[n]:.6g}, lam = {lam[i]:.6g}, "
            f"alpha = {a_n[n]:.6g}); the scheme requires k >= 0 and lam > 0"
        )
    inputs = (mesh.nodes, a, k, lam)
    built = inputs if tables is None else tables.setdefault("inputs", tuple(map(np.copy, inputs)))
    if not all(map(np.array_equal, built, inputs)):
        raise DomainError("step tables were built for another mesh, order, k or eigenvalues")
    u = np.empty((*u0.shape, M + 1))
    u[..., 0] = u0
    B, kg = min(STEP_BLOCK, M), k_gam[:, None]
    soe = M >= SOE_MIN_M and mesh.T < 1e280 and h.min() > 1e-295  # see the docstring
    if soe:
        s = np.arange(-33.0 - math.log(mesh.T), math.log(SOE_CUT / h.min()), SOE_STEP)
        x, cut = np.exp(s), np.minimum.accumulate(h[::-1])[::-1]  # cut[m] = min_{j>m} h_j
        Y = np.zeros((*u0.shape, s.size))  # Y_l of every right-hand side
        # (1 - a) SOE_STEP / Gamma(a) by the reflection formula, and (1 - a) c(a)
        w = SOE_STEP / math.pi * np.sin(np.pi * np.minimum(a_n, 1.0 - a_n)) * gam
        c = np.divide(w * np.exp(s[0] * a_n), np.expm1(SOE_STEP * a_n), np.ones(M), where=a_n > 0)
        lw = np.log(w, out=np.full(M, -1e300), where=w > 0)  # a = 0: e^-1e300 = 0, no term
        # row i: (ln w_n, a_n - 1, t_n - t_m), n = m + 1 + i; row B + i: (0, 0, t_last - t_{m+i})
        ms = np.arange(0, M, B)
        j = np.minimum(ms[:, None] + np.arange(B + 1), M)  # nodes m..m + B, none past M
        E = np.zeros((ms.size, 2 * B + 1, 3))
        E[:, :B, 0], E[:, :B, 1] = lw[j[:, 1:] - 1], a[j[:, 1:]] - 1.0
        E[:, :B, 2], E[:, B:, 2] = t[j[:, 1:]] - t[ms, None], t[j[:, -1:]] - t[j]
        Qs = np.searchsorted(x, SOE_CUT / cut[ms], "right").tolist()  # past Q, each < e^-45
        sx, cc, hc = np.stack((np.ones(s.size), s, -x)), c[:, None], h[:, None]
        S, sx2 = np.empty((*u0.shape, B)), sx[2:]  # one block's slopes
    else:
        p, inc = np.empty((B, M)), np.empty((B, M))  # one block's kernel and increment rows
        S = np.empty((*u0.shape, M))  # the slopes s_1..s_M, filled block by block
    hist, rhs = np.empty((*u0.shape, B, 1)), np.empty((*u0.shape, B, 1))
    done = 0  # blocks covered by the current chunk's tables
    for q, first in enumerate(range(1, M + 1, B)):
        last = min(first + B - 1, M)
        b, m = last - first + 1, first - 1  # block size, slopes before it
        blk = slice(m, last)
        if q == done:  # full blocks in chunks; a short last block alone
            start, done = q, q + (min(CHUNK_INVERSES // N, M // B - q) or 1)
            chunk = None if tables is None else tables.get(first)  # drops the last chunk
            if chunk is None:
                chunk = _block_tables(mesh, a, k_gam, lam, first, done - start, b)
                if tables is not None:
                    tables[first] = chunk
        # history before the block: numpy runs a stacked matmul as one gemv
        # per right-hand side, so no sum depends on the others (a GEMM's would)
        hb, um = hist[..., :b, :], u[..., m, None, None]
        if soe:
            Q = Qs[q]
            ex = np.exp(np.dot(E[q], sx[:, :Q]))  # the history's terms, then the decays
            np.matmul(ex[:b], Y[..., :Q, None], out=hb)
            hb += cc[blk] * (um - u[..., 0, None, None])
        else:
            gaps = np.subtract(t[first : last + 1, None], t[: m + 1], out=p[:b, : m + 1])
            rows = _kernel_increments(gaps, a_n[blk], inc[:b, :m])
            np.matmul(rows, S[..., :m, None], out=hb)
        r = np.multiply(chunk[0][q - start], um, out=rhs[..., :b, :])
        r -= np.multiply(kg[blk], hb, out=hb)
        if forcing is not None:
            r += forcing[..., first : last + 1, None]
        np.matmul(chunk[1][q - start], r, out=u[..., first : last + 1, None])
        slopes = S[..., :b] if soe else S[..., blk]
        np.subtract(u[..., first : last + 1], u[..., m:last], out=slopes)
        slopes /= h[blk]
        if soe:  # Y_l at t_last: decayed from t_m, plus the block's slopes
            e = ex[B : B + b + 1]
            e[1:] *= np.expm1(np.dot(hc[blk], sx2[:, :Q]))
            Y[..., :Q] *= e[0]
            Y[..., None, :Q] -= slopes[..., None, :] @ e[1:]
    if not np.all(np.isfinite(u)):
        raise NumericalError("trajectory contains non-finite values")
    return u


def solve_mode(lam: float, u0i: float, spec: ModelSpec, mesh: TimeMesh) -> np.ndarray:
    """Step one mode ODE u' + k(t) D^{alpha(t)} u = -lam u through the mesh.

    The one-mode case of step_modes; returns u(t_n) as an (M+1,) array.
    """
    a, k = spec.node_values(mesh)
    return step_modes(mesh, a, k, [lam], [u0i])[0]


def solve_forward(spec: ModelSpec, mesh: TimeMesh, N: int) -> SolutionField:
    """Analyze u0 into N modes, step them together, assemble the field."""
    basis = spec.basis(N)
    c0 = spec.u0_coefficients(basis)
    a, k = spec.node_values(mesh)
    return SolutionField(basis, mesh, step_modes(mesh, a, k, basis.eigenvalues(), c0))


def stability_ratio(field: SolutionField, gamma: float) -> float:
    """max_n |u(., t_n)|_gamma / |u(., 0)|_gamma, a monitored stability measure.

    Both norms come from one sobolev_norm call on the whole (N, M+1) field,
    so a field whose norm peaks at t = 0 gives exactly 1.0.
    """
    norms = sobolev_norm(field.basis, field.values, gamma)
    if norms[0] == 0.0:
        raise DomainError("stability ratio undefined for a zero initial datum")
    return float(norms.max() / norms[0])
