"""Recovery of the variable order from interior observations.

A twin experiment synthesizes observations of the solution on a spatial
window (a, b) x [0, T] from a fine mesh, then recovers the polynomial
order on a strictly coarser mesh (the mesh mismatch guards against the
inverse crime of inverting the same discretization that generated the
data).  The optimizer is a projected Gauss-Newton iteration whose
Jacobian columns come from the exact order-derivative of the discrete
Caputo operator, chained through the implicit stepping.

Mode extraction reproduces, at finite dimension, the property that data
on any interior window determines every spectral mode: a least-squares
fit of the sine design matrix per observation time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllPosedExtractionError, _count, _real
from .fracops import (MAX_ORDER_DEGREE, OrderFunction, TimeMesh, _bernstein_maps, _in_s,
                      order_sensitivities, polyval, project_admissible)
from .forward import ModelSpec, default_grading, solve_forward, step_modes
from .spectral import SpectralBasis

CONDITION_LIMIT = 1e8
MAX_NOISE_LEVEL = 0.1
STEP_HALVINGS = 20
_ON_BOUND = 1e-11  # times alpha_star: above project_admissible's margin at every degree


@dataclass
class ObservationSet:
    """Samples u(x_j, t_m) on a spatial window (a, b), optionally noisy.

    values has shape (len(x_points), len(t_points)).  synthesis_mesh
    records (M, r) of the mesh that generated the data, when known, and is
    checked by TimeMesh's rules without building it; see recover_order.
    """

    window: tuple
    x_points: np.ndarray
    t_points: np.ndarray
    values: np.ndarray
    noise_level: float
    seed: int
    synthesis_mesh: tuple | None = None

    def __post_init__(self):
        self.window = (float(self.window[0]), float(self.window[1]))
        a, b = self.window
        if not a < b:
            raise DomainError(f"window ({a}, {b}) must satisfy a < b")
        self.x_points = np.asarray(self.x_points, dtype=float)
        self.t_points = np.asarray(self.t_points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if not all(np.isfinite(v).all() for v in (self.x_points, self.t_points, self.values)):
            raise DomainError("observation x points, t points and values must be finite")
        if not (self.x_points.size and self.t_points.size):
            raise DomainError("observations need at least one x point and one t point")
        if not (self.x_points.min() > a and self.x_points.max() < b):
            raise DomainError("x points must lie strictly inside the window")
        if self.values.shape != (self.x_points.size, self.t_points.size):
            raise DomainError(f"values shape {self.values.shape} inconsistent with "
                              f"{self.x_points.size} x points and {self.t_points.size} t points")
        self.noise_level = _real(self.noise_level, "noise level")
        self.seed = _count(self.seed, "seed", 0)
        if self.synthesis_mesh is not None:
            M, r = self.synthesis_mesh
            self.synthesis_mesh = (_count(M, "synthesis mesh M"),
                                   _real(r, "synthesis mesh r", lo=1))


@dataclass
class InversionConfig:
    """Knobs for the Gauss-Newton order recovery."""

    degree: int = 0
    max_iter: int = 30
    gn_tolerance: float = 1e-8
    tikhonov: float = 0.0
    alpha_star: float = 0.95
    n_modes: int = 8
    init_coeffs: tuple = (0.5,)

    def __post_init__(self):
        if not 0.0 < self.alpha_star < 1.0:
            raise DomainError(f"alpha_star must lie in (0, 1), got {self.alpha_star}")
        if _count(self.degree, "ansatz degree", 0) > MAX_ORDER_DEGREE:
            raise DomainError(f"ansatz degree {self.degree} outside 0..{MAX_ORDER_DEGREE}")
        _real(self.tikhonov, "tikhonov weight")
        _count(self.max_iter, "max_iter")
        _count(self.n_modes, "n_modes")
        _real(self.gn_tolerance, "gn_tolerance")
        if not np.isfinite(self.init_coeffs).all():
            raise DomainError(f"initial guess must be finite, got {self.init_coeffs}")
        if np.size(self.init_coeffs) > self.degree + 1:
            raise DomainError(
                f"initial guess has {np.size(self.init_coeffs)} coefficients but the "
                f"ansatz degree is {self.degree}"
            )


@dataclass
class InversionResult:
    coeffs: tuple
    residual_history: list  # misfit norm at the start and after each accepted iterate
    # why recover_order stopped: "tolerance", "max_iter" or "no_descent"
    stop_reason: str
    inverse_crime: bool | None

    @property
    def converged(self):
        return self.stop_reason == "tolerance"

    @property
    def final_misfit(self):
        return self.residual_history[-1]

    @property
    def iterations(self):
        return len(self.residual_history) - 1


@dataclass
class ModeExtraction:
    """Per-time least-squares mode estimates from windowed observations."""

    values: np.ndarray  # shape (n_modes, len(obs.t_points))
    condition_number: float


@dataclass
class ScanResult:
    candidates: list  # coefficient tuples
    misfits: list

    @property
    def best_index(self):
        return int(np.argmin(self.misfits))


def synthesize_observations(
    spec: ModelSpec,
    window,
    x_count: int,
    t_count: int,
    noise_level: float,
    seed: int,
    refine: int = 4,
    grading: float | None = None,
    n_modes: int = 8,
) -> ObservationSet:
    """Forward-solve on a refine-times-finer mesh and sample the window.

    The observation times are the nodes of the coarse (inversion) mesh
    with t_count intervals; the synthesis mesh shares the grading and has
    refine * t_count intervals, so the coarse nodes are an exact subset.
    Multiplicative Gaussian noise of the given relative level is applied
    with a seeded generator, deterministically.
    """
    a, b = float(window[0]), float(window[1])
    if not 0.0 <= a < b <= spec.L:
        raise DomainError(f"window ({a}, {b}) must lie inside [0, {spec.L}]")
    if not 0.0 <= noise_level <= MAX_NOISE_LEVEL:
        raise DomainError(f"noise level {noise_level} outside [0, {MAX_NOISE_LEVEL}]")
    for name, count in (("x_count", x_count), ("t_count", t_count), ("refine", refine)):
        _count(count, name)
    seed = _count(seed, "seed", 0)
    if spec.alpha is None:
        raise DomainError("synthesis needs the true order on the model")
    if grading is None:
        grading = default_grading(spec.alpha.alpha0)
    fine = TimeMesh(spec.T, refine * t_count, grading)
    field = solve_forward(spec, fine, n_modes)
    j = np.arange(1, x_count + 1, dtype=float)
    x_points = a + (b - a) * j / (x_count + 1)
    t_idx = refine * np.arange(1, t_count + 1)
    t_points = fine.nodes[t_idx]
    phi = field.basis.design_matrix(x_points)
    values = phi @ field.values[:, t_idx]
    if noise_level > 0.0:
        rng = np.random.default_rng(seed)
        values = values * (1.0 + noise_level * rng.standard_normal(values.shape))
    return ObservationSet((a, b), x_points, t_points, values, noise_level, seed,
                          synthesis_mesh=(refine * t_count, grading))


def extract_modes(obs: ObservationSet, basis: SpectralBasis, n_modes: int) -> ModeExtraction:
    """Least-squares mode time series from the windowed samples.

    Solves values(., t_m) ~ sum_{i<=n_modes} u_i(t_m) phi_i(x_j) for every
    observation time at once.  The design-matrix condition number is
    reported; beyond 1e8 the extraction is refused.
    """
    if _count(n_modes, "mode count n_modes") > basis.N:
        raise DomainError(f"mode count {n_modes} outside 1..{basis.N}")
    if obs.x_points.size < 2 * n_modes:
        raise DomainError(
            f"need at least {2 * n_modes} observation x points for "
            f"{n_modes} modes, got {obs.x_points.size}"
        )
    phi = basis.design_matrix(obs.x_points)[:, :n_modes]
    cond = float(np.linalg.cond(phi))
    if cond > CONDITION_LIMIT:
        raise IllPosedExtractionError(
            f"design matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "reduce the mode count or widen the observation window"
        )
    sol, _, _, _ = np.linalg.lstsq(phi, obs.values, rcond=None)
    return ModeExtraction(values=sol, condition_number=cond)


def check_observations(obs: ObservationSet, model: ModelSpec):
    """Reject observations off the model: times outside (0, T], a window outside
    [0, L].  ObservationSet checks what holds for the observations alone."""
    if not np.all((obs.t_points > 0.0) & (obs.t_points <= model.T)):
        raise DomainError(f"observation times must lie in (0, model.T = {model.T}]")
    if not (0.0 <= obs.window[0] and obs.window[1] <= model.L):
        raise DomainError(f"observation window must lie in [0, model.L = {model.L}]")


class _Inversion:
    """What one inversion of obs computes once, whatever the candidate order:
    the mesh of the observation times (plus t = 0), the basis eigenvalues,
    the u0 mode coefficients, k(t_n) and the observation design matrix.
    """

    def __init__(self, obs: ObservationSet, model: ModelSpec, config: InversionConfig):
        check_observations(obs, model)
        self.obs = obs
        self.model = model
        self.config = config
        self.mesh = TimeMesh.from_nodes(np.concatenate(([0.0], obs.t_points)))
        basis = model.basis(config.n_modes)
        self.lam = basis.eigenvalues()
        self.u0 = model.u0_coefficients(basis)
        self.k = polyval(model.k_coeffs, self.mesh.nodes)
        self.phi = basis.design_matrix(obs.x_points)

    def solve(self, alpha_coeffs, tables=None):
        """(alpha(t_n), u_i(t_n), misfit) of a candidate order: u is (N, M+1)
        and the misfit is u(x_j, t_m) - obs values, stacked in x-major order.
        A dict given as tables keeps the step tables for jacobian."""
        cand = OrderFunction(alpha_coeffs, self.config.alpha_star, self.model.T)
        a = cand(self.mesh.nodes)
        u = step_modes(self.mesh, a, self.k, self.lam, self.u0, tables=tables)
        return a, u, (self.phi @ u[:, 1:] - self.obs.values).ravel()

    def jacobian(self, n_coeffs, a, u, tables=None):
        """Residual derivative for an order with n_coeffs coefficients,
        given that order's trajectory (a, u) from solve and, to build no
        step table, the tables that solve kept."""
        mesh = self.mesh
        sens = order_sensitivities(mesh, a, np.diff(u, axis=1) / mesh.spacing)
        t_pow = mesh.nodes ** np.arange(n_coeffs)[:, None]
        forcing = -(self.k * t_pow)[:, None, :] * sens  # (coefficient, mode, node)
        v = step_modes(mesh, a, self.k, self.lam, np.zeros(forcing.shape[:-1]), forcing, tables)
        # residual rows are x-major: row (j, m) = j * n_t + m
        return np.einsum("ji,qim->jmq", self.phi, v[..., 1:]).reshape(-1, n_coeffs)


def residual(alpha_coeffs, obs: ObservationSet, model: ModelSpec, config: InversionConfig):
    """Stacked misfit u_candidate(x_j, t_m) - obs values, x-major order.

    The candidate forward solve runs on the mesh spanned by the observation
    times (plus t = 0), independent of how the data was generated.
    """
    return _Inversion(obs, model, config).solve(alpha_coeffs)[2]


def jacobian(alpha_coeffs, obs: ObservationSet, model: ModelSpec, config: InversionConfig):
    """Derivative of the stacked residual with respect to each coefficient.

    Differentiating the implicit step with respect to the order value and
    chaining d alpha(t_n)/d c_q = t_n^q gives, for v = d u_i / d c_q, the
    recurrence of u_i itself with v_0 = 0 and the forcing -k_n t_n^q S_n,
    where S_n is the exact order-derivative of the discrete Caputo value of
    u_i, the a-derivative of its L1 increment rows (order_sensitivities).
    The coefficient columns are stacked right-hand sides of one step_modes call.
    """
    inv = _Inversion(obs, model, config)
    return inv.jacobian(len(alpha_coeffs), *inv.solve(alpha_coeffs)[:2])


def recover_order(obs: ObservationSet, model: ModelSpec, config: InversionConfig) -> InversionResult:
    """Projected Gauss-Newton over the polynomial order coefficients.

    Minimizes |r(c)|^2 for the stacked residual
    r(c) = [residual(c); sqrt(tikhonov) (c - c_prior)] from init_coeffs
    padded with zeros.  Each step is the least-squares solution of
    [J; sqrt(tikhonov) I] delta = -r by np.linalg.lstsq: an SVD that drops
    singular values below eps * max(rows, columns) times the largest, so a
    rank-deficient J gives the minimum-norm step.  J^T J is never formed.
    An end value alpha(0) or alpha(T) on 0 or alpha_star that the gradient
    pushes out is held there, and the step solves for the other Bernstein
    coefficients (fracops._bernstein_maps), which are not values of the order.
    Steps that do not decrease |r|^2 are halved, and every iterate is
    projected into the admissible bounds with project_admissible, the
    exact check that OrderFunction applies.
    Each trial step is solved once; the Jacobian at the accepted iterate
    reuses that trajectory and its step tables: the tangent pass steps
    every coefficient column on them.  stop_reason records why the loop ended:
    "tolerance" (no coefficient moved more than gn_tolerance, or the misfit
    fell by at most gn_tolerance times the first misfit, so data at any scale
    stop alike), "max_iter", or "no_descent" (no halving decreased |r|^2).
    Requires an initial datum with some mode coefficient nonzero, however
    small, and k(0) != 0, without which the data does not determine the order.
    inverse_crime is None without a recorded synthesis mesh, else true
    exactly when that mesh is the inversion's, [0, *t_points].
    """
    if model.k_at(0.0) == 0.0:
        raise DomainError("order recovery requires k(0) != 0")
    inv = _Inversion(obs, model, config)
    if not inv.u0.any():
        raise DomainError("order recovery requires a nonzero initial datum")
    c = np.zeros(config.degree + 1)
    c[: np.size(config.init_coeffs)] = config.init_coeffs
    c = project_admissible(c, model.T, config.alpha_star)
    prior = c.copy()
    root_mu = np.sqrt(config.tikhonov)

    a, u, res = inv.solve(c, tables := {})
    r = np.concatenate((res, root_mu * (c - prior)))
    history = [float(np.linalg.norm(res))]
    stop_reason = "max_iter"
    (P, Q), T, tol = _bernstein_maps(config.degree), model.T, _ON_BOUND * config.alpha_star
    for _ in range(config.max_iter):
        J = np.vstack((inv.jacobian(c.size, a, u, tables), root_mu * np.eye(c.size)))
        b, g = Q @ _in_s(c, T), P.T @ _in_s(J.T @ r, T, back=True)  # in Bernstein coordinates
        free = ~(((np.abs(b) <= tol) & (g > 0.0)) | ((np.abs(b - config.alpha_star) <= tol) & (g < 0.0)))
        free[1:-1] = True  # the inner b_i are not values of the order, so none is held
        if free.all():
            delta = np.linalg.lstsq(J, -r, rcond=None)[0]
        else:  # hold the coefficients on a bound that g pushes out
            Jb = _in_s(J.T, T, back=True).T @ P[:, free]
            delta = _in_s(P[:, free] @ np.linalg.lstsq(Jb, -r, rcond=None)[0], T, back=True)
        step = 1.0
        for _ in range(STEP_HALVINGS):
            cand = project_admissible(c + step * delta, model.T, config.alpha_star)
            cand_a, cand_u, cand_res = inv.solve(cand, cand_tables := {})
            cand_r = np.concatenate((cand_res, root_mu * (cand - prior)))
            if cand_r @ cand_r <= r @ r:
                break
            step *= 0.5
        else:
            stop_reason = "no_descent"
            break
        moved = float(np.abs(cand - c).max())
        c, a, u, r, tables = cand, cand_a, cand_u, cand_r, cand_tables
        history.append(float(np.linalg.norm(cand_res)))
        drop = abs(history[-2] - history[-1])
        if moved <= config.gn_tolerance or drop <= config.gn_tolerance * history[0]:
            stop_reason = "tolerance"
            break
    crime = None
    if obs.synthesis_mesh is not None:
        M, r = obs.synthesis_mesh
        crime = M == obs.t_points.size and np.array_equal(
            TimeMesh(model.T, M, r).nodes[1:], obs.t_points)
    return InversionResult(
        coeffs=tuple(float(v) for v in c),
        residual_history=history,
        stop_reason=stop_reason,
        inverse_crime=crime,
    )


def uniqueness_scan(obs: ObservationSet, model: ModelSpec, grid, config: InversionConfig) -> ScanResult:
    """Misfit of every candidate coefficient vector; identifies the argmin."""
    candidates = [tuple(float(v) for v in np.atleast_1d(cand)) for cand in grid]
    if not candidates:
        raise DomainError("candidate grid is empty")
    inv = _Inversion(obs, model, config)
    misfits = [float(np.linalg.norm(inv.solve(cand)[2])) for cand in candidates]
    return ScanResult(candidates=candidates, misfits=misfits)
