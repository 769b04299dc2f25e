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

from .errors import DomainError, IllPosedExtractionError
from .fracops import OrderFunction, TimeMesh, order_sensitivity_weights, project_admissible
from .forward import ModelSpec, default_grading, solve_forward, step_modes
from .spectral import SpectralBasis

CONDITION_LIMIT = 1e8
MAX_NOISE_LEVEL = 0.1
STEP_HALVINGS = 20


@dataclass
class ObservationSet:
    """Samples u(x_j, t_m) on a spatial window (a, b), optionally noisy.

    values has shape (len(x_points), len(t_points)).  synthesis_mesh and
    inversion_mesh record (M, r) of the generating and target meshes when
    known; they drive the inverse-crime flag.
    """

    window: tuple
    x_points: np.ndarray
    t_points: np.ndarray
    values: np.ndarray
    noise_level: float
    seed: int
    synthesis_mesh: tuple | None = None
    inversion_mesh: tuple | None = None

    def __post_init__(self):
        self.window = (float(self.window[0]), float(self.window[1]))
        a, b = self.window
        if not a < b:
            raise DomainError(f"window ({a}, {b}) must satisfy a < b")
        self.x_points = np.asarray(self.x_points, dtype=float)
        self.t_points = np.asarray(self.t_points, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.x_points.size and not (
            self.x_points.min() > a and self.x_points.max() < b
        ):
            raise DomainError("x points must lie strictly inside the window")
        if self.values.shape != (self.x_points.size, self.t_points.size):
            raise DomainError(
                f"values shape {self.values.shape} inconsistent with "
                f"{self.x_points.size} x points and {self.t_points.size} t points"
            )
        if self.noise_level < 0.0:
            raise DomainError("noise level must be >= 0")


@dataclass
class InversionConfig:
    """Knobs for the Gauss-Newton order recovery."""

    degree: int = 0
    max_iter: int = 30
    gn_tolerance: float = 1e-8
    tikhonov: float = 0.0
    alpha_star: float = 0.95
    n_modes: int = 8
    init_coeffs: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha_star < 1.0:
            raise DomainError(f"alpha_star must lie in (0, 1), got {self.alpha_star}")
        if self.degree < 0 or self.degree > 6:
            raise DomainError(f"ansatz degree {self.degree} outside 0..6")
        if self.tikhonov < 0.0:
            raise DomainError("tikhonov weight must be >= 0")


@dataclass
class InversionResult:
    coeffs: tuple
    residual_history: list
    converged: bool
    final_misfit: float
    iterations: int
    inverse_crime: bool | None


@dataclass
class ModeExtraction:
    """Per-time least-squares mode estimates from windowed observations."""

    t_points: np.ndarray
    values: np.ndarray  # shape (n_modes, len(t_points))
    residual_norms: np.ndarray  # data misfit per observation time
    condition_number: float


@dataclass
class ScanResult:
    candidates: list  # coefficient tuples
    misfits: list
    best_index: int


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
        raise DomainError(
            f"noise level {noise_level} outside [0, {MAX_NOISE_LEVEL}]"
        )
    if x_count < 1 or t_count < 1 or refine < 1:
        raise DomainError("x_count, t_count and refine must be >= 1")
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
    values = phi @ field.coeff_matrix()[:, t_idx]
    if noise_level > 0.0:
        rng = np.random.default_rng(seed)
        values = values * (1.0 + noise_level * rng.standard_normal(values.shape))
    return ObservationSet(
        window=(a, b),
        x_points=x_points,
        t_points=t_points,
        values=values,
        noise_level=noise_level,
        seed=seed,
        synthesis_mesh=(refine * t_count, grading),
        inversion_mesh=(t_count, grading),
    )


def extract_modes(obs: ObservationSet, basis: SpectralBasis, n_modes: int) -> ModeExtraction:
    """Least-squares mode time series from the windowed samples.

    Solves values(., t_m) ~ sum_{i<=n_modes} u_i(t_m) phi_i(x_j) for every
    observation time at once.  The design-matrix condition number is
    reported; beyond 1e8 the extraction is refused.
    """
    if n_modes < 1 or n_modes > basis.N:
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
    resid = np.linalg.norm(obs.values - phi @ sol, axis=0)
    return ModeExtraction(
        t_points=obs.t_points.copy(),
        values=sol,
        residual_norms=resid,
        condition_number=cond,
    )


def _inversion_mesh(obs: ObservationSet) -> TimeMesh:
    return TimeMesh.from_nodes(np.concatenate(([0.0], obs.t_points)))


def residual(alpha_coeffs, obs: ObservationSet, model: ModelSpec, config: InversionConfig):
    """Stacked misfit u_candidate(x_j, t_m) - obs values, x-major order.

    The candidate forward solve runs on the mesh spanned by the observation
    times (plus t = 0), independent of how the data was generated.
    """
    cand = OrderFunction(alpha_coeffs, config.alpha_star, model.T)
    mesh = _inversion_mesh(obs)
    fld = solve_forward(model.with_alpha(cand), mesh, config.n_modes)
    phi = fld.basis.design_matrix(obs.x_points)
    pred = phi @ fld.coeff_matrix()[:, 1:]
    return (pred - obs.values).ravel()


def jacobian(alpha_coeffs, obs: ObservationSet, model: ModelSpec, config: InversionConfig):
    """Derivative of the stacked residual with respect to each coefficient.

    Differentiating the implicit step with respect to the order value and
    chaining d alpha(t_n)/d c_q = t_n^q gives, for v = d u_i / d c_q, the
    recurrence of u_i itself with v_0 = 0 and the forcing -k_n t_n^q S_n,
    where S_n is the exact order-derivative of the discrete Caputo value of
    the already-computed trajectory u_i.  All (coefficient, mode) pairs are
    stepped in one step_modes call.
    """
    cand = OrderFunction(alpha_coeffs, config.alpha_star, model.T)
    mesh = _inversion_mesh(obs)
    spec = model.with_alpha(cand)
    fld = solve_forward(spec, mesh, config.n_modes)
    a, k = spec.node_values(mesh)
    u = fld.coeff_matrix()
    slope = np.diff(u, axis=1) / mesh.spacing
    sens = np.zeros_like(u)
    for n in range(1, mesh.M + 1):
        sens[:, n] = slope[:, :n] @ order_sensitivity_weights(mesh, n, a[n])
    n_coeffs = len(alpha_coeffs)
    t_pow = mesh.nodes ** np.arange(n_coeffs)[:, None]
    forcing = -(k * t_pow)[:, None, :] * sens
    lam = np.tile(fld.basis.eigenvalues(), n_coeffs)
    v = step_modes(mesh, a, k, lam, np.zeros(lam.size), forcing.reshape(lam.size, -1))
    v = v.reshape(n_coeffs, config.n_modes, -1)
    phi = fld.basis.design_matrix(obs.x_points)
    # residual rows are x-major: row (j, m) = j * n_t + m
    return np.einsum("ji,qim->jmq", phi, v[:, :, 1:]).reshape(-1, n_coeffs)


def recover_order(obs: ObservationSet, model: ModelSpec, config: InversionConfig) -> InversionResult:
    """Projected Gauss-Newton over the polynomial order coefficients.

    Minimizes |residual|^2 + tikhonov |c - c_prior|^2 from a constant-0.5
    start (unless configured), halving steps that do not decrease the
    objective and projecting every iterate into the admissible bounds
    with project_admissible, the exact check that OrderFunction applies.
    Requires a nonzero initial datum and k(0) != 0, without which the data
    does not determine the order.
    """
    if model.k_at(0.0) == 0.0:
        raise DomainError("order recovery requires k(0) != 0")
    basis = model.basis(config.n_modes)
    u0c = model.u0_coefficients(basis).values
    if float(np.abs(u0c).max()) <= 1e-12:
        raise DomainError(
            "order recovery requires a nonzero initial datum "
            "(no mode coefficient above threshold)"
        )
    c = np.zeros(config.degree + 1)
    if config.init_coeffs is not None:
        init = np.asarray(config.init_coeffs, dtype=float)
        if init.size > c.size:
            raise DomainError(
                f"initial guess has {init.size} coefficients but the ansatz "
                f"degree is {config.degree}"
            )
        c[: init.size] = init
    else:
        c[0] = 0.5
    c = project_admissible(c, model.T, config.alpha_star)
    prior = c.copy()
    mu = config.tikhonov

    def objective(coeffs, res):
        return float(res @ res + mu * np.sum((coeffs - prior) ** 2))

    res = residual(c, obs, model, config)
    history = [float(np.linalg.norm(res))]
    obj = objective(c, res)
    converged = False
    iterations = 0
    for _ in range(config.max_iter):
        J = jacobian(c, obs, model, config)
        lhs = J.T @ J + mu * np.eye(c.size)
        rhs = -(J.T @ res) - mu * (c - prior)
        try:
            delta = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        step = 1.0
        accepted = False
        for _ in range(STEP_HALVINGS):
            cand = project_admissible(c + step * delta, model.T, config.alpha_star)
            cand_res = residual(cand, obs, model, config)
            cand_obj = objective(cand, cand_res)
            if cand_obj <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        moved = float(np.abs(cand - c).max())
        c, res, obj = cand, cand_res, cand_obj
        history.append(float(np.linalg.norm(res)))
        iterations += 1
        rel_drop = abs(history[-2] - history[-1]) / max(1.0, history[-1])
        if moved <= config.gn_tolerance or rel_drop <= config.gn_tolerance:
            converged = True
            break
    crime = None
    if obs.synthesis_mesh is not None and obs.inversion_mesh is not None:
        crime = tuple(obs.synthesis_mesh) == tuple(obs.inversion_mesh)
    return InversionResult(
        coeffs=tuple(float(v) for v in c),
        residual_history=history,
        converged=converged,
        final_misfit=history[-1],
        iterations=iterations,
        inverse_crime=crime,
    )


def uniqueness_scan(obs: ObservationSet, model: ModelSpec, grid, config: InversionConfig | None = None) -> ScanResult:
    """Misfit of every candidate coefficient vector; identifies the argmin."""
    if config is None:
        config = InversionConfig()
    candidates = [tuple(float(v) for v in np.atleast_1d(cand)) for cand in grid]
    if not candidates:
        raise DomainError("candidate grid is empty")
    misfits = [
        float(np.linalg.norm(residual(cand, obs, model, config)))
        for cand in candidates
    ]
    best = int(np.argmin(misfits))
    return ScanResult(candidates=candidates, misfits=misfits, best_index=best)
