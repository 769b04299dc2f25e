"""Independent numerical oracles shared by the test modules.

These never call back into the product code paths they check: fractional
values come from adaptive QUADPACK quadrature with algebraic endpoint
weights, derivatives from Richardson-extrapolated central differences,
and exact_mode inverts the Laplace transform of one constant-order mode.
manufactured_mode gives an exact solution at a varying order by
manufacturing its forcing.  The reference_* functions are the plain forms
of optimized product routines, kept to compare against; they share with
the product only its kernel rule and scalar special functions.
edit_observations writes the defective observation files that the input
checks must reject, and read_artifact reads back any CSV the CLI writes.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma

from vordiff.fracops import _digamma, _kernel_increments

QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def caputo_quad(gprime, alpha, t):
    """(1/Gamma(1-a)) int_0^t g'(s) (t-s)^(-a) ds by singular-weight quadrature."""
    if alpha == 0.0:
        value, _ = quad(gprime, 0.0, t, **QUAD_OPTS)
        return value
    value, _ = quad(gprime, 0.0, t, weight="alg", wvar=(0.0, -alpha), **QUAD_OPTS)
    return value / gamma(1.0 - alpha)


def exact_mode(a, k, lam, u0, t, method="talbot", derivative=0):
    """u(t), u'(t) or u''(t) (derivative 0, 1 or 2) for u' + k D^a u = -lam u,
    u(0) = u0, at constant order a and k.

    Its Laplace transform is U(s) = u0 (1 + k s^(a-1)) / (s + k s^a + lam);
    u' has s U - u0 and, as u'(0) = -lam u0, u'' has s^2 U - s u0 + lam u0.
    mpmath inverts them at 30 digits by Talbot's method, or by de Hoog's.
    """
    import mpmath

    with mpmath.workdps(30):
        a, k, lam, u0 = map(mpmath.mpf, (a, k, lam, u0))
        U = lambda s: u0 * (1 + k * s ** (a - 1)) / (s + k * s**a + lam)
        F = (U, lambda s: s * U(s) - u0, lambda s: s * s * U(s) - s * u0 + lam * u0)[derivative]
        return float(mpmath.invertlaplace(F, mpmath.mpf(t), method=method))


def manufactured_mode(alpha_coeffs, k_coeffs, lam, terms, mesh):
    """(u, forcing) at the nodes of mesh for u(t) = sum w t^beta over terms (w, beta).

    The scheme freezes the order at each node, and at order a_n the Caputo
    derivative of t^beta is Gamma(beta + 1) / Gamma(beta + 1 - a_n) t_n^(beta - a_n)
    (0 for beta = 0).  So u exactly solves u' + k D^alpha u = -lam u + f at the
    nodes, for polynomial alpha(t) and k(t), with f = u' + k D^alpha u + lam u.
    forcing holds f at the nodes n >= 1; column 0 is unused and left 0, so no
    t^(beta - 1) is taken at t = 0.
    """
    t = mesh.nodes
    u = sum(w * t**beta for w, beta in terms)
    tn = t[1:]
    a = np.polynomial.polynomial.polyval(tn, alpha_coeffs)
    k = np.polynomial.polynomial.polyval(tn, k_coeffs)
    du = sum(w * beta * tn ** (beta - 1.0) for w, beta in terms)
    caputo = sum(
        w * math.gamma(beta + 1.0) * tn ** (beta - a)
        / np.array([math.gamma(beta + 1.0 - an) for an in a])
        for w, beta in terms if beta > 0.0
    )
    forcing = np.zeros_like(t)
    forcing[1:] = du + k * caputo + lam * u[1:]
    return u, forcing


def reference_block_inverses(mesh, a, k_gam, lam, first, count, b):
    """The inverses (T0 + lam_i I)^-1 of forward._block_tables, (count,
    lam.size, b, b), by forward substitution: row i of the inverse is final
    once column i is eliminated below it, elementwise over every (block,
    eigenvalue) pair, so no inverse depends on the others."""
    n = first + np.arange(count * b).reshape(count, b)
    j = n[:, :1] - 1 + np.arange(b + 1)
    p = np.maximum(mesh.nodes[n][..., None] - mesh.nodes[j][:, None], 0.0)
    h = mesh.spacing[j[:, :-1]][:, None]
    band = _kernel_increments(p, a[n], np.empty((count, b, b)))
    C = (np.eye(b) + k_gam[n - 1, None] * band) / h
    T0 = C.copy()
    T0[..., :-1] -= C[..., 1:]
    T0 = np.repeat(T0.transpose(1, 2, 0), lam.size, axis=2)
    diag = np.diagonal(T0).T + np.tile(lam, count)
    inv = np.zeros((b, b, count * lam.size))
    inv[np.arange(b), np.arange(b)] = 1.0
    for i in range(b):
        inv[i, : i + 1] /= diag[i]
        inv[i + 1 :, : i + 1] -= T0[i + 1 :, i, None] * inv[i, : i + 1]
    return inv.reshape(b, b, count, lam.size).transpose(2, 3, 0, 1)


def reference_sensitivity_rows(mesh, n, a):
    """fracops._sensitivity_weight_rows written with whole-array temporaries,
    in the same operation order: bitwise equal to the in-place rows."""
    oma = 1.0 - a
    t = mesh.nodes
    tau = np.maximum(t[n, None] - t[: n.max() + 1], 0.0)
    inc = _kernel_increments(p := tau.copy(), a, np.empty((n.size, n.max())))
    q = p * np.log(np.where(tau > 0.0, tau, 1.0))
    gam = np.fromiter(map(math.gamma, 2.0 - a), float, a.size)
    psi = _digamma(oma) + 1.0 / oma
    return (psi[:, None] * inc - (q[:, :-1] - q[:, 1:])) / gam[:, None]


def richardson_fd(f, x, h=1e-5):
    """Central difference of f at x, Richardson-extrapolated over h and h/2."""
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2.0) - f(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def observed_rates(errors):
    """log2 ratios of successive errors from mesh halving."""
    errors = np.asarray(errors, dtype=float)
    return np.log2(errors[:-1] / errors[1:])


OBSERVATION_EDITS = ("nan_value", "inf_value", "nan_time", "nan_noise")


def edit_observations(head, rows, edit):
    """Lines of an observations.csv, split at its header line, with one defect.

    nan_value / inf_value: one sample's value; nan_time, late_time (2.0)
    and zero_time (0.0): the time of every sample at the last (first) time,
    so the (x, t) grid stays complete; nan_noise: the noise_level comment;
    outside_rod: every x and the window moved by +10, off the rod [0, pi].
    """
    if edit == "nan_noise":
        return ["# noise_level = nan" if ln.startswith("# noise_level") else ln for ln in head] + rows
    cells = [row.split(",") for row in rows]
    if edit in ("nan_value", "inf_value"):
        cells[0][2] = edit[:3]
    elif edit == "outside_rod":
        head = ["# window = " + ",".join(repr(float(v) + 10.0) for v in ln.split("=")[1].split(","))
                if ln.startswith("# window") else ln for ln in head]
        for c in cells:
            c[0] = repr(float(c[0]) + 10.0)
    else:
        times = sorted({c[1] for c in cells}, key=float)
        old, new = {"nan_time": (times[-1], "nan"), "late_time": (times[-1], "2.0"),
                    "zero_time": (times[0], "0.0")}[edit]
        for c in cells:
            if c[1] == old:
                c[1] = new
    return head + [",".join(c) for c in cells]


def read_artifact(path, dtype=float):
    """(header, comments, rows) of a CSV artifact: the header's names, the
    ``# key = value`` comment lines as a dict of strings, and the rows as
    np.loadtxt parses them, a 2-D array (dtype=str keeps a text column)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = dict(ln[2:].split(" = ", 1) for ln in lines if ln.startswith("#"))
    header, *rows = [ln for ln in lines if not ln.startswith("#")]
    return header.split(","), comments, np.loadtxt(rows, delimiter=",", dtype=dtype, ndmin=2)
