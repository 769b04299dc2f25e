"""Independent numerical oracles shared by the test modules.

These never call back into the product code paths they check: fractional
values come from adaptive QUADPACK quadrature with algebraic endpoint
weights, derivatives from Richardson-extrapolated central differences,
and exact_mode inverts the Laplace transform of one constant-order mode.
edit_observations writes the defective observation files that the input
checks must reject.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma

QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def caputo_quad(gprime, alpha, t):
    """(1/Gamma(1-a)) int_0^t g'(s) (t-s)^(-a) ds by singular-weight quadrature."""
    if alpha == 0.0:
        value, _ = quad(gprime, 0.0, t, **QUAD_OPTS)
        return value
    value, _ = quad(gprime, 0.0, t, weight="alg", wvar=(0.0, -alpha), **QUAD_OPTS)
    return value / gamma(1.0 - alpha)


def exact_mode(a, k, lam, u0, t, method="talbot"):
    """u(t) for u' + k D^a u = -lam u, u(0) = u0, at constant order a and k.

    Its Laplace transform is U(s) = u0 (1 + k s^(a-1)) / (s + k s^a + lam);
    mpmath inverts it at 30 digits by Talbot's method, or by de Hoog's.
    """
    import mpmath

    with mpmath.workdps(30):
        a, k, lam, u0 = map(mpmath.mpf, (a, k, lam, u0))
        U = lambda s: u0 * (1 + k * s ** (a - 1)) / (s + k * s**a + lam)
        return float(mpmath.invertlaplace(U, mpmath.mpf(t), method=method))


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
