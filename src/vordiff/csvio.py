"""CSV emission and ingestion for every artifact the CLI produces.

Floats are written with repr, the shortest decimal that round-trips to
the same double, so write -> read is lossless.  Files use LF newlines
unconditionally, making repeated runs byte-comparable.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import RegularityReport
from .errors import DomainError
from .inverse import InversionResult, ObservationSet, ScanResult


def fmt(x) -> str:
    return repr(float(x))


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(path, dtype=float):
    """Rows and ``# key = value`` comments of one CSV file.

    The file needs a header line and at least one data row; the rows are
    parsed at once by np.loadtxt into a 2-D array with one column per
    header field.  A malformed file raises ValueError.
    """
    comments = {}
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    comments[key.strip()] = value.strip()
            elif line:
                lines.append(line)
    if len(lines) < 2:
        raise DomainError("file needs a header line and at least one data row")
    data = np.loadtxt(lines[1:], delimiter=",", dtype=dtype, ndmin=2)
    if data.shape[1] != lines[0].count(",") + 1:
        raise DomainError(f"rows do not match the header {lines[0]!r}")
    return data, comments


# -- forward artifacts ------------------------------------------------


def write_solution_csv(path, field, x_points):
    x = np.asarray(x_points, dtype=float)
    vals = field.basis.design_matrix(x) @ field.coeff_matrix()
    xs = [fmt(v) for v in x]
    lines = ["t,x,u"]
    for n, t in enumerate(field.mesh.nodes):
        tn = fmt(t)
        # tolist() gives Python floats, whose repr is fmt's
        lines += [f"{tn},{xv},{u!r}" for xv, u in zip(xs, vals[:, n].tolist())]
    _write_lines(path, lines)


def read_solution_csv(path):
    return tuple(_read_table(path)[0].T)


def write_modes_csv(path, field):
    lines = ["t,i,u_i"]
    U = field.coeff_matrix()
    for n, t in enumerate(field.mesh.nodes):
        tn = fmt(t)
        lines += [f"{tn},{i},{u!r}" for i, u in enumerate(U[:, n].tolist(), 1)]
    _write_lines(path, lines)


def read_modes_csv(path):
    t, i, u = _read_table(path)[0].T
    return t, i.astype(int), u


def write_stability_csv(path, gamma, ratio):
    _write_lines(path, ["gamma,ratio", f"{fmt(gamma)},{fmt(ratio)}"])


def read_stability_csv(path):
    return tuple(_read_table(path)[0][0].tolist())


# -- observations ------------------------------------------------------


def write_observations_csv(path, obs: ObservationSet):
    lines = [
        f"# window = {fmt(obs.window[0])},{fmt(obs.window[1])}",
        f"# seed = {obs.seed}",
        f"# noise_level = {fmt(obs.noise_level)}",
    ]
    if obs.synthesis_mesh is not None:
        lines.append(f"# synthesis_M = {obs.synthesis_mesh[0]}")
        lines.append(f"# synthesis_r = {fmt(obs.synthesis_mesh[1])}")
    if obs.inversion_mesh is not None:
        lines.append(f"# inversion_M = {obs.inversion_mesh[0]}")
        lines.append(f"# inversion_r = {fmt(obs.inversion_mesh[1])}")
    lines.append("x,t,value")
    for j, xv in enumerate(obs.x_points):
        for m, tv in enumerate(obs.t_points):
            lines.append(f"{fmt(xv)},{fmt(tv)},{fmt(obs.values[j, m])}")
    _write_lines(path, lines)


def read_observations_csv(path) -> ObservationSet:
    """Rows may come in any order; x and t points are returned sorted."""
    data, comments = _read_table(path)
    xs, xi = np.unique(data[:, 0], return_inverse=True)
    ts, ti = np.unique(data[:, 1], return_inverse=True)
    cells = xs.size * ts.size
    if len(data) != cells or np.unique(xi * ts.size + ti).size != cells:
        raise DomainError("observations must hold each (x, t) cell exactly once")
    values = np.empty((xs.size, ts.size))
    values[xi, ti] = data[:, 2]
    window = tuple(float(v) for v in comments["window"].split(","))
    synth = None
    if "synthesis_M" in comments:
        synth = (int(comments["synthesis_M"]), float(comments["synthesis_r"]))
    inv = None
    if "inversion_M" in comments:
        inv = (int(comments["inversion_M"]), float(comments["inversion_r"]))
    return ObservationSet(
        window=window,
        x_points=xs,
        t_points=ts,
        values=values,
        noise_level=float(comments["noise_level"]),
        seed=int(comments["seed"]),
        synthesis_mesh=synth,
        inversion_mesh=inv,
    )


# -- inversion ----------------------------------------------------------


def write_inversion_csv(path, result: InversionResult):
    lines = [
        f"# converged = {str(result.converged).lower()}",
        f"# final_misfit = {fmt(result.final_misfit)}",
        f"# iterations = {result.iterations}",
        f"# inverse_crime = {str(result.inverse_crime).lower()}",
        "coeff_index,value",
    ]
    for i, c in enumerate(result.coeffs):
        lines.append(f"{i},{fmt(c)}")
    _write_lines(path, lines)


def read_inversion_csv(path):
    data, comments = _read_table(path)
    order = np.argsort(data[:, 0])
    if not np.array_equal(data[order, 0], np.arange(len(data))):
        raise DomainError("coeff_index must list 0, 1, ..., n-1 exactly once")
    return tuple(data[order, 1].tolist()), comments


def write_residual_history_csv(path, history):
    lines = ["iter,residual_norm"]
    for i, v in enumerate(history):
        lines.append(f"{i},{fmt(v)}")
    _write_lines(path, lines)


def read_residual_history_csv(path):
    return _read_table(path)[0][:, 1].tolist()


def write_scan_csv(path, scan: ScanResult):
    widths = {len(c) for c in scan.candidates}
    if len(widths) != 1:
        raise DomainError("scan candidates must share one coefficient count")
    d = widths.pop()
    header = "candidate_id," + ",".join(f"c{i}" for i in range(d)) + ",misfit"
    lines = [header]
    for idx, (cand, misfit) in enumerate(zip(scan.candidates, scan.misfits)):
        body = ",".join(fmt(c) for c in cand)
        lines.append(f"{idx},{body},{fmt(misfit)}")
    _write_lines(path, lines)


def read_scan_csv(path):
    data = _read_table(path)[0]
    return [tuple(c) for c in data[:, 1:-1].tolist()], data[:, -1].tolist()


# -- diagnostics ---------------------------------------------------------


def write_regularity_csv(path, report: RegularityReport, alpha0):
    lines = [
        "alpha0,fitted_slope,expected_slope,weighted_norm,verdict",
        f"{fmt(alpha0)},{fmt(report.fitted_slope)},{fmt(report.expected_slope)},"
        f"{fmt(report.weighted_norm)},{report.verdict}",
    ]
    _write_lines(path, lines)


def read_regularity_csv(path):
    r = _read_table(path, dtype=str)[0][0].tolist()
    return {
        "alpha0": float(r[0]),
        "fitted_slope": float(r[1]),
        "expected_slope": float(r[2]),
        "weighted_norm": float(r[3]),
        "verdict": r[4],
    }
