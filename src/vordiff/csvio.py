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


def _data_lines(path):
    comments = {}
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    comments[k.strip()] = v.strip()
                continue
            if header is None:
                header = line
            else:
                rows.append(line.split(","))
    if header is None:
        raise DomainError(f"{path}: no header line found")
    return header, rows, comments


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
    _header, rows, _ = _data_lines(path)
    t = np.asarray([float(r[0]) for r in rows])
    x = np.asarray([float(r[1]) for r in rows])
    u = np.asarray([float(r[2]) for r in rows])
    return t, x, u


def write_modes_csv(path, field):
    lines = ["t,i,u_i"]
    U = field.coeff_matrix()
    for n, t in enumerate(field.mesh.nodes):
        tn = fmt(t)
        lines += [f"{tn},{i},{u!r}" for i, u in enumerate(U[:, n].tolist(), 1)]
    _write_lines(path, lines)


def read_modes_csv(path):
    _header, rows, _ = _data_lines(path)
    t = np.asarray([float(r[0]) for r in rows])
    i = np.asarray([int(r[1]) for r in rows])
    u = np.asarray([float(r[2]) for r in rows])
    return t, i, u


def write_stability_csv(path, gamma, ratio):
    _write_lines(path, ["gamma,ratio", f"{fmt(gamma)},{fmt(ratio)}"])


def read_stability_csv(path):
    _header, rows, _ = _data_lines(path)
    return float(rows[0][0]), float(rows[0][1])


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
    _header, rows, comments = _data_lines(path)
    xs = list(dict.fromkeys(float(r[0]) for r in rows))
    ts = list(dict.fromkeys(float(r[1]) for r in rows))
    values = np.empty((len(xs), len(ts)))
    xi = {v: i for i, v in enumerate(xs)}
    ti = {v: i for i, v in enumerate(ts)}
    for r in rows:
        values[xi[float(r[0])], ti[float(r[1])]] = float(r[2])
    window = tuple(float(v) for v in comments["window"].split(","))
    synth = None
    if "synthesis_M" in comments:
        synth = (int(comments["synthesis_M"]), float(comments["synthesis_r"]))
    inv = None
    if "inversion_M" in comments:
        inv = (int(comments["inversion_M"]), float(comments["inversion_r"]))
    return ObservationSet(
        window=window,
        x_points=np.asarray(xs),
        t_points=np.asarray(ts),
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
    _header, rows, comments = _data_lines(path)
    coeffs = [0.0] * len(rows)
    for r in rows:
        coeffs[int(r[0])] = float(r[1])
    return tuple(coeffs), comments


def write_residual_history_csv(path, history):
    lines = ["iter,residual_norm"]
    for i, v in enumerate(history):
        lines.append(f"{i},{fmt(v)}")
    _write_lines(path, lines)


def read_residual_history_csv(path):
    _header, rows, _ = _data_lines(path)
    return [float(r[1]) for r in rows]


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
    _header, rows, _ = _data_lines(path)
    candidates = [tuple(float(v) for v in r[1:-1]) for r in rows]
    misfits = [float(r[-1]) for r in rows]
    return candidates, misfits


# -- diagnostics ---------------------------------------------------------


def write_regularity_csv(path, report: RegularityReport, alpha0):
    lines = [
        "alpha0,fitted_slope,expected_slope,weighted_norm,verdict",
        f"{fmt(alpha0)},{fmt(report.fitted_slope)},{fmt(report.expected_slope)},"
        f"{fmt(report.weighted_norm)},{report.verdict}",
    ]
    _write_lines(path, lines)


def read_regularity_csv(path):
    _header, rows, _ = _data_lines(path)
    r = rows[0]
    return {
        "alpha0": float(r[0]),
        "fitted_slope": float(r[1]),
        "expected_slope": float(r[2]),
        "weighted_norm": float(r[3]),
        "verdict": r[4],
    }
