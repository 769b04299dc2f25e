"""CSV emission and ingestion for every artifact the CLI produces.

Every file is ``# key = value`` comment lines, a header line, then data
rows; _write_table and _read_table are the format's two halves.  Floats
are written with repr, the shortest decimal that round-trips to the same
double, so write -> read is lossless.  Files use LF newlines
unconditionally, making repeated runs byte-comparable.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import RegularityReport
from .errors import DomainError
from .inverse import InversionResult, ObservationSet, ScanResult


def fmt(x) -> str:
    return repr(float(x))


def _write_table(path, header, rows, comments=()):
    """Write a ``# key = value`` line per (key, value) pair in comments, the
    header, then the data lines in rows, a list of strings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"# {k} = {v}\n" for k, v in comments) + header + "\n")
        if rows:  # joined apart from the head, so the rows list is not copied
            fh.write("\n".join(rows) + "\n")


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
    vals = field.basis.design_matrix(x) @ field.values
    xs = [fmt(v) for v in x]
    # tolist() gives Python floats, whose repr is fmt's
    ts = zip(map(fmt, field.mesh.nodes), vals.T)
    rows = [f"{tn},{xv},{u!r}" for tn, col in ts for xv, u in zip(xs, col.tolist())]
    _write_table(path, "t,x,u", rows)


def read_solution_csv(path):
    return tuple(_read_table(path)[0].T)


def write_modes_csv(path, field):
    ts = zip(map(fmt, field.mesh.nodes), field.values.T)
    rows = [f"{tn},{i},{u!r}" for tn, col in ts for i, u in enumerate(col.tolist(), 1)]
    _write_table(path, "t,i,u_i", rows)


def read_modes_csv(path):
    t, i, u = _read_table(path)[0].T
    return t, i.astype(int), u


def write_stability_csv(path, gamma, ratio):
    _write_table(path, "gamma,ratio", [f"{fmt(gamma)},{fmt(ratio)}"])


def read_stability_csv(path):
    return tuple(_read_table(path)[0][0].tolist())


# -- observations ------------------------------------------------------


def write_observations_csv(path, obs: ObservationSet):
    comments = [
        ("window", f"{fmt(obs.window[0])},{fmt(obs.window[1])}"),
        ("seed", obs.seed),
        ("noise_level", fmt(obs.noise_level)),
    ]
    if obs.synthesis_mesh is not None:
        M, r = obs.synthesis_mesh
        comments += [("synthesis_M", M), ("synthesis_r", fmt(r))]
    xs, ts = [fmt(x) for x in obs.x_points], [fmt(t) for t in obs.t_points]
    rows = [f"{xv},{tv},{u!r}" for xv, col in zip(xs, obs.values.tolist())
            for tv, u in zip(ts, col)]
    _write_table(path, "x,t,value", rows, comments)


def _comment(comments, key, parse, kind):
    """Comment key's value by parse; DomainError names a missing or malformed one."""
    if key not in comments:
        raise DomainError(f"missing comment '# {key} = ...'")
    try:
        return parse(comments[key])
    except ValueError:
        raise DomainError(f"comment '# {key} = {comments[key]}' is not {kind}") from None


def read_observations_csv(path) -> ObservationSet:
    """Rows may come in any order; x and t points are returned sorted.
    A missing or malformed window, seed, noise_level, or synthesis_M or
    synthesis_r beside the other, raises DomainError naming it."""
    data, comments = _read_table(path)
    xs, xi = np.unique(data[:, 0], return_inverse=True)
    ts, ti = np.unique(data[:, 1], return_inverse=True)
    cells = xs.size * ts.size
    if len(data) != cells or np.bincount(xi * ts.size + ti, minlength=cells).max() != 1:
        raise DomainError("observations must hold each (x, t) cell exactly once")
    values = np.empty((xs.size, ts.size))
    values[xi, ti] = data[:, 2]
    window = _comment(comments, "window", lambda v: tuple(map(float, v.split(","))), "numbers a,b")
    if len(window) != 2:
        raise DomainError(f"comment '# window = ...' needs two values a,b, got {len(window)}")
    synthesis = None
    if comments.keys() & {"synthesis_M", "synthesis_r"}:
        synthesis = (_comment(comments, "synthesis_M", int, "an integer"),
                     _comment(comments, "synthesis_r", float, "a number"))
    return ObservationSet(
        window=window,
        x_points=xs,
        t_points=ts,
        values=values,
        noise_level=_comment(comments, "noise_level", float, "a number"),
        seed=_comment(comments, "seed", int, "an integer"),
        synthesis_mesh=synthesis,
    )


# -- inversion ----------------------------------------------------------


def write_inversion_csv(path, result: InversionResult):
    comments = [
        ("converged", str(result.converged).lower()),
        ("final_misfit", fmt(result.final_misfit)),
        ("iterations", result.iterations),
        ("inverse_crime", str(result.inverse_crime).lower()),
    ]
    rows = [f"{i},{fmt(c)}" for i, c in enumerate(result.coeffs)]
    _write_table(path, "coeff_index,value", rows, comments)


def read_inversion_csv(path):
    data, comments = _read_table(path)
    order = np.argsort(data[:, 0])
    if not np.array_equal(data[order, 0], np.arange(len(data))):
        raise DomainError("coeff_index must list 0, 1, ..., n-1 exactly once")
    return tuple(data[order, 1].tolist()), comments


def write_residual_history_csv(path, history):
    _write_table(path, "iter,residual_norm", [f"{i},{fmt(v)}" for i, v in enumerate(history)])


def read_residual_history_csv(path):
    return _read_table(path)[0][:, 1].tolist()


def write_scan_csv(path, scan: ScanResult):
    widths = {len(c) for c in scan.candidates}
    if len(widths) != 1:
        raise DomainError("scan candidates must share one coefficient count")
    d = widths.pop()
    header = "candidate_id," + ",".join(f"c{i}" for i in range(d)) + ",misfit"
    pairs = enumerate(zip(scan.candidates, scan.misfits))
    _write_table(path, header, [f"{i},{','.join(map(fmt, c))},{fmt(m)}" for i, (c, m) in pairs])


def read_scan_csv(path):
    data = _read_table(path)[0]
    return [tuple(c) for c in data[:, 1:-1].tolist()], data[:, -1].tolist()


# -- diagnostics ---------------------------------------------------------


def write_regularity_csv(path, report: RegularityReport):
    cells = (report.alpha0, report.fitted_slope, report.expected_slope, report.weighted_norm)
    row = f"{','.join(map(fmt, cells))},{report.verdict}"
    _write_table(path, "alpha0,fitted_slope,expected_slope,weighted_norm,verdict", [row])


def read_regularity_csv(path):
    r = _read_table(path, dtype=str)[0][0].tolist()
    return {
        "alpha0": float(r[0]),
        "fitted_slope": float(r[1]),
        "expected_slope": float(r[2]),
        "weighted_norm": float(r[3]),
        "verdict": r[4],
    }
