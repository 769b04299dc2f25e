"""The benchmark's workloads: generated inputs, the timed CLI op, and its check.

Every workload shares the model K = 1, L = pi, T = 1, k = 1.  An op is one
``vordiff`` CLI command on a config the benchmark writes; ``check`` compares
the op's output files against a reference that does not come from the
program under test, using only the standard library and numpy.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Mode-1 coefficient at t = T for alpha = 0.5 (alpha_star 0.9), k = 1,
# lam = 1, u0 = phi_1: the frozen M = 16384 oracle of acceptance criterion 5.
MODE1_ORACLE = 0.5932503284447019
# Order used to synthesize the observations of the inversion workload.
INVERT_TRUTH = (0.3, 0.2)

COMMON = {
    "model.K": "1.0",
    "model.L": repr(math.pi),
    "model.T": "1.0",
    "model.k_coeffs": "1.0",
}


class CheckFailed(Exception):
    """The op's output misses the workload's reference."""


def _write_config(path, entries):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in {**COMMON, **entries}.items():
            fh.write(f"{key} = {value}\n")


def _read_csv(path):
    """Unsplit data lines of a vordiff CSV after its header, and its comments."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = dict(
        (part.strip() for part in line[1:].partition("=")[::2])
        for line in lines if line.startswith("#")
    )
    return comments, [line for line in lines if line and not line.startswith("#")][1:]


class Workload:
    """One set of inputs; ``setup`` runs once per process, ``op_args`` per op."""

    name = ""
    why = ""
    command = ""

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.dir = work_dir
        self.config = os.path.join(work_dir, "run.cfg")
        self.out = os.path.join(work_dir, "out")
        self.extra = {}  # values recorded per op beside the error

    def config_entries(self):
        raise NotImplementedError

    def setup(self, vordiff_cli, run_config):
        os.makedirs(self.dir, exist_ok=True)
        _write_config(
            self.config,
            {**self.config_entries(), "output.dir": self.out, "run.seed": str(self.seed)},
        )
        run_config.load(self.config)

    def op_args(self):
        return [self.command, "--config", self.config]

    def check(self):
        """Deviation of the last op's output from the reference; raises CheckFailed."""
        raise NotImplementedError


class ForwardFine(Workload):
    name = "forward_fine"
    why = (
        "diagnose at M = 8192, N = 2: the O(M^2) L1 history sum is almost all "
        "the work, with no inversion and almost no CSV output"
    )
    command = "diagnose"
    tolerance = 0.1  # acceptance criterion 6 on the fitted blow-up exponent

    def config_entries(self):
        return {
            "model.alpha_coeffs": "0.5",
            "model.alpha_star": "0.9",
            "model.u0": "parabola",
            "mesh.M": "8192",
            "mesh.r": "auto",
            "basis.N": "2",
        }

    def check(self):
        _, rows = _read_csv(os.path.join(self.out, "regularity.csv"))
        alpha0, slope, _expected, weighted, verdict = rows[0].split(",")
        # Known defect, recorded but not scored: at the default grading r = 4
        # weighted_norm is dominated by rounding and grows with M
        # (7.19 at M = 1024, 5.2e6 at M = 8192) instead of staying bounded.
        self.extra["weighted_norm"] = float(weighted)
        err = abs(float(slope) + float(alpha0))
        if verdict != "singular" or not err <= self.tolerance:
            raise CheckFailed(f"slope {slope} verdict {verdict}: |slope + 0.5| = {err}")
        return err


class ForwardCsv(Workload):
    name = "forward_csv"
    why = (
        "forward at M = 1024, N = 8, 65 x points: writing the 66,625-row "
        "solution.csv dominates, so kernel-only changes should not move it"
    )
    command = "forward"
    tolerance = 1e-3
    x_count = 65
    M = 1024
    N = 8

    def config_entries(self):
        return {
            "model.alpha_coeffs": "0.5",
            "model.alpha_star": "0.9",
            "model.u0": "mode1",
            "mesh.M": str(self.M),
            "mesh.r": "auto",
            "basis.N": str(self.N),
            "output.x_count": str(self.x_count),
        }

    def check(self):
        # Rows run over t, then mode index: the last N rows are t = T.
        _, modes = _read_csv(os.path.join(self.out, "modes.csv"))
        final = np.array([row.split(",") for row in modes[-self.N:]], dtype=float)
        if np.any(final[:, 0] != 1.0) or np.any(final[:, 1] != np.arange(1, self.N + 1)):
            raise CheckFailed("modes.csv does not end with modes 1..N at t = T")
        err = abs(final[0, 2] - MODE1_ORACLE)
        if not err <= self.tolerance:
            raise CheckFailed(f"u_1(T) = {final[0, 2]}: off the oracle by {err}")
        # The solution rows at t = T must be the sine synthesis of the modes.
        _, sol = _read_csv(os.path.join(self.out, "solution.csv"))
        if len(sol) != (self.M + 1) * self.x_count:
            raise CheckFailed(f"solution.csv has {len(sol)} rows")
        last = np.array([row.split(",") for row in sol[-self.x_count:]], dtype=float)
        synth = math.sqrt(2.0 / math.pi) * np.sin(np.outer(last[:, 1], final[:, 1])) @ final[:, 2]
        gap = float(np.abs(last[:, 2] - synth).max())
        if np.any(last[:, 0] != 1.0) or gap > 1e-12:
            raise CheckFailed(f"solution.csv at t = T is off the modes by {gap}")
        return err


class Invert(Workload):
    name = "invert"
    why = (
        "invert at M = 256, N = 16, degree 1: many modes and a small mesh, "
        "so the Jacobian and the per-mode repeated work dominate"
    )
    command = "invert"
    tolerance = 1e-2

    def config_entries(self):
        return {
            "model.alpha_coeffs": ", ".join(map(repr, INVERT_TRUTH)),
            "model.alpha_star": "0.95",
            "model.u0": "parabola",
            "mesh.M": "256",
            "basis.N": "16",
            "observation.x_count": "32",
            # The error must measure the program, not the noise draw.  Over
            # seeds 0-15 it spans 0.0040-0.0087 at noise 1e-3 and
            # 0.0041-0.0051 at 1e-4; at 1e-5 the mesh-mismatch bias of the
            # M = 256 inversion dominates (0.00428-0.00438).
            "observation.noise_level": "1e-05",
            "inversion.degree": "1",
            "inversion.init": "0.5",
        }

    def setup(self, vordiff_cli, run_config):
        super().setup(vordiff_cli, run_config)
        if vordiff_cli.main(["synth", "--config", self.config]) != 0:
            raise RuntimeError("vordiff synth failed during set-up")

    def op_args(self):
        obs = os.path.join(self.out, "observations.csv")
        return [self.command, "--config", self.config, "--obs", obs]

    def check(self):
        comments, rows = _read_csv(os.path.join(self.out, "inversion.csv"))
        coeffs = [float(row.split(",")[1]) for row in rows]
        err = max(abs(c - t) for c, t in zip(coeffs, INVERT_TRUTH))
        self.extra["gn_iterations"] = int(comments["iterations"])
        if comments["converged"] != "true" or len(coeffs) != 2 or not err <= self.tolerance:
            raise CheckFailed(f"coefficients {coeffs}, converged {comments['converged']}")
        return err


WORKLOADS = {w.name: w for w in (ForwardFine, ForwardCsv, Invert)}
