import argparse
import collections
import contextlib
import filecmp
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vordiff
from helpers import OBSERVATION_EDITS, edit_observations, read_artifact
from vordiff import cli, csvio
from vordiff.cli import main
from vordiff.config import RunConfig
from vordiff.forward import ModelSpec
from vordiff.fracops import OrderFunction, TimeMesh

HEAT_CFG = """
model.K = 1.0
model.L = 3.141592653589793
model.T = 1.0
model.k_coeffs = 0.0
model.alpha_coeffs = 0.5
model.alpha_star = 0.9
model.u0 = mode1
mesh.M = 2048
mesh.r = 1.0
basis.N = 2
output.x_count = 9
run.seed = 42
"""

TWIN_CFG = """
model.K = 1.0
model.L = 3.141592653589793
model.T = 1.0
model.k_coeffs = 1.0
model.alpha_coeffs = 0.3, 0.2
model.alpha_star = 0.95
model.u0 = parabola
mesh.M = 64
basis.N = 4
observation.x_count = 16
inversion.degree = 1
inversion.init = 0.5
scan.c0_grid = 0.3, 0.5, 0.7
run.seed = 42
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestForwardCommand:
    def test_heat_limit_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, HEAT_CFG)
        out = tmp_path / "out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
        t, x, u = read_artifact(out / "solution.csv")[2].T
        # u(x, t) = e^{-t} phi_1(x) for the single-mode heat problem
        exact = np.exp(-t) * np.sqrt(2 / np.pi) * np.sin(x)
        assert np.abs(u - exact).max() <= 1e-4
        gamma, ratio = read_artifact(out / "stability.csv")[2][0]
        assert ratio <= 1.0 + 1e-8
        tt, ii, uu = read_artifact(out / "modes.csv")[2].T
        assert uu.size == 2049 * 2

    def test_missing_key_exit_2(self, tmp_path, capsys):
        broken = "\n".join(l for l in HEAT_CFG.splitlines() if "mesh.M" not in l)
        cfg = write_cfg(tmp_path, broken)
        assert main(["forward", "--config", cfg]) == 2
        assert "mesh.M" in capsys.readouterr().err

    def test_alpha_star_bound_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("model.alpha_star = 0.9",
                                                   "model.alpha_star = 1.0"))
        assert main(["forward", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "0 <= alpha(t) <= alpha_star < 1" in err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["forward", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_negative_output_x_count_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, HEAT_CFG.replace("output.x_count = 9",
                                                   "output.x_count = -1"))
        assert main(["forward", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "output.x_count" in err and "Traceback" not in err

    def test_negative_reaction_exit_1(self, tmp_path, capsys):
        # k = -1000 makes a step coefficient 1/h + k w + lam negative
        text = TWIN_CFG.replace("model.k_coeffs = 1.0", "model.k_coeffs = -1000.0")
        cfg = write_cfg(tmp_path, text.replace("0.3, 0.2", "0.5"))
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vordiff: numerical failure: non-invertible step coefficient")
        assert "at node 2" in err

    def test_out_names_a_file_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TWIN_CFG)
        assert main(["forward", "--config", cfg, "--out", cfg]) == 2
        assert capsys.readouterr().err.startswith("vordiff: i/o error: [Errno 17] File exists")

    def test_overflow_exit_1_without_nan(self, tmp_path, capsys):
        # lambda^gamma leaves the float range at K = 1e300 and gamma = 3
        text = TWIN_CFG.replace("model.K = 1.0", "model.K = 1e300") + "diagnostics.gamma = 3\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vordiff: numerical failure: overflow") and err.count("\n") == 1
        assert not any("nan" in f.read_text() for f in out.iterdir())

    def test_overflow_while_loading_exit_1_one_line(self, tmp_path, capsys):
        # the order check forms c_2 T^2 = 1e600 for t + t^2 at T = 1e300: a
        # fault while the config loads is a numerical failure like one in
        # the run, not a warning beside the message
        text = (TWIN_CFG.replace("model.T = 1.0", "model.T = 1e300")
                .replace("0.3, 0.2", "0.0, 1.0, 1.0"))
        assert main(["forward", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vordiff: numerical failure: overflow") and err.count("\n") == 1

    def test_admissible_order_at_a_large_horizon_loads(self, tmp_path):
        # 0.6 t/T - 0.3 (t/T)^2 at T = 1e155: T^2 = 1e310 leaves the float
        # range, but the scaled coefficients c_j T^j are 0.6 and -0.3
        text = (TWIN_CFG.replace("model.T = 1.0", "model.T = 1e155")
                .replace("0.3, 0.2", "0.0, 6e-156, -3e-311"))
        out = tmp_path / "out"
        assert main(["forward", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        assert not any("nan" in f.read_text() for f in out.iterdir())

    def test_overflow_names_gamma(self, tmp_path, capsys):
        text = TWIN_CFG.replace("model.K = 1.0", "model.K = 1e300") + "diagnostics.gamma = 3\n"
        assert main(["forward", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vordiff: numerical failure: overflow") and "gamma = 3" in err

    def test_underflow_exit_1_names_gamma(self, tmp_path, capsys):
        # lambda_1^3 = 1e-900 underflows to 0, which read as a zero initial datum
        text = TWIN_CFG.replace("model.K = 1.0", "model.K = 1e-300") + "diagnostics.gamma = 3\n"
        assert main(["forward", "--config", write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vordiff: numerical failure: underflow") and err.count("\n") == 1
        assert "gamma = 3" in err and "lambda_1 = 1e-300" in err

    def test_boundary_rule_is_scale_free(self, tmp_path):
        # mode 1's sample at x = L is sqrt(2/L) sin(pi) = 1.7e-12 at L = 1e-8,
        # 1.2e-16 of its largest sample
        text = (TWIN_CFG.replace("model.L = 3.141592653589793", "model.L = 1e-8")
                .replace("model.K = 1.0", "model.K = 1e-16").replace("parabola", "mode1"))
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 0
        t, i, u = read_artifact(out / "modes.csv")[2].T
        assert np.isfinite(u).all() and u[(t == 0.0) & (i == 1)] == pytest.approx(1.0, abs=1e-9)


class TestSynthInvertScanDiagnose:
    def test_full_workflow(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG)
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        obs_path = out / "observations.csv"
        assert obs_path.exists()

        assert main(["invert", "--config", cfg, "--obs", str(obs_path),
                     "--out", str(out)]) == 0
        index, coeffs = read_artifact(out / "inversion.csv")[2].T
        assert index.tolist() == [0, 1]
        assert coeffs[0] == pytest.approx(0.3, abs=0.05)
        assert coeffs[1] == pytest.approx(0.2, abs=0.05)
        hist = read_artifact(out / "residual_history.csv")[2][:, 1]
        assert len(hist) >= 2 and hist[-1] <= hist[0]

        # scan against a constant-order truth so a constant grid contains it
        scan_cfg = write_cfg(
            tmp_path,
            TWIN_CFG.replace("model.alpha_coeffs = 0.3, 0.2",
                             "model.alpha_coeffs = 0.5"),
            name="scan.cfg",
        )
        assert main(["scan", "--config", scan_cfg, "--out", str(out)]) == 0
        rows = read_artifact(out / "scan.csv")[2]
        assert rows[np.argmin(rows[:, -1]), 1:-1].tolist() == [0.5]

    def test_rescaled_twin_inverts_like_the_twin(self, tmp_path):
        # L = 1e-8 and K = 1e-16 / pi^2 keep the eigenvalues, and the parabola
        # scales every value by (L / pi)^2 = 1.01e-17: neither the stop test
        # nor the zero-datum rule may read that scale as a small datum
        scale = (1e-8 / np.pi) ** 2
        rescaled = (TWIN_CFG.replace("model.L = 3.141592653589793", "model.L = 1e-08")
                    .replace("model.K = 1.0", f"model.K = {1e-16 / np.pi ** 2!r}"))
        runs = []
        for name, text in (("twin", TWIN_CFG), ("rescaled", rescaled)):
            cfg = write_cfg(tmp_path, text, name=f"{name}.cfg")
            out = tmp_path / name
            assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
            assert main(["invert", "--config", cfg, "--obs", str(out / "observations.csv"),
                         "--out", str(out)]) == 0
            _, meta, rows = read_artifact(out / "inversion.csv")
            coeffs, hist = rows[:, 1], read_artifact(out / "residual_history.csv")[2][:, 1]
            runs.append((coeffs, meta, hist))
        (twin, twin_meta, twin_hist), (coeffs, meta, hist) = runs
        assert twin_meta["converged"] == meta["converged"] == "true"
        assert twin_meta["iterations"] == meta["iterations"] == "7"
        np.testing.assert_allclose(coeffs, twin, rtol=0, atol=1e-10)
        np.testing.assert_allclose(hist, np.multiply(twin_hist, scale), rtol=1e-9)

    def test_diagnose(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG.replace("mesh.M = 64", "mesh.M = 256"))
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
        header, _, rows = read_artifact(out / "regularity.csv", dtype=str)
        row = dict(zip(header, rows[0]))
        assert float(row["alpha0"]) == 0.3
        assert float(row["expected_slope"]) == -0.3
        assert row["verdict"] == "singular"

    def test_diagnose_zero_field(self, tmp_path):
        # a zero datum has no second differences to fit: slope 0, verdict smooth
        u0 = tmp_path / "u0.csv"
        u0.write_text("x,u0\n" + "".join(f"{v!r},0.0\n" for v in np.linspace(0.0, np.pi, 8193).tolist()))
        text = TWIN_CFG.replace("model.u0 = parabola", f"model.u0 = file:{u0}")
        text = text.replace("0.3, 0.2", "0.5").replace("mesh.M = 64", "mesh.M = 256")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "regularity.csv").read_text().splitlines()
        assert rows[1:] == ["0.5,0.0,-0.5,0.0,smooth"]

    def test_diagnose_coarse_mesh_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TWIN_CFG.replace("mesh.M = 64", "mesh.M = 4"))
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "mesh.M" in err and "Traceback" not in err
        assert not (tmp_path / "regularity.csv").exists()
        # only diagnose differences the field twice
        assert main(["forward", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_diagnose_fit_window_without_samples_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            TWIN_CFG.replace("mesh.M = 64", "mesh.M = 128")
            + "diagnostics.fit_lo = 0.5\ndiagnostics.fit_hi = 0.51\n",
        )
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "diagnostics.fit_lo" in err
        assert not (tmp_path / "regularity.csv").exists()

    def test_diagnose_rounding_floor_empties_window_exit_2(self, tmp_path, capsys):
        # 9 interior nodes (n = 2..10) lie in the window, so the pre-solve
        # count passes; the rounding floor then drops n = 1..10, and the first
        # node it keeps, t = 1.33e-8, lies above the window
        text = (TWIN_CFG.replace("0.3, 0.2", "0.5").replace("0.95", "0.9")
                .replace("mesh.M = 64", "mesh.M = 1024").replace("basis.N = 4", "basis.N = 2"))
        cfg = write_cfg(tmp_path, text + "diagnostics.fit_lo = 1e-12\ndiagnostics.fit_hi = 1e-8\n")
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "diagnostics.fit_lo" in err and "rounding floor" in err
        assert "Traceback" not in err
        assert not (tmp_path / "regularity.csv").exists()

    def test_diagnose_mode_cap_empties_window_before_the_solve(self, tmp_path, capsys,
                                                               monkeypatch):
        # u0 = mode3 is fitted on (1e-3, 0.1 lambda_1 / lambda_3), which holds
        # one node at M = 128, r = 1, though the window as set holds 12
        monkeypatch.setattr(cli, "solve_forward", lambda *args: pytest.fail("solved"))
        text = TWIN_CFG.replace("parabola", "mode3").replace("mesh.M = 64", "mesh.M = 128")
        cfg = write_cfg(tmp_path, text + "mesh.r = 1\n")
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "holds 1 interior mesh nodes" in err
        assert "lambda_1 / lambda_3 = 0.01111" in err
        assert not (tmp_path / "regularity.csv").exists()

    def test_diagnose_mode3_datum_fits_its_capped_window(self, tmp_path):
        # the smooth case with u0 = mode3 at M = 1024, r = 1 reads -0.049 on
        # the capped window; on (1e-3, 0.1) mode 3's own decay read -0.300
        text = (TWIN_CFG.replace("parabola", "mode3").replace("0.3, 0.2", "0.0, 0.6, -0.3")
                .replace("mesh.M = 64", "mesh.M = 1024"))
        cfg = write_cfg(tmp_path, text + "mesh.r = 1\n")
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, _, rows = read_artifact(tmp_path / "regularity.csv", dtype=str)
        report = dict(zip(header, rows[0]))
        assert float(report["fitted_slope"]) == pytest.approx(-0.049, abs=0.005)
        assert report["verdict"] == "smooth"

    @pytest.mark.parametrize("degree", [1, pytest.param(6, marks=pytest.mark.xfail(
        reason="ROADMAP item 21: the Jacobian forms t^6 at T = 1e60, which overflows (exit 1)"))])
    def test_invert_on_a_huge_horizon(self, tmp_path, degree):
        text = (TWIN_CFG.replace("model.T = 1.0", "model.T = 1e60").replace("0.3, 0.2", "0.5")
                .replace("inversion.degree = 1", f"inversion.degree = {degree}"))
        cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        assert main(["invert", "--config", cfg, "--obs", str(out / "observations.csv"),
                     "--out", str(out)]) == 0

    def test_invert_at_degree_6_on_a_tiny_horizon(self, tmp_path):
        # a trial clipped with the rounding margin on every inner Bernstein
        # coefficient has c_q ~ 1e-12 / T^q, which overflows on T = 1e-60; the
        # exact clip, tried first, maps back to a constant
        text = (TWIN_CFG.replace("model.T = 1.0", "model.T = 1e-60").replace("0.3, 0.2", "0.3")
                .replace("inversion.degree = 1", "inversion.degree = 6"))
        cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        assert main(["invert", "--config", cfg, "--obs", str(out / "observations.csv"),
                     "--out", str(out)]) == 0

    def test_invert_bad_inversion_key_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TWIN_CFG.replace("inversion.degree = 1",
                                                   "inversion.degree = 9"))
        assert main(["invert", "--config", cfg, "--obs",
                     str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert cfg in err and "ansatz degree 9" in err

    def test_invert_zero_k0_exit_2(self, tmp_path, capsys):
        # observations of a k = 1 model, inverted on a model with k(t) = t
        cfg = write_cfg(tmp_path, TWIN_CFG)
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        k0 = write_cfg(tmp_path, TWIN_CFG.replace("model.k_coeffs = 1.0", "model.k_coeffs = 0.0, 1.0"),
                       name="k0.cfg")
        assert main(["invert", "--config", k0, "--obs", str(out / "observations.csv"),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"vordiff: config error: {k0}: model.k_coeffs: order recovery requires k(0) != 0\n")
        assert not (out / "inversion.csv").exists()

    def test_invert_missing_obs_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG)
        assert main(["invert", "--config", cfg, "--obs",
                     str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 2


class TestMalformedInput:
    def _synth(self, tmp_path, text=TWIN_CFG):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "observations.csv").read_text().splitlines()
        head = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
        return cfg, lines[:head], lines[head:]

    @pytest.mark.parametrize("edit", ["missing", "repeated", "header_only"])
    def test_incomplete_observation_grid_exit_2(self, tmp_path, capsys, edit):
        cfg, head, rows = self._synth(tmp_path)
        rows = {"missing": rows[1:], "repeated": rows + rows[:1], "header_only": []}[edit]
        obs = tmp_path / "broken.csv"
        obs.write_text("\n".join(head + rows) + "\n")
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--out", str(tmp_path / "inv")]) == 2
        assert str(obs) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit", OBSERVATION_EDITS + ("late_time", "zero_time", "outside_rod")
    )
    def test_bad_observation_values_exit_2(self, tmp_path, capsys, edit):
        cfg, head, rows = self._synth(tmp_path)
        obs = tmp_path / "broken.csv"
        obs.write_text("\n".join(edit_observations(head, rows, edit)) + "\n")
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--out", str(tmp_path / "inv")]) == 2
        assert str(obs) in capsys.readouterr().err

    def test_missing_observation_comment_exit_2(self, tmp_path, capsys):
        cfg, head, rows = self._synth(tmp_path)
        obs = tmp_path / "broken.csv"
        obs.write_text("\n".join([ln for ln in head if not ln.startswith("# seed ")] + rows) + "\n")
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--out", str(tmp_path / "inv")]) == 2
        err = capsys.readouterr().err
        assert str(obs) in err and "missing comment '# seed = ...'" in err

    def test_malformed_observation_comment_exit_2(self, tmp_path, capsys):
        cfg, head, rows = self._synth(tmp_path)
        obs = tmp_path / "broken.csv"
        head = ["# seed = x" if ln.startswith("# seed ") else ln for ln in head]
        obs.write_text("\n".join(head + rows) + "\n")
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--out", str(tmp_path / "inv")]) == 2
        err = capsys.readouterr().err
        assert str(obs) in err and "comment '# seed = x' is not an integer" in err

    def test_out_of_range_observation_comment_exit_2(self, tmp_path, capsys):
        cfg, head, rows = self._synth(tmp_path)
        obs = tmp_path / "broken.csv"
        head = ["# synthesis_M = -5" if ln.startswith("# synthesis_M ") else ln for ln in head]
        obs.write_text("\n".join(head + rows) + "\n")
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--out", str(tmp_path / "inv")]) == 2
        err = capsys.readouterr().err
        assert str(obs) in err and "synthesis mesh M" in err and "Traceback" not in err

    def test_no_synthesis_mesh_no_crime_verdict(self, tmp_path):
        cfg, head, rows = self._synth(tmp_path)
        obs = tmp_path / "plain.csv"
        obs.write_text("\n".join([ln for ln in head if not ln.startswith("# synthesis_")] + rows) + "\n")
        assert main(["invert", "--config", cfg, "--obs", str(obs),
                     "--out", str(tmp_path / "inv")]) == 0
        lines = (tmp_path / "inv" / "inversion.csv").read_text().splitlines()
        assert "# inverse_crime = none" in lines

    def test_shuffled_observations_invert_identically(self, tmp_path):
        cfg, head, rows = self._synth(tmp_path)
        order = np.random.default_rng(5).permutation(len(rows))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join(head + [rows[i] for i in order]) + "\n")
        d1, d2 = tmp_path / "i1", tmp_path / "i2"
        for obs, d in ((tmp_path / "out" / "observations.csv", d1), (shuffled, d2)):
            assert main(["invert", "--config", cfg, "--obs", str(obs), "--out", str(d)]) == 0
        assert filecmp.cmp(d1 / "inversion.csv", d2 / "inversion.csv", shallow=False)

    def test_swapped_observation_header_exit_2(self, tmp_path, capsys):
        # with T = 3.05 and the window (0, 3.1), the 64 times lie on the rod
        # and the 16 x points in the run, so the file passes every check on
        # its values with its axes swapped; only the header's names tell
        text = TWIN_CFG.replace("model.T = 1.0", "model.T = 3.05")
        cfg, head, rows = self._synth(tmp_path, text + "observation.a = 0.0\nobservation.b = 3.1\n")
        assert head[-1] == "x,t,value"
        obs = tmp_path / "swapped.csv"
        rows = [f"{t},{x},{v}" for x, t, v in (row.split(",") for row in rows)]
        obs.write_text("\n".join(head[:-1] + ["t,x,value"] + rows) + "\n")
        out = tmp_path / "inv"
        assert main(["invert", "--config", cfg, "--obs", str(obs), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(obs) in err and "header 't,x,value'" in err
        assert not (out / "inversion.csv").exists()

    def _u0_file(self, tmp_path, x, cells=None):
        path = tmp_path / "u0.csv"
        cells = cells or [repr(v) for v in (x * (np.pi - x)).tolist()]
        path.write_text("x,u0\n" + "".join(f"{xv!r},{c}\n" for xv, c in zip(x.tolist(), cells)))
        text = TWIN_CFG.replace("model.u0 = parabola", f"model.u0 = file:{path}")
        return write_cfg(tmp_path, text), path

    def test_u0_file_profile(self, tmp_path):
        x = np.linspace(0.0, np.pi, 33)
        cfg, _ = self._u0_file(tmp_path, x)
        assert np.array_equal(RunConfig.load(cfg).model.u0, x * (np.pi - x))
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_u0_file_non_numeric_exit_2(self, tmp_path, capsys):
        x = np.linspace(0.0, np.pi, 33)
        cells = [repr(v) for v in (x * (np.pi - x)).tolist()]
        cells[5] = "abc"
        cfg, path = self._u0_file(tmp_path, x, cells)
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_u0_file_off_grid_exit_2(self, tmp_path, capsys):
        # valid samples of x (pi - x), but listed against x in [0, pi/2]
        x = np.linspace(0.0, np.pi, 33)
        cells = [repr(v) for v in (x * (np.pi - x)).tolist()]
        cfg, path = self._u0_file(tmp_path, x / 2, cells)
        assert main(["forward", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err

    def test_u0_file_swapped_header_exit_2(self, tmp_path, capsys):
        x = np.linspace(0.0, np.pi, 33)
        cfg, path = self._u0_file(tmp_path, x)
        rows = path.read_text().splitlines()[1:]
        path.write_text("u0,x\n" + "".join(f"{u},{xv}\n" for xv, u in (r.split(",") for r in rows)))
        out = tmp_path / "o"
        assert main(["forward", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "header 'u0,x'" in err and not out.exists()

    def test_u0_file_missing_exit_2_before_output(self, tmp_path, capsys):
        # the file is read when the config loads, before the output directory is made
        text = TWIN_CFG.replace("model.u0 = parabola", f"model.u0 = file:{tmp_path / 'no.csv'}")
        out = tmp_path / "o"
        assert main(["forward", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert "no.csv" in capsys.readouterr().err and not out.exists()

    def test_constant_start_clipped_at_tiny_horizon(self, tmp_path):
        # inversion.init = 1.2 clips to the constant 0.95 at degree 6 on T = 1e-60
        text = (TWIN_CFG.replace("model.T = 1.0", "model.T = 1e-60")
                .replace("inversion.degree = 1", "inversion.degree = 6")
                .replace("inversion.init = 0.5", "inversion.init = 1.2"))
        cfg, out = write_cfg(tmp_path, text), str(tmp_path / "o")
        assert main(["synth", "--config", cfg, "--out", out]) == 0
        assert main(["invert", "--config", cfg, "--out", out,
                     "--obs", str(tmp_path / "o" / "observations.csv")]) == 0

    def test_default_scan_grid_below_star(self, tmp_path):
        text = TWIN_CFG.replace("model.alpha_coeffs = 0.3, 0.2", "model.alpha_coeffs = 0.3")
        text = text.replace("model.alpha_star = 0.95", "model.alpha_star = 0.5")
        cfg = write_cfg(tmp_path, text.replace("scan.c0_grid = 0.3, 0.5, 0.7\n", ""))
        assert main(["scan", "--config", cfg, "--out", str(tmp_path / "s")]) == 0


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG)
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        for d in (d1, d2):
            assert main(["synth", "--config", cfg, "--out", str(d)]) == 0
            assert main(["forward", "--config", cfg, "--out", str(d)]) == 0
            assert main(["scan", "--config", cfg, "--out", str(d)]) == 0
        for name in ("observations.csv", "solution.csv", "modes.csv",
                     "stability.csv", "scan.csv"):
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG + "observation.noise_level = 0.001\n")
        d1, d2, d3 = (tmp_path / n for n in ("s1", "s2", "s3"))
        assert main(["synth", "--config", cfg, "--out", str(d1), "--seed", "7"]) == 0
        assert main(["synth", "--config", cfg, "--out", str(d2), "--seed", "7"]) == 0
        assert main(["synth", "--config", cfg, "--out", str(d3), "--seed", "8"]) == 0
        assert filecmp.cmp(d1 / "observations.csv", d2 / "observations.csv", shallow=False)
        assert not filecmp.cmp(d1 / "observations.csv", d3 / "observations.csv", shallow=False)

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TWIN_CFG + "observation.noise_level = 0.001\n")
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", cfg, "--out", str(tmp_path), "--seed", "-3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err


# Order shapes in s = t / T, so each stays admissible at any horizon T:
# constant, zero, linear, the paper's smooth case alpha(0) = 0, and falling.
ORDER_SHAPES = ((0.5,), (0.0,), (0.3, 0.2), (0.0, 0.6, -0.3), (0.9, -0.5))


@st.composite
def generated_configs(draw):
    """A run config from the ranges of a seeded sweep over off-scale data:
    K, L and T across most of the float range, k(t) with a zero, a negative
    and a huge value, and meshes, bases, ansatz degrees and u0 profiles at
    and past their limits."""
    K, L, T = (10.0 ** draw(st.floats(lo, hi)) for lo, hi in ((-300, 300), (-8, 8), (-6, 250)))
    shape = draw(st.sampled_from(ORDER_SHAPES))
    alpha = [c * (1.0 / T) ** q for q, c in enumerate(shape)]
    k = draw(st.sampled_from([(1.0,), (0.0,), (-1e3,), (1e300,), (0.0, 1.0), (2.0, -1.0 / T)]))
    u0 = draw(st.sampled_from(["parabola", "mode1", "mode3", "file"]))
    return {
        "model.K": K, "model.L": L, "model.T": T,
        "model.k_coeffs": ", ".join(map(repr, k)),
        "model.alpha_coeffs": ", ".join(map(repr, alpha)),
        "model.alpha_star": 0.95,
        "model.u0": u0,
        "mesh.M": draw(st.one_of(st.integers(1, 16), st.integers(64, 128))),
        "mesh.r": draw(st.one_of(st.just("auto"), st.floats(1.0, 40.0))),
        "basis.N": draw(st.integers(1, 16)),
        "inversion.degree": draw(st.integers(0, 6)),
        "inversion.max_iter": draw(st.integers(1, 8)),
        "diagnostics.gamma": draw(st.sampled_from([0.0, 1.0, 3.0])),
        "output.x_count": 5,
    }


def _csv_values_finite(path):
    return re.search(r"\b(nan|inf)\b", path.read_text(), re.IGNORECASE) is None


@given(entries=generated_configs())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_generated_configs_exit_cleanly(entries):
    # every command either exits 0 with finite values in every CSV it writes,
    # or exits 1 or 2 with a one-line message; it never raises
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if entries["model.u0"] == "file":
            x = np.linspace(0.0, entries["model.L"], 65)  # 4 N + 1 samples for N = 16
            u = np.sin(np.pi * x / x[-1]) ** 3
            rows = "".join(f"{xv!r},{uv!r}\n" for xv, uv in zip(x.tolist(), u.tolist()))
            (tmp / "u0.csv").write_text("x,u0\n" + rows)
            entries = {**entries, "model.u0": f"file:{tmp / 'u0.csv'}"}
        cfg = write_cfg(tmp, "".join(f"{k} = {v}\n" for k, v in entries.items()))
        obs = ["--obs", str(tmp / "synth" / "observations.csv")]
        for command in ("forward", "synth", "invert", "diagnose", "scan"):
            out = tmp / command
            argv = [command, "--config", cfg, "--out", str(out)]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv + obs if command == "invert" else argv)
            message = err.getvalue()
            if code == 0:
                assert message == ""
                assert all(_csv_values_finite(p) for p in out.glob("**/*.csv")), (command, entries)
            else:
                assert code in (1, 2), (command, code)
                assert message.startswith("vordiff: ") and message.count("\n") == 1, message


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # None in sys.modules makes any import of scipy, lazy ones included, fail
    cfg = write_cfg(tmp_path, TWIN_CFG)

    def commands(out):
        runs = [[c, "--config", cfg, "--out", str(out)]
                for c in ("forward", "synth", "diagnose", "scan")]
        runs.append(["invert", "--config", cfg, "--obs", str(out / "observations.csv"),
                     "--out", str(out)])
        return runs

    blocked, unblocked = tmp_path / "blocked", tmp_path / "unblocked"
    code = (
        "import json, sys; sys.modules['scipy'] = None; from vordiff.cli import main; "
        f"print(json.dumps([main(argv) for argv in {commands(blocked)!r}]))"
    )
    src = pathlib.Path(vordiff.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert json.loads(out.splitlines()[-1]) == [0] * 5
    assert [main(argv) for argv in commands(unblocked)] == [0] * 5
    names = sorted(p.name for p in unblocked.iterdir())
    assert sorted(p.name for p in blocked.iterdir()) == names and len(names) == 8
    for name in names:
        assert filecmp.cmp(blocked / name, unblocked / name, shallow=False), name


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    # each parse_args returns a fresh Namespace, so one parser serves every main call
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    cfg = write_cfg(tmp_path, TWIN_CFG)
    codes = [main(["forward", "--config", cfg, "--out", str(tmp_path / out)])
             for out in ("first", "second")]
    cli._build_parser.cache_clear()  # later tests build an unpatched parser
    assert codes == [0, 0] and built.count("vordiff") == 1
    for name in ("solution.csv", "modes.csv", "stability.csv"):
        assert filecmp.cmp(tmp_path / "first" / name, tmp_path / "second" / name, shallow=False)


@pytest.mark.parametrize("command", ["forward", "diagnose"])
def test_run_objects_built_once(tmp_path, monkeypatch, command):
    # loading builds the order, the mesh and the model; the command reuses them
    built = collections.Counter()
    for cls in (OrderFunction, TimeMesh, ModelSpec):
        def counting_post_init(self, init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            init(self)
        monkeypatch.setattr(cls, "__post_init__", counting_post_init)
    cfg = write_cfg(tmp_path, TWIN_CFG.replace("mesh.M = 64", "mesh.M = 128"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert built == {"OrderFunction": 1, "TimeMesh": 1, "ModelSpec": 1}


def test_module_entry_point_exit_codes(tmp_path):
    # python -m vordiff runs cli.main: 0 on success, 2 on a config error
    good = write_cfg(tmp_path, TWIN_CFG)
    bad = write_cfg(tmp_path, TWIN_CFG.replace("mesh.M = 64", "mesh.M = 0"), name="bad.cfg")
    src = pathlib.Path(vordiff.__file__).resolve().parents[1]
    runs = [
        subprocess.run(
            [sys.executable, "-m", "vordiff", "forward", "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        for cfg, out in ((good, tmp_path / "good"), (bad, tmp_path / "bad"))
    ]
    assert runs[0].returncode == 0 and (tmp_path / "good" / "solution.csv").is_file()
    assert runs[1].returncode == 2 and "mesh intervals M must be an integer >= 1" in runs[1].stderr
    assert "Traceback" not in runs[1].stderr and not (tmp_path / "bad").exists()


def test_public_names_resolve():
    # a stale __all__ entry fails only on "from vordiff import *"
    assert [name for name in vordiff.__all__ if not hasattr(vordiff, name)] == []
    assert len(set(vordiff.__all__)) == len(vordiff.__all__)
