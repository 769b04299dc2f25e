import filecmp

import numpy as np
import pytest

from vordiff import csvio
from vordiff.cli import main

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
        t, x, u = csvio.read_solution_csv(out / "solution.csv")
        # u(x, t) = e^{-t} phi_1(x) for the single-mode heat problem
        exact = np.exp(-t) * np.sqrt(2 / np.pi) * np.sin(x)
        assert np.abs(u - exact).max() <= 1e-4
        gamma, ratio = csvio.read_stability_csv(out / "stability.csv")
        assert ratio <= 1.0 + 1e-8
        tt, ii, uu = csvio.read_modes_csv(out / "modes.csv")
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


class TestSynthInvertScanDiagnose:
    def test_full_workflow(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG)
        out = tmp_path / "out"
        assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
        obs_path = out / "observations.csv"
        assert obs_path.exists()

        assert main(["invert", "--config", cfg, "--obs", str(obs_path),
                     "--out", str(out)]) == 0
        coeffs, meta = csvio.read_inversion_csv(out / "inversion.csv")
        assert coeffs[0] == pytest.approx(0.3, abs=0.05)
        assert coeffs[1] == pytest.approx(0.2, abs=0.05)
        hist = csvio.read_residual_history_csv(out / "residual_history.csv")
        assert len(hist) >= 2 and hist[-1] <= hist[0]

        # scan against a constant-order truth so a constant grid contains it
        scan_cfg = write_cfg(
            tmp_path,
            TWIN_CFG.replace("model.alpha_coeffs = 0.3, 0.2",
                             "model.alpha_coeffs = 0.5"),
            name="scan.cfg",
        )
        assert main(["scan", "--config", scan_cfg, "--out", str(out)]) == 0
        cands, misfits = csvio.read_scan_csv(out / "scan.csv")
        assert cands[int(np.argmin(misfits))] == (0.5,)

    def test_diagnose(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG.replace("mesh.M = 64", "mesh.M = 256"))
        out = tmp_path / "out"
        assert main(["diagnose", "--config", cfg, "--out", str(out)]) == 0
        row = csvio.read_regularity_csv(out / "regularity.csv")
        assert row["alpha0"] == 0.3
        assert row["expected_slope"] == -0.3
        assert row["verdict"] == "singular"

    def test_invert_bad_inversion_key_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TWIN_CFG.replace("inversion.degree = 1",
                                                   "inversion.degree = 9"))
        assert main(["invert", "--config", cfg, "--obs",
                     str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert cfg in err and "ansatz degree 9" in err

    def test_invert_missing_obs_exit_2(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG)
        assert main(["invert", "--config", cfg, "--obs",
                     str(tmp_path / "ghost.csv"), "--out", str(tmp_path)]) == 2


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
