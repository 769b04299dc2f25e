import filecmp

import numpy as np
import pytest

from vordiff import csvio
from vordiff.cli import main
from vordiff.config import RunConfig

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


class TestMalformedInput:
    def _synth(self, tmp_path):
        cfg = write_cfg(tmp_path, TWIN_CFG)
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

    def test_shuffled_observations_invert_identically(self, tmp_path):
        cfg, head, rows = self._synth(tmp_path)
        order = np.random.default_rng(5).permutation(len(rows))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join(head + [rows[i] for i in order]) + "\n")
        d1, d2 = tmp_path / "i1", tmp_path / "i2"
        for obs, d in ((tmp_path / "out" / "observations.csv", d1), (shuffled, d2)):
            assert main(["invert", "--config", cfg, "--obs", str(obs), "--out", str(d)]) == 0
        assert filecmp.cmp(d1 / "inversion.csv", d2 / "inversion.csv", shallow=False)

    def _u0_file(self, tmp_path, x, cells=None):
        path = tmp_path / "u0.csv"
        cells = cells or [repr(v) for v in (x * (np.pi - x)).tolist()]
        path.write_text("x,u0\n" + "".join(f"{xv!r},{c}\n" for xv, c in zip(x.tolist(), cells)))
        text = TWIN_CFG.replace("model.u0 = parabola", f"model.u0 = file:{path}")
        return write_cfg(tmp_path, text), path

    def test_u0_file_profile(self, tmp_path):
        x = np.linspace(0.0, np.pi, 33)
        cfg, _ = self._u0_file(tmp_path, x)
        assert np.array_equal(RunConfig.load(cfg).u0_profile(), x * (np.pi - x))
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
