import dataclasses
import pathlib
import re

import numpy as np
import pytest

from helpers import OBSERVATION_EDITS, edit_observations
from vordiff import ConfigError, DomainError, csvio
from vordiff.config import RunConfig
from vordiff.diagnostics import RegularityReport
from vordiff.forward import solve_forward
from vordiff.fracops import OrderFunction, TimeMesh
from vordiff.forward import ModelSpec
from vordiff.inverse import (
    InversionConfig,
    InversionResult,
    ObservationSet,
    ScanResult,
    synthesize_observations,
)
from vordiff.spectral import SpectralBasis

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

BASE = """
model.K = 1.0
model.L = 3.141592653589793
model.T = 1.0
model.k_coeffs = 1.0
model.alpha_coeffs = 0.3, 0.2
model.alpha_star = 0.95
model.u0 = parabola
mesh.M = 64
basis.N = 4
run.seed = 42
"""


class TestConfigParsing:
    def test_defaults_resolved(self):
        cfg = RunConfig.from_text(BASE)
        assert cfg.mesh_r == pytest.approx(2.0 / 0.7)  # grading from alpha(0)
        assert cfg.obs_a == pytest.approx(0.2 * cfg.L)
        assert cfg.obs_b == pytest.approx(0.8 * cfg.L)
        assert cfg.diag_fit_lo == pytest.approx(1e-3)
        assert len(cfg.scan_c0_grid) == 17

    def test_comments_and_inline_comments(self):
        cfg = RunConfig.from_text(BASE + "\n# a comment\nmesh.r = 2.0  # graded\n")
        assert cfg.mesh_r == 2.0

    def test_missing_key_names_it(self):
        text = "\n".join(l for l in BASE.splitlines() if "mesh.M" not in l)
        with pytest.raises(ConfigError, match="missing key 'mesh.M'"):
            RunConfig.from_text(text)

    def test_unknown_key_line_precise(self):
        with pytest.raises(ConfigError, match=":12:"):
            RunConfig.from_text(BASE + "mesh.bogus = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            RunConfig.from_text(BASE + "mesh.M = 32\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="section.key"):
            RunConfig.from_text(BASE + "just some words\n")

    def test_bad_value_line_precise(self):
        text = BASE.replace("mesh.M = 64", "mesh.M = sixty")
        with pytest.raises(ConfigError, match="mesh.M"):
            RunConfig.from_text(text)

    def test_alpha_bound_violation_cites_bound(self):
        text = BASE.replace("model.alpha_star = 0.95", "model.alpha_star = 1.5")
        with pytest.raises(ConfigError, match="alpha_star < 1"):
            RunConfig.from_text(text)

    def test_order_exceeding_star_rejected(self):
        text = BASE.replace("model.alpha_coeffs = 0.3, 0.2", "model.alpha_coeffs = 0.9, 0.2")
        with pytest.raises(ConfigError, match="alpha_star"):
            RunConfig.from_text(text)

    def test_refine_below_four_rejected(self):
        with pytest.raises(ConfigError, match="synthesis_refine"):
            RunConfig.from_text(BASE + "observation.synthesis_refine = 2\n")

    @pytest.mark.parametrize(
        "extra, match",
        [
            ("inversion.degree = 9\n", "ansatz degree 9"),
            ("inversion.tikhonov = -1\n", "tikhonov"),
            ("inversion.init = 0.5, 0.1, 0.1\n", "initial guess has 3 coefficients"),
            ("inversion.max_iter = 0\n", "max_iter"),
            ("inversion.gn_tolerance = -1\n", "gn_tolerance"),
            ("inversion.gn_tolerance = inf\n", "gn_tolerance must be finite"),
            ("output.x_count = -1\n", "output.x_count"),
            ("output.x_count = 0\n", "output.x_count"),
            ("observation.x_count = 0\n", "observation.x_count"),
            ("diagnostics.gamma = -1\n", "diagnostics.gamma"),
            ("diagnostics.gamma = inf\n", "diagnostics.gamma must be finite"),
            ("diagnostics.fit_hi = inf\n", "diagnostics.fit_hi must be <= model.T"),
            ("diagnostics.fit_hi = 5.0\n", "diagnostics.fit_hi must be <= model.T"),
            ("scan.c0_grid = 0.3, nan\n", "scan.c0_grid"),
            ("scan.c0_grid = nan, 0.3\n", "scan.c0_grid"),
            ("diagnostics.fit_lo = -0.1\n", "diagnostics.fit_lo"),
            ("diagnostics.fit_lo = 0.5\ndiagnostics.fit_hi = 0.2\n", "diagnostics.fit_lo"),
            ("inversion.tikhonov = nan\n", "tikhonov weight must be finite"),
            ("inversion.tikhonov = inf\n", "tikhonov weight must be finite"),
            ("inversion.init = nan\n", "initial guess must be finite"),
            ("mesh.r = nan\n", "mesh grading r must be finite"),
            ("observation.a = -0.5\n", "observation.a must be"),
            ("observation.b = 4.0\n", "observation.b must be"),
            ("observation.noise_level = 0.2\n", "observation.noise_level must be"),
            ("observation.noise_level = nan\n", "observation.noise_level must be"),
        ],
    )
    def test_inversion_values_checked_at_load(self, extra, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_text(BASE + extra)

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("model.K = 1.0", "model.K = nan", "K, L, T must be positive and finite"),
            ("model.K = 1.0", "model.K = inf", "K, L, T must be positive and finite"),
            ("model.L = 3.141592653589793", "model.L = nan", "K, L, T must be positive and finite"),
            ("model.L = 3.141592653589793", "model.L = inf", "K, L, T must be positive and finite"),
            ("model.T = 1.0", "model.T = nan", "order horizon T must be positive and finite"),
            ("model.T = 1.0", "model.T = inf", "order horizon T must be positive and finite"),
            ("model.k_coeffs = 1.0", "model.k_coeffs = nan", "k coefficients must be finite"),
            ("model.k_coeffs = 1.0", "model.k_coeffs = inf", "k coefficients must be finite"),
        ],
    )
    def test_non_finite_model_values_checked_at_load(self, old, new, match):
        with pytest.raises(ConfigError, match=match):
            RunConfig.from_text(BASE.replace(old, new))

    @pytest.mark.parametrize("profile", ["mode0", "mode5", "mode-1"])
    def test_mode_index_outside_basis_rejected(self, profile):
        with pytest.raises(ConfigError, match="u0 profile"):
            RunConfig.from_text(BASE.replace("model.u0 = parabola", f"model.u0 = {profile}"))

    def test_negative_seed_rejected_at_load(self):
        with pytest.raises(ConfigError, match="run.seed"):
            RunConfig.from_text(BASE.replace("run.seed = 42", "run.seed = -3"))

    def test_unknown_profile_rejected(self):
        text = BASE.replace("model.u0 = parabola", "model.u0 = wiggle")
        with pytest.raises(ConfigError, match="u0 profile"):
            RunConfig.from_text(text)

    def test_mode_profile(self):
        text = BASE.replace("model.u0 = parabola", "model.u0 = mode2")
        cfg = RunConfig.from_text(text)
        u0 = cfg.model.u0
        x = np.linspace(0, cfg.L, 7)
        assert np.allclose(u0(x), np.sqrt(2 / cfg.L) * np.sin(2 * x))
        dense = np.linspace(0, cfg.L, 1001)
        mode2 = SpectralBasis(cfg.K, cfg.L, cfg.basis_N).design_matrix(dense)[:, 1]
        assert np.array_equal(u0(dense), mode2)

    def test_grading_auto_vs_explicit(self):
        cfg = RunConfig.from_text(BASE + "mesh.r = auto\n".replace("mesh.r = auto", ""))
        assert cfg.mesh_r == pytest.approx(2.0 / 0.7)
        cfg2 = RunConfig.from_text(BASE + "mesh.r = 1.0\n")
        assert cfg2.mesh_r == 1.0

    def test_scan_grid_above_star_rejected_at_load(self):
        with pytest.raises(ConfigError, match="scan.c0_grid"):
            RunConfig.from_text(BASE + "scan.c0_grid = 0.3, 0.99\n")

    def test_default_scan_grid_within_star(self):
        text = BASE.replace("model.alpha_coeffs = 0.3, 0.2", "model.alpha_coeffs = 0.3")
        cfg = RunConfig.from_text(text.replace("alpha_star = 0.95", "alpha_star = 0.5"))
        assert len(cfg.scan_c0_grid) == 17
        assert 0.0 <= min(cfg.scan_c0_grid) and max(cfg.scan_c0_grid) <= 0.5
        # at alpha_star >= 0.9 the default stays linspace(0.1, 0.9, 17)
        wide = RunConfig.from_text(BASE)
        assert wide.scan_c0_grid == tuple(np.linspace(0.1, 0.9, 17).tolist())

    def test_domain_objects(self):
        cfg = RunConfig.from_text(BASE)
        assert isinstance(cfg.model, ModelSpec)
        assert isinstance(cfg.model.alpha, OrderFunction)
        assert cfg.model.alpha.coeffs == (0.3, 0.2)
        assert isinstance(cfg.mesh, TimeMesh) and cfg.mesh.M == 64
        assert isinstance(cfg.inversion, InversionConfig) and cfg.inversion.n_modes == 4

    def test_empty_list_rejected(self):
        text = BASE.replace("model.k_coeffs = 1.0", "model.k_coeffs = ,")
        with pytest.raises(ConfigError, match="bad value for 'model.k_coeffs': empty list"):
            RunConfig.from_text(text)

    @pytest.mark.parametrize(
        "line",
        [
            "model.alpha_coeffs = 0.3,,0.2",  # a typo for 0.3, 0, 0.2
            "model.k_coeffs = 1.0,",
            "inversion.init = , 0.5",
            "scan.c0_grid = 0.3, , 0.5",
        ],
    )
    def test_empty_list_element_rejected(self, line):
        key = line.partition(" =")[0]
        text = "\n".join(ln for ln in BASE.strip().splitlines() if not ln.startswith(key + " "))
        lineno = text.count("\n") + 2
        with pytest.raises(ConfigError, match=rf":{lineno}: bad value for '{key}': empty element"):
            RunConfig.from_text(text + "\n" + line + "\n")


class TestReadme:
    def _ini_block(self):
        text = README.read_text(encoding="utf-8")
        return re.search(r"```ini\n(.*?)```", text, re.S).group(1)

    def test_example_config_loads(self):
        RunConfig.from_text(self._ini_block(), path=str(README))

    def test_required_keys_match_fields_without_default(self):
        text = README.read_text(encoding="utf-8")
        listed = re.search(r"Required keys: (.*?)\. Everything", text, re.S).group(1)
        required = {
            f.metadata["key"]
            for f in dataclasses.fields(RunConfig)
            if f.default is dataclasses.MISSING
        }
        assert set(re.findall(r"`([\w.]+)`", listed)) == required

    def test_library_example_recovers_order(self):
        code = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        scope = {}
        exec(code.group(1), scope)
        assert np.allclose(scope["result"].coeffs, (0.3, 0.2), rtol=0.0, atol=1e-2)


def _small_field():
    spec = ModelSpec(
        K=1.0, L=np.pi, T=1.0, k_coeffs=(1.0,),
        alpha=OrderFunction((0.3,), 0.9, 1.0),
        u0=lambda x: np.asarray(x) * (np.pi - np.asarray(x)),
    )
    return solve_forward(spec, TimeMesh(1.0, 16, 2.0), 3)


def _small_observations():
    spec = ModelSpec(
        K=1.0, L=np.pi, T=1.0, k_coeffs=(1.0,),
        alpha=OrderFunction((0.3,), 0.9, 1.0),
        u0=lambda x: np.asarray(x) * (np.pi - np.asarray(x)),
    )
    return synthesize_observations(
        spec, (0.2 * np.pi, 0.8 * np.pi), 5, 8, 1e-3, 37, refine=4, n_modes=3
    )


def _pinned_observations(meshes):
    return ObservationSet(
        window=(0.5, 2.5), x_points=[1.0, 2.0], t_points=[0.25, 1.0],
        values=[[0.1, 1 / 3], [-2.5e-17, 4.0]], noise_level=0.001, seed=7,
        synthesis_mesh=(64, 2.0) if meshes else None,
    )


# Every writer but the two field writers on small fixed inputs, with the
# exact bytes it must write: comments, header, rows, LF, trailing newline.
PINNED_WRITES = {
    "observations_meshes": lambda p: csvio.write_observations_csv(p, _pinned_observations(True)),
    "observations_plain": lambda p: csvio.write_observations_csv(p, _pinned_observations(False)),
    "inversion_crime_none": lambda p: csvio.write_inversion_csv(
        p, InversionResult((0.3, 0.2), [1.0, 0.5, 0.125], "tolerance", None)),
    "inversion_crime_true": lambda p: csvio.write_inversion_csv(
        p, InversionResult((0.1,), [2.0], "no_descent", True)),
    "residual_history": lambda p: csvio.write_residual_history_csv(p, [1.0, 0.1, 1e-20]),
    "scan": lambda p: csvio.write_scan_csv(
        p, ScanResult([(0.1, 0.2), (0.3, -0.05)], [3.0, 0.001])),
    "regularity": lambda p: csvio.write_regularity_csv(
        p, RegularityReport(0.5, -0.497, 1.234, (1e-3, 0.1))),
    "stability": lambda p: csvio.write_stability_csv(p, 1.5, 0.987654321012345678),
}
PINNED_BYTES = {
    "observations_meshes": (
        "# window = 0.5,2.5\n# seed = 7\n# noise_level = 0.001\n"
        "# synthesis_M = 64\n# synthesis_r = 2.0\n"
        "x,t,value\n1.0,0.25,0.1\n1.0,1.0,0.3333333333333333\n2.0,0.25,-2.5e-17\n2.0,1.0,4.0\n"
    ),
    "observations_plain": (
        "# window = 0.5,2.5\n# seed = 7\n# noise_level = 0.001\n"
        "x,t,value\n1.0,0.25,0.1\n1.0,1.0,0.3333333333333333\n2.0,0.25,-2.5e-17\n2.0,1.0,4.0\n"
    ),
    "inversion_crime_none": (
        "# converged = true\n# final_misfit = 0.125\n# iterations = 2\n# inverse_crime = none\n"
        "coeff_index,value\n0,0.3\n1,0.2\n"
    ),
    "inversion_crime_true": (
        "# converged = false\n# final_misfit = 2.0\n# iterations = 0\n# inverse_crime = true\n"
        "coeff_index,value\n0,0.1\n"
    ),
    "residual_history": "iter,residual_norm\n0,1.0\n1,0.1\n2,1e-20\n",
    "scan": "candidate_id,c0,c1,misfit\n0,0.1,0.2,3.0\n1,0.3,-0.05,0.001\n",
    "regularity": (
        "alpha0,fitted_slope,expected_slope,weighted_norm,verdict\n"
        "0.5,-0.497,-0.5,1.234,singular\n"
    ),
    "stability": "gamma,ratio\n1.5,0.9876543210123456\n",
}


class TestCsvRoundTrips:
    def test_solution(self, tmp_path):
        field = _small_field()
        path = tmp_path / "solution.csv"
        xs = np.linspace(0.0, np.pi, 5)
        csvio.write_solution_csv(path, field, xs)
        t, x, u = csvio.read_solution_csv(path)
        assert t.size == 17 * 5
        direct = field.basis.design_matrix(xs) @ field.values
        assert np.array_equal(u.reshape(17, 5), direct.T)

    def test_modes(self, tmp_path):
        field = _small_field()
        path = tmp_path / "modes.csv"
        csvio.write_modes_csv(path, field)
        t, i, u = csvio.read_modes_csv(path)
        assert np.array_equal(u.reshape(17, 3).T, field.values)
        assert set(i.tolist()) == {1, 2, 3}

    def test_field_writers_match_per_cell_formatting(self, tmp_path):
        # graded mesh; x = L gives values of about 1e-16 from sin(i pi)
        field = _small_field()
        xs = np.linspace(0.0, np.pi, 9)
        vals = field.basis.design_matrix(xs) @ field.values
        assert 0.0 < np.abs(vals[-1, 1:]).max() < 1e-14
        sol = ["t,x,u"]
        modes = ["t,i,u_i"]
        for n, t in enumerate(field.mesh.nodes):
            for j, xv in enumerate(xs):
                sol.append(f"{csvio.fmt(t)},{csvio.fmt(xv)},{csvio.fmt(vals[j, n])}")
            for i in range(field.basis.N):
                modes.append(f"{csvio.fmt(t)},{i + 1},{csvio.fmt(field.values[i, n])}")
        csvio.write_solution_csv(tmp_path / "solution.csv", field, xs)
        csvio.write_modes_csv(tmp_path / "modes.csv", field)
        assert (tmp_path / "solution.csv").read_bytes() == ("\n".join(sol) + "\n").encode()
        assert (tmp_path / "modes.csv").read_bytes() == ("\n".join(modes) + "\n").encode()

    @pytest.mark.parametrize("name", sorted(PINNED_BYTES))
    def test_writer_bytes_pinned(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        PINNED_WRITES[name](path)
        assert path.read_bytes() == PINNED_BYTES[name].encode()

    def test_stability(self, tmp_path):
        path = tmp_path / "stability.csv"
        csvio.write_stability_csv(path, 1.5, 0.987654321012345678)
        gamma, ratio = csvio.read_stability_csv(path)
        assert gamma == 1.5 and ratio == 0.987654321012345678

    def test_observations(self, tmp_path):
        obs = _small_observations()
        path = tmp_path / "observations.csv"
        csvio.write_observations_csv(path, obs)
        back = csvio.read_observations_csv(path)
        assert np.array_equal(back.values, obs.values)
        assert np.array_equal(back.x_points, obs.x_points)
        assert np.array_equal(back.t_points, obs.t_points)
        assert back.window == obs.window
        assert back.seed == obs.seed and back.noise_level == obs.noise_level
        assert back.synthesis_mesh == obs.synthesis_mesh

    def _observation_lines(self, tmp_path):
        csvio.write_observations_csv(tmp_path / "observations.csv", _small_observations())
        lines = (tmp_path / "observations.csv").read_text().splitlines()
        head = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
        return lines[:head], lines[head:]

    def test_observations_any_row_order(self, tmp_path):
        head, rows = self._observation_lines(tmp_path)
        canonical = csvio.read_observations_csv(tmp_path / "observations.csv")
        shuffled = tmp_path / "shuffled.csv"
        order = np.random.default_rng(3).permutation(len(rows))
        shuffled.write_text("\n".join(head + [rows[i] for i in order]) + "\n")
        back = csvio.read_observations_csv(shuffled)
        assert np.array_equal(back.x_points, canonical.x_points)
        assert np.array_equal(back.t_points, canonical.t_points)
        assert np.array_equal(back.values, canonical.values)

    @pytest.mark.parametrize("edit", ["missing", "repeated", "header_only", "duplicated"])
    def test_observations_incomplete_grid_rejected(self, tmp_path, edit):
        head, rows = self._observation_lines(tmp_path)
        rows = {"missing": rows[1:], "repeated": rows + rows[:1], "header_only": [],
                "duplicated": rows[:-1] + rows[:1]}[edit]
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(head + rows) + "\n")
        with pytest.raises(ValueError, match="exactly once|data row"):
            csvio.read_observations_csv(path)

    @pytest.mark.parametrize("edit", ["window", "seed", "synthesis_r", "short_window"])
    def test_observations_missing_comment_named(self, tmp_path, edit):
        head, rows = self._observation_lines(tmp_path)
        if edit == "short_window":
            head = ["# window = 1.0" if ln.startswith("# window ") else ln for ln in head]
            match = "'# window = ...' needs two values"
        else:
            head = [ln for ln in head if not ln.startswith(f"# {edit} ")]
            match = re.escape(f"missing comment '# {edit} = ...'")
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(head + rows) + "\n")
        with pytest.raises(DomainError, match=match):
            csvio.read_observations_csv(path)

    @pytest.mark.parametrize("key, value, kind", [
        ("seed", "x", "an integer"), ("synthesis_M", "2.5", "an integer"),
        ("noise_level", "abc", "a number"), ("window", "0.5,b", "numbers a,b"),
    ])
    def test_observations_malformed_comment_named(self, tmp_path, key, value, kind):
        head, rows = self._observation_lines(tmp_path)
        head = [f"# {key} = {value}" if ln.startswith(f"# {key} ") else ln for ln in head]
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(head + rows) + "\n")
        with pytest.raises(DomainError, match=re.escape(f"comment '# {key} = {value}' is not {kind}")):
            csvio.read_observations_csv(path)

    @pytest.mark.parametrize("key, value, match", [
        ("synthesis_M", "-5", "synthesis mesh M must be an integer >= 1, got -5"),
        ("synthesis_M", "0", "synthesis mesh M must be an integer >= 1, got 0"),
        ("synthesis_r", "nan", "synthesis mesh r must be finite and >= 1, got nan"),
        ("synthesis_r", "-2", "synthesis mesh r must be finite and >= 1, got -2.0"),
        ("seed", "-1", "seed must be an integer >= 0, got -1"),
        ("synthesis_M", None, "missing comment '# synthesis_M = ...'"),
    ], ids=["M_negative", "M_zero", "r_nan", "r_negative", "seed_negative", "lone_r"])
    def test_observations_out_of_range_comment_named(self, tmp_path, key, value, match):
        # value None drops the comment, leaving a lone '# synthesis_r'
        head, rows = self._observation_lines(tmp_path)
        at = next(i for i, ln in enumerate(head) if ln.startswith(f"# {key} "))
        head[at : at + 1] = [] if value is None else [f"# {key} = {value}"]
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(head + rows) + "\n")
        with pytest.raises(DomainError, match=re.escape(match)):
            csvio.read_observations_csv(path)

    @pytest.mark.parametrize("edit", OBSERVATION_EDITS)
    def test_observations_non_finite_rejected(self, tmp_path, edit):
        head, rows = self._observation_lines(tmp_path)
        path = tmp_path / "broken.csv"
        path.write_text("\n".join(edit_observations(head, rows, edit)) + "\n")
        with pytest.raises(DomainError, match="finite"):
            csvio.read_observations_csv(path)

    def test_inversion(self, tmp_path):
        res = InversionResult(
            coeffs=(0.30000001, 0.1999999),
            residual_history=[1.0, 0.5, 0.25],
            stop_reason="tolerance",
            inverse_crime=False,
        )
        path = tmp_path / "inversion.csv"
        csvio.write_inversion_csv(path, res)
        coeffs, meta = csvio.read_inversion_csv(path)
        assert coeffs == res.coeffs
        assert meta["converged"] == "true"
        hist_path = tmp_path / "residual_history.csv"
        csvio.write_residual_history_csv(hist_path, res.residual_history)
        assert csvio.read_residual_history_csv(hist_path) == res.residual_history

    @pytest.mark.parametrize("rows", ["1,0.2\n1,0.3\n", "0,0.2\n2,0.3\n"])
    def test_inversion_indices_each_once(self, tmp_path, rows):
        path = tmp_path / "inversion.csv"
        path.write_text("coeff_index,value\n" + rows)
        with pytest.raises(ValueError, match="coeff_index"):
            csvio.read_inversion_csv(path)

    def test_scan(self, tmp_path):
        scan = ScanResult(
            candidates=[(0.1,), (0.5,), (0.9,)],
            misfits=[3.0, 0.001, 2.0],
        )
        path = tmp_path / "scan.csv"
        csvio.write_scan_csv(path, scan)
        cands, misfits = csvio.read_scan_csv(path)
        assert cands == scan.candidates
        assert misfits == scan.misfits

    def test_regularity(self, tmp_path):
        rep = RegularityReport(
            alpha0=0.5,
            fitted_slope=-0.497,
            weighted_norm=1.234,
            fit_window=(1e-3, 1e-1),
        )
        path = tmp_path / "regularity.csv"
        csvio.write_regularity_csv(path, rep)
        row = csvio.read_regularity_csv(path)
        assert row["alpha0"] == 0.5
        assert row["fitted_slope"] == -0.497
        assert row["verdict"] == "singular"

    def test_float_formatting_shortest_roundtrip(self, tmp_path):
        values = [0.1, 1 / 3, np.pi, 1e-300, 123456.789012345678]
        for v in values:
            assert float(csvio.fmt(v)) == float(v)

    def test_rows_wider_than_header_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n1,2,3\n", encoding="utf-8")
        with pytest.raises(DomainError, match="rows do not match the header 'a,b'"):
            csvio._read_table(path)

    def test_scan_candidates_of_mixed_widths_rejected(self, tmp_path):
        scan = ScanResult(candidates=[(0.3,), (0.3, 0.1)], misfits=[1.0, 2.0])
        with pytest.raises(DomainError, match="scan candidates must share one coefficient count"):
            csvio.write_scan_csv(tmp_path / "scan.csv", scan)
        assert not (tmp_path / "scan.csv").exists()
