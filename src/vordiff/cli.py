"""Command-line driver: forward solve, data synthesis, inversion,
regularity diagnosis, and uniqueness scans, all configured from one file.

Exit codes: 0 success, 1 numerical failure, 2 configuration/input error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import csvio
from .config import RunConfig
from .diagnostics import regularity_report
from .errors import ConfigError, VordiffError
from .forward import solve_forward, stability_ratio
from .inverse import recover_order, synthesize_observations, uniqueness_scan


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vordiff",
        description="Variable-order time-fractional diffusion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "forward": "solve the model and write solution/modes/stability CSVs",
        "synth": "synthesize windowed observations (observations.csv)",
        "invert": "recover the variable order from observations",
        "diagnose": "estimate the initial-time regularity (regularity.csv)",
        "scan": "misfit scan over candidate constant orders (scan.csv)",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "invert":
            p.add_argument("--obs", required=True, help="observations.csv to invert")
    return parser


def _synthesize(cfg: RunConfig):
    return synthesize_observations(
        cfg.model_spec(),
        (cfg.obs_a, cfg.obs_b),
        cfg.obs_x_count,
        cfg.mesh_M,
        cfg.noise_level,
        cfg.seed,
        refine=cfg.synthesis_refine,
        grading=cfg.mesh_r,
        n_modes=cfg.basis_N,
    )


def run_forward(cfg: RunConfig, out_dir):
    spec = cfg.model_spec()
    field = solve_forward(spec, cfg.time_mesh(), cfg.basis_N)
    xs = np.linspace(0.0, cfg.L, cfg.out_x_count)
    csvio.write_solution_csv(os.path.join(out_dir, "solution.csv"), field, xs)
    csvio.write_modes_csv(os.path.join(out_dir, "modes.csv"), field)
    ratio = stability_ratio(field, field.initial_coefficients(), cfg.diag_gamma)
    csvio.write_stability_csv(
        os.path.join(out_dir, "stability.csv"), cfg.diag_gamma, ratio
    )


def run_synth(cfg: RunConfig, out_dir):
    obs = _synthesize(cfg)
    csvio.write_observations_csv(os.path.join(out_dir, "observations.csv"), obs)


def run_invert(cfg: RunConfig, obs_path, out_dir):
    try:
        obs = csvio.read_observations_csv(obs_path)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        raise ConfigError(f"cannot read observations: {exc}", str(obs_path)) from None
    result = recover_order(obs, cfg.model_spec(with_order=False), cfg.inversion_config())
    csvio.write_inversion_csv(os.path.join(out_dir, "inversion.csv"), result)
    csvio.write_residual_history_csv(
        os.path.join(out_dir, "residual_history.csv"), result.residual_history
    )


def run_diagnose(cfg: RunConfig, out_dir):
    spec = cfg.model_spec()
    field = solve_forward(spec, cfg.time_mesh(), cfg.basis_N)
    alpha0 = spec.alpha.alpha0
    report = regularity_report(
        field, alpha0, cfg.diag_gamma, window=(cfg.diag_fit_lo, cfg.diag_fit_hi)
    )
    csvio.write_regularity_csv(
        os.path.join(out_dir, "regularity.csv"), report, alpha0
    )


def run_scan(cfg: RunConfig, out_dir):
    obs = _synthesize(cfg)
    grid = [(c0,) for c0 in cfg.scan_c0_grid]
    scan = uniqueness_scan(
        obs, cfg.model_spec(with_order=False), grid, cfg.inversion_config()
    )
    csvio.write_scan_csv(os.path.join(out_dir, "scan.csv"), scan)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        out_dir = cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.command == "forward":
            run_forward(cfg, out_dir)
        elif args.command == "synth":
            run_synth(cfg, out_dir)
        elif args.command == "invert":
            run_invert(cfg, args.obs, out_dir)
        elif args.command == "diagnose":
            run_diagnose(cfg, out_dir)
        elif args.command == "scan":
            run_scan(cfg, out_dir)
    except ConfigError as exc:
        print(f"vordiff: config error: {exc}", file=sys.stderr)
        return 2
    except (VordiffError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"vordiff: numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"vordiff: i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
