"""Command-line driver: forward solve, data synthesis, inversion,
regularity diagnosis, and uniqueness scans, all configured from one file.

Exit codes: 0 success, 1 numerical failure (a floating-point overflow,
division by zero or invalid operation among them), 2 configuration/input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import csvio
from .config import RunConfig
from .diagnostics import (MIN_FIT_SAMPLES, MIN_MESH_M, _mode_fit_window, fit_window_mask,
                          regularity_report)
from .errors import ConfigError, DomainError, VordiffError
from .forward import solve_forward, stability_ratio
from .inverse import check_observations, recover_order, synthesize_observations, uniqueness_scan


def _seed(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


def _synthesize(cfg: RunConfig):
    return synthesize_observations(
        cfg.model, (cfg.obs_a, cfg.obs_b), cfg.obs_x_count, cfg.mesh_M, cfg.noise_level, cfg.seed,
        refine=cfg.synthesis_refine, grading=cfg.mesh_r, n_modes=cfg.basis_N,
    )


def run_forward(cfg: RunConfig, args):
    field = solve_forward(cfg.model, cfg.mesh, cfg.basis_N)
    xs = np.linspace(0.0, cfg.L, cfg.out_x_count)
    csvio.write_solution_csv(os.path.join(cfg.out_dir, "solution.csv"), field, xs)
    csvio.write_modes_csv(os.path.join(cfg.out_dir, "modes.csv"), field)
    ratio = stability_ratio(field, cfg.diag_gamma)
    csvio.write_stability_csv(os.path.join(cfg.out_dir, "stability.csv"), cfg.diag_gamma, ratio)


def run_synth(cfg: RunConfig, args):
    obs = _synthesize(cfg)
    csvio.write_observations_csv(os.path.join(cfg.out_dir, "observations.csv"), obs)


def run_invert(cfg: RunConfig, args):
    if cfg.k_coeffs[0] == 0.0:  # the library's rule, for the config alone
        raise ConfigError("model.k_coeffs: order recovery requires k(0) != 0", args.config)
    try:
        obs = csvio.read_observations_csv(args.obs)
        check_observations(obs, cfg.model)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read observations: {exc}", args.obs) from None
    result = recover_order(obs, cfg.model, cfg.inversion)
    csvio.write_inversion_csv(os.path.join(cfg.out_dir, "inversion.csv"), result)
    csvio.write_residual_history_csv(
        os.path.join(cfg.out_dir, "residual_history.csv"), result.residual_history
    )


def run_diagnose(cfg: RunConfig, args):
    # both rules hold for the config alone, so check them before solving
    if cfg.mesh_M < MIN_MESH_M:
        raise ConfigError(f"mesh.M must be >= {MIN_MESH_M} to diagnose, got {cfg.mesh_M}")
    mesh, spec, window = cfg.mesh, cfg.model, (cfg.diag_fit_lo, cfg.diag_fit_hi)
    i, fitted = _mode_fit_window(basis := spec.basis(cfg.basis_N), spec.u0_coefficients(basis), window)
    inside = np.count_nonzero(fit_window_mask(mesh.nodes[1:-1], fitted))
    if inside < MIN_FIT_SAMPLES:
        cap = f" up to fit_hi lambda_1 / lambda_{i + 1} = {fitted[1]:.4g}" if i else ""
        raise ConfigError(f"diagnostics.fit_lo..fit_hi holds {inside} interior mesh nodes{cap}, "
                          f"need >= {MIN_FIT_SAMPLES}")
    field = solve_forward(spec, mesh, cfg.basis_N)
    try:
        report = regularity_report(field, spec.alpha.alpha0, cfg.diag_gamma, window=window)
    except DomainError as exc:  # past the checks above, the rounding floor empties it
        raise ConfigError(f"diagnostics.fit_lo..fit_hi: {exc}") from None
    csvio.write_regularity_csv(os.path.join(cfg.out_dir, "regularity.csv"), report)


def run_scan(cfg: RunConfig, args):
    grid = [(c0,) for c0 in cfg.scan_c0_grid]
    scan = uniqueness_scan(_synthesize(cfg), cfg.model, grid, cfg.inversion)
    csvio.write_scan_csv(os.path.join(cfg.out_dir, "scan.csv"), scan)


# The one declaration of the command set: name -> (help, runner).  Every
# runner takes (cfg, args) and writes its files into cfg.out_dir.
COMMANDS = {
    "forward": ("solve the model and write solution/modes/stability CSVs", run_forward),
    "synth": ("synthesize windowed observations (observations.csv)", run_synth),
    "invert": ("recover the variable order from observations", run_invert),
    "diagnose": ("estimate the initial-time regularity (regularity.csv)", run_diagnose),
    "scan": ("misfit scan over candidate constant orders (scan.csv)", run_scan),
}


@functools.cache  # built on the first main call, then reused: parse_args keeps no state
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vordiff",
        description="Variable-order time-fractional diffusion toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, runner) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=runner)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=_seed, default=None, help="seed override")
        if runner is run_invert:
            p.add_argument("--obs", required=True, help="observations.csv to invert")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # config checks too
            cfg = RunConfig.load(args.config)
            if args.seed is not None:
                cfg.seed = args.seed
            if args.out is not None:
                cfg.out_dir = args.out
            os.makedirs(cfg.out_dir, exist_ok=True)
            args.run(cfg, args)
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
