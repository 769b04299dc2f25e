"""Line-oriented run configuration: ``section.key = value`` pairs.

Lists are comma-separated, comments start with ``#``, and parsing is
strict: unknown keys, duplicate keys, and malformed lines are rejected
with the offending line number.  Loading resolves every default to a
concrete value, so parse -> emit -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .forward import ModelSpec, default_grading
from .fracops import OrderFunction, TimeMesh
from .inverse import InversionConfig
from .spectral import SpectralBasis


def _parse_float(s):
    return float(s)


def _parse_int(s):
    return int(s)


def _parse_float_list(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _parse_str(s):
    return s


def _parse_grading(s):
    return None if s == "auto" else float(s)


def _fmt_float(v):
    return repr(float(v))


def _fmt_int(v):
    return str(int(v))


def _fmt_float_list(v):
    return ", ".join(repr(float(x)) for x in v)


def _fmt_str(v):
    return str(v)


def _fmt_grading(v):
    return "auto" if v is None else repr(float(v))


# key -> (attr, parse, format, required, default)
_SCHEMA = {
    "model.K": ("K", _parse_float, _fmt_float, True, None),
    "model.L": ("L", _parse_float, _fmt_float, True, None),
    "model.T": ("T", _parse_float, _fmt_float, True, None),
    "model.k_coeffs": ("k_coeffs", _parse_float_list, _fmt_float_list, False, (1.0,)),
    "model.alpha_coeffs": ("alpha_coeffs", _parse_float_list, _fmt_float_list, True, None),
    "model.alpha_star": ("alpha_star", _parse_float, _fmt_float, True, None),
    "model.u0": ("u0", _parse_str, _fmt_str, True, None),
    "mesh.M": ("mesh_M", _parse_int, _fmt_int, True, None),
    "mesh.r": ("mesh_r", _parse_grading, _fmt_grading, False, None),
    "basis.N": ("basis_N", _parse_int, _fmt_int, True, None),
    "observation.a": ("obs_a", _parse_float, _fmt_float, False, None),
    "observation.b": ("obs_b", _parse_float, _fmt_float, False, None),
    "observation.x_count": ("obs_x_count", _parse_int, _fmt_int, False, 16),
    "observation.noise_level": ("noise_level", _parse_float, _fmt_float, False, 0.0),
    "observation.synthesis_refine": ("synthesis_refine", _parse_int, _fmt_int, False, 4),
    "inversion.degree": ("inv_degree", _parse_int, _fmt_int, False, 0),
    "inversion.max_iter": ("inv_max_iter", _parse_int, _fmt_int, False, 30),
    "inversion.gn_tolerance": ("inv_gn_tolerance", _parse_float, _fmt_float, False, 1e-8),
    "inversion.tikhonov": ("inv_tikhonov", _parse_float, _fmt_float, False, 0.0),
    "inversion.init": ("inv_init", _parse_float_list, _fmt_float_list, False, (0.5,)),
    "diagnostics.gamma": ("diag_gamma", _parse_float, _fmt_float, False, 0.0),
    "diagnostics.fit_lo": ("diag_fit_lo", _parse_float, _fmt_float, False, None),
    "diagnostics.fit_hi": ("diag_fit_hi", _parse_float, _fmt_float, False, None),
    "scan.c0_grid": ("scan_c0_grid", _parse_float_list, _fmt_float_list, False, None),
    "output.dir": ("out_dir", _parse_str, _fmt_str, False, "out"),
    "output.x_count": ("out_x_count", _parse_int, _fmt_int, False, 33),
    "run.seed": ("seed", _parse_int, _fmt_int, False, 0),
}

_ATTR_TO_KEY = {attr: key for key, (attr, *_rest) in _SCHEMA.items()}


@dataclass
class RunConfig:
    K: float
    L: float
    T: float
    k_coeffs: tuple
    alpha_coeffs: tuple
    alpha_star: float
    u0: str
    mesh_M: int
    mesh_r: float | None
    basis_N: int
    obs_a: float
    obs_b: float
    obs_x_count: int
    noise_level: float
    synthesis_refine: int
    inv_degree: int
    inv_max_iter: int
    inv_gn_tolerance: float
    inv_tikhonov: float
    inv_init: tuple
    diag_gamma: float
    diag_fit_lo: float
    diag_fit_hi: float
    scan_c0_grid: tuple
    out_dir: str
    out_x_count: int
    seed: int

    # -- construction ------------------------------------------------

    @classmethod
    def from_text(cls, text, path="<config>"):
        raw = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(
                    f"expected 'section.key = value', got {line.strip()!r}",
                    path,
                    lineno,
                )
            key, _, value = body.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"unknown key {key!r}", path, lineno)
            if key in raw:
                raise ConfigError(f"duplicate key {key!r}", path, lineno)
            raw[key] = (value, lineno)

        kwargs = {}
        for key, (attr, parse, _fmt, required, default) in _SCHEMA.items():
            if key in raw:
                value, lineno = raw[key]
                try:
                    kwargs[attr] = parse(value)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {key!r}: {exc}", path, lineno
                    ) from exc
            elif required:
                raise ConfigError(f"missing key {key!r}", path)
            else:
                kwargs[attr] = default
        cfg = cls(**kwargs)
        cfg._resolve()
        cfg._validate(path)
        return cfg

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}", str(path)) from None
        return cls.from_text(text, path=str(path))

    def _resolve(self):
        """Fill defaults that depend on other fields with concrete values."""
        if self.mesh_r is None:
            self.mesh_r = default_grading(self.alpha_coeffs[0])
        if self.obs_a is None:
            self.obs_a = 0.2 * self.L
        if self.obs_b is None:
            self.obs_b = 0.8 * self.L
        if self.diag_fit_lo is None:
            self.diag_fit_lo = self.T * 1e-3
        if self.diag_fit_hi is None:
            self.diag_fit_hi = self.T * 1e-1
        if self.scan_c0_grid is None:
            self.scan_c0_grid = tuple(np.linspace(0.10, 0.90, 17).tolist())

    def _validate(self, path):
        try:
            self.order_function()
            self.time_mesh()
            SpectralBasis(self.K, self.L, self.basis_N)
        except DomainError as exc:
            raise ConfigError(str(exc), path) from exc
        if not 0.0 <= self.obs_a < self.obs_b <= self.L:
            raise ConfigError(
                f"observation window ({self.obs_a}, {self.obs_b}) must lie "
                f"inside [0, {self.L}]",
                path,
            )
        if self.synthesis_refine < 4:
            raise ConfigError(
                "observation.synthesis_refine must be >= 4: synthetic data has "
                "to come from a strictly finer mesh than the inversion mesh",
                path,
            )
        if not 0.0 <= self.noise_level <= 0.1:
            raise ConfigError(
                f"observation.noise_level {self.noise_level} outside [0, 0.1]", path
            )
        if self.u0.startswith("mode"):
            try:
                idx = int(self.u0[4:])
            except ValueError:
                raise ConfigError(f"bad u0 profile {self.u0!r}", path) from None
            if not 1 <= idx <= self.basis_N:
                raise ConfigError(
                    f"u0 profile {self.u0!r} outside basis range 1..{self.basis_N}",
                    path,
                )
        elif self.u0 != "parabola" and not self.u0.startswith("file:"):
            raise ConfigError(
                f"unknown u0 profile {self.u0!r} (use 'parabola', 'mode<i>' "
                "or 'file:PATH')",
                path,
            )

    # -- emission ----------------------------------------------------

    def emit(self) -> str:
        lines = []
        for key, (attr, _parse, fmt, _required, _default) in _SCHEMA.items():
            lines.append(f"{key} = {fmt(getattr(self, attr))}")
        return "\n".join(lines) + "\n"

    # -- domain objects ----------------------------------------------

    def order_function(self) -> OrderFunction:
        return OrderFunction(self.alpha_coeffs, self.alpha_star, self.T)

    def time_mesh(self, M=None) -> TimeMesh:
        return TimeMesh(self.T, self.mesh_M if M is None else M, self.mesh_r)

    def u0_profile(self):
        if self.u0 == "parabola":
            L = self.L
            return lambda x: np.asarray(x) * (L - np.asarray(x))
        if self.u0.startswith("mode"):
            i = int(self.u0[4:])
            L = self.L
            scale = np.sqrt(2.0 / L)
            return lambda x: scale * np.sin(i * np.pi * np.asarray(x) / L)
        if self.u0.startswith("file:"):
            fname = self.u0[5:]
            data = np.loadtxt(fname, delimiter=",", skiprows=1)
            return np.asarray(data[:, 1], dtype=float)
        raise ConfigError(f"unknown u0 profile {self.u0!r}")

    def model_spec(self, with_order=True) -> ModelSpec:
        return ModelSpec(
            K=self.K,
            L=self.L,
            T=self.T,
            k_coeffs=self.k_coeffs,
            alpha=self.order_function() if with_order else None,
            u0=self.u0_profile(),
        )

    def inversion_config(self) -> InversionConfig:
        return InversionConfig(
            degree=self.inv_degree,
            max_iter=self.inv_max_iter,
            gn_tolerance=self.inv_gn_tolerance,
            tikhonov=self.inv_tikhonov,
            alpha_star=self.alpha_star,
            n_modes=self.basis_N,
            init_coeffs=self.inv_init,
        )
