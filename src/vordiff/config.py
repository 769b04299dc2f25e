"""Line-oriented run configuration: ``section.key = value`` pairs.

Lists are comma-separated, comments start with ``#``, and parsing is
strict: unknown keys, duplicate keys, and malformed lines are rejected
with the offending line number.  Loading resolves every default to a
concrete value, so parse -> emit -> parse is the identity.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .csvio import _read_table
from .diagnostics import default_fit_window
from .errors import ConfigError, DomainError
from .forward import ModelSpec, default_grading
from .fracops import OrderFunction, TimeMesh
from .inverse import MAX_NOISE_LEVEL, InversionConfig
from .spectral import SpectralBasis, analyze

# A u0 file's x column may stray this far, relative to L, from linspace(0, L, n).
U0_GRID_RTOL = 1e-9


def _parse_float_list(s):
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _parse_grading(s):
    return None if s == "auto" else float(s)


def _fmt_float(v):
    return repr(float(v))


def _fmt_float_list(v):
    return ", ".join(repr(float(x)) for x in v)


def _fmt_grading(v):
    return "auto" if v is None else repr(float(v))


def _key(key, parse, fmt, default=MISSING):
    """A field read from and emitted as ``key``; without a default it is required."""
    return field(default=default, metadata={"key": key, "parse": parse, "fmt": fmt})


@dataclass(kw_only=True)
class RunConfig:
    # Field order is the emit order.  None defaults are resolved at load.
    K: float = _key("model.K", float, _fmt_float)
    L: float = _key("model.L", float, _fmt_float)
    T: float = _key("model.T", float, _fmt_float)
    k_coeffs: tuple = _key("model.k_coeffs", _parse_float_list, _fmt_float_list, (1.0,))
    alpha_coeffs: tuple = _key("model.alpha_coeffs", _parse_float_list, _fmt_float_list)
    alpha_star: float = _key("model.alpha_star", float, _fmt_float)
    u0: str = _key("model.u0", str, str)
    mesh_M: int = _key("mesh.M", int, str)
    mesh_r: float | None = _key("mesh.r", _parse_grading, _fmt_grading, None)
    basis_N: int = _key("basis.N", int, str)
    obs_a: float = _key("observation.a", float, _fmt_float, None)
    obs_b: float = _key("observation.b", float, _fmt_float, None)
    obs_x_count: int = _key("observation.x_count", int, str, 16)
    noise_level: float = _key("observation.noise_level", float, _fmt_float, 0.0)
    synthesis_refine: int = _key("observation.synthesis_refine", int, str, 4)
    inv_degree: int = _key("inversion.degree", int, str, 0)
    inv_max_iter: int = _key("inversion.max_iter", int, str, 30)
    inv_gn_tolerance: float = _key("inversion.gn_tolerance", float, _fmt_float, 1e-8)
    inv_tikhonov: float = _key("inversion.tikhonov", float, _fmt_float, 0.0)
    inv_init: tuple = _key("inversion.init", _parse_float_list, _fmt_float_list, (0.5,))
    diag_gamma: float = _key("diagnostics.gamma", float, _fmt_float, 0.0)
    diag_fit_lo: float = _key("diagnostics.fit_lo", float, _fmt_float, None)
    diag_fit_hi: float = _key("diagnostics.fit_hi", float, _fmt_float, None)
    scan_c0_grid: tuple = _key("scan.c0_grid", _parse_float_list, _fmt_float_list, None)
    out_dir: str = _key("output.dir", str, str, "out")
    out_x_count: int = _key("output.x_count", int, str, 33)
    seed: int = _key("run.seed", int, str, 0)

    # -- construction ------------------------------------------------

    @classmethod
    def from_text(cls, text, path="<config>"):
        by_key = {f.metadata["key"]: f for f in fields(cls)}
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
            if key not in by_key:
                raise ConfigError(f"unknown key {key!r}", path, lineno)
            if key in raw:
                raise ConfigError(f"duplicate key {key!r}", path, lineno)
            raw[key] = (value, lineno)

        kwargs = {}
        for key, f in by_key.items():
            if key in raw:
                value, lineno = raw[key]
                try:
                    kwargs[f.name] = f.metadata["parse"](value)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad value for {key!r}: {exc}", path, lineno
                    ) from exc
            elif f.default is MISSING:
                raise ConfigError(f"missing key {key!r}", path)
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
        fit_lo, fit_hi = default_fit_window(self.T)
        if self.diag_fit_lo is None:
            self.diag_fit_lo = fit_lo
        if self.diag_fit_hi is None:
            self.diag_fit_hi = fit_hi
        if self.scan_c0_grid is None:
            # 17 constant orders over [0.1, 0.9], clipped to alpha_star
            hi = min(0.90, self.alpha_star)
            self.scan_c0_grid = tuple(np.linspace(min(0.10, hi), hi, 17).tolist())

    def _validate(self, path):
        try:
            self.order_function()
            self.time_mesh()
            SpectralBasis(self.K, self.L, self.basis_N)
            self.inversion_config()
        except DomainError as exc:
            raise ConfigError(str(exc), path) from exc
        if not 0.0 <= self.obs_a < self.obs_b <= self.L:
            raise ConfigError(
                f"observation window ({self.obs_a}, {self.obs_b}) must lie "
                f"inside [0, {self.L}]",
                path,
            )
        if not 0.0 <= min(self.scan_c0_grid) <= max(self.scan_c0_grid) <= self.alpha_star:
            raise ConfigError(f"scan.c0_grid values must lie in [0, {self.alpha_star}]", path)
        if self.synthesis_refine < 4:
            raise ConfigError(
                "observation.synthesis_refine must be >= 4: synthetic data has "
                "to come from a strictly finer mesh than the inversion mesh",
                path,
            )
        if not 0.0 <= self.noise_level <= MAX_NOISE_LEVEL:
            raise ConfigError(
                f"observation.noise_level {self.noise_level} outside "
                f"[0, {MAX_NOISE_LEVEL}]",
                path,
            )
        if not self.u0.startswith("file:"):  # a file is read and checked once, on use
            try:
                self.u0_profile()
            except ValueError as exc:
                raise ConfigError(f"bad u0 profile {self.u0!r}: {exc}", path) from None

    # -- emission ----------------------------------------------------

    def emit(self) -> str:
        return "".join(
            f"{f.metadata['key']} = {f.metadata['fmt'](getattr(self, f.name))}\n"
            for f in fields(self)
        )

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
            return SpectralBasis(self.K, self.L, self.basis_N).eigenfunction(int(self.u0[4:]))
        if self.u0.startswith("file:"):
            return self._u0_samples(self.u0[5:])
        raise DomainError("use 'parabola', 'mode<i>' or 'file:PATH'")

    def _u0_samples(self, fname):
        """u0 from an ``x,u0`` CSV file on the uniform grid over [0, L]."""
        try:
            x, u = _read_table(fname)[0].T
            if not np.abs(x - np.linspace(0.0, self.L, x.size)).max() <= U0_GRID_RTOL * self.L:
                raise DomainError(f"x column is not linspace(0, {self.L}, {x.size})")
            analyze(SpectralBasis(self.K, self.L, self.basis_N), u)  # count, parity, boundary
        except ValueError as exc:
            raise ConfigError(f"bad u0 file: {exc}", fname) from None
        return u

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
