"""Line-oriented run configuration: ``section.key = value`` pairs.

Lists are comma-separated, comments start with ``#``, and parsing is
strict: unknown keys, duplicate keys, and malformed lines are rejected
with the offending line number.  Each key is declared once, with its
parser and default, and loading resolves every default to a concrete value.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .csvio import _read_table
from .diagnostics import default_fit_window
from .errors import ConfigError, DomainError, _count, _real
from .forward import ModelSpec, default_grading
from .fracops import OrderFunction, TimeMesh
from .inverse import MAX_NOISE_LEVEL, InversionConfig
from .spectral import SpectralBasis, analyze

# A u0 file's x column may stray this far, relative to L, from linspace(0, L, n).
U0_GRID_RTOL = 1e-9


def _parse_float_list(s):
    parts = [p.strip() for p in s.split(",")]
    if not any(parts):
        raise ValueError("empty list")
    if not all(parts):  # "0.3,,0.2" is no list of two values
        raise ValueError(f"empty element in {s!r}")
    return tuple(float(p) for p in parts)


def _parse_grading(s):
    return None if s == "auto" else float(s)


def _key(key, parse, default=MISSING):
    """A field read from ``key``; without a default it is required."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass(kw_only=True)
class RunConfig:
    """The keys of one run, and the objects loading builds from them once:
    ``model`` (its order and u0 included), ``mesh`` and ``inversion``.
    The ``--seed`` and ``--out`` overrides touch none of these objects."""

    # None defaults are resolved at load.
    K: float = _key("model.K", float)
    L: float = _key("model.L", float)
    T: float = _key("model.T", float)
    k_coeffs: tuple = _key("model.k_coeffs", _parse_float_list, (1.0,))
    alpha_coeffs: tuple = _key("model.alpha_coeffs", _parse_float_list)
    alpha_star: float = _key("model.alpha_star", float)
    u0: str = _key("model.u0", str)
    mesh_M: int = _key("mesh.M", int)
    mesh_r: float | None = _key("mesh.r", _parse_grading, None)
    basis_N: int = _key("basis.N", int)
    obs_a: float = _key("observation.a", float, None)
    obs_b: float = _key("observation.b", float, None)
    obs_x_count: int = _key("observation.x_count", int, 16)
    noise_level: float = _key("observation.noise_level", float, 0.0)
    synthesis_refine: int = _key("observation.synthesis_refine", int, 4)
    inv_degree: int = _key("inversion.degree", int, InversionConfig.degree)
    inv_max_iter: int = _key("inversion.max_iter", int, InversionConfig.max_iter)
    inv_gn_tolerance: float = _key("inversion.gn_tolerance", float, InversionConfig.gn_tolerance)
    inv_tikhonov: float = _key("inversion.tikhonov", float, InversionConfig.tikhonov)
    inv_init: tuple = _key("inversion.init", _parse_float_list, InversionConfig.init_coeffs)
    diag_gamma: float = _key("diagnostics.gamma", float, 0.0)
    diag_fit_lo: float = _key("diagnostics.fit_lo", float, None)
    diag_fit_hi: float = _key("diagnostics.fit_hi", float, None)
    scan_c0_grid: tuple = _key("scan.c0_grid", _parse_float_list, None)
    out_dir: str = _key("output.dir", str, "out")
    out_x_count: int = _key("output.x_count", int, 33)
    seed: int = _key("run.seed", int, 0)

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
        """Check the keys by building the run's objects from them, each once."""
        try:
            _count(self.basis_N, "basis.N")
            alpha = OrderFunction(self.alpha_coeffs, self.alpha_star, self.T)
            self.model = ModelSpec(self.K, self.L, self.T, self.k_coeffs, alpha, self._u0(path))
            self.mesh = TimeMesh(self.T, self.mesh_M, self.mesh_r)
            self.inversion = InversionConfig(
                degree=self.inv_degree, max_iter=self.inv_max_iter,
                gn_tolerance=self.inv_gn_tolerance, tikhonov=self.inv_tikhonov,
                alpha_star=self.alpha_star, n_modes=self.basis_N, init_coeffs=self.inv_init)
            _count(self.obs_x_count, "observation.x_count")
            _real(self.diag_gamma, "diagnostics.gamma")
            _count(self.out_x_count, "output.x_count")
            _count(self.seed, "run.seed", 0)
        except DomainError as exc:
            raise ConfigError(str(exc), path) from exc
        for key, ok, rule in (  # in field order
            ("observation.a", 0.0 <= self.obs_a < self.L, f"in [0, model.L = {self.L})"),
            ("observation.b", self.obs_a < self.obs_b <= self.L,
             f"in (observation.a, model.L = {self.L}]"),
            ("observation.noise_level", 0.0 <= self.noise_level <= MAX_NOISE_LEVEL,
             f"in [0, {MAX_NOISE_LEVEL}]"),
            ("observation.synthesis_refine", self.synthesis_refine >= 4,
             ">= 4, so synthetic data comes from a strictly finer mesh than the inversion mesh"),
            ("diagnostics.fit_lo", 0.0 < self.diag_fit_lo < self.diag_fit_hi, "in (0, fit_hi)"),
            ("diagnostics.fit_hi", self.diag_fit_hi <= self.T, f"<= model.T = {self.T}"),
            ("scan.c0_grid", all(0.0 <= c <= self.alpha_star for c in self.scan_c0_grid),
             f"in [0, model.alpha_star = {self.alpha_star}]"),
        ):
            if not ok:
                raise ConfigError(f"{key} must be {rule}", path)

    def _u0(self, path):
        """The u0 profile: a callable of x, or the samples of a ``file:`` CSV."""
        if self.u0 == "parabola":
            L = self.L
            return lambda x: np.asarray(x) * (L - np.asarray(x))
        basis = SpectralBasis(self.K, self.L, self.basis_N)
        if self.u0.startswith("file:"):
            return self._u0_samples(self.u0[5:], basis)
        try:
            if not self.u0.startswith("mode"):
                raise DomainError("use 'parabola', 'mode<i>' or 'file:PATH'")
            if not 1 <= (i := int(self.u0[4:])) <= self.basis_N:
                raise DomainError(f"mode index {i} outside 1..{self.basis_N}")
        except ValueError as exc:
            raise ConfigError(f"bad u0 profile {self.u0!r}: {exc}", path) from None
        return lambda x: basis.design_matrix(x)[:, i - 1]

    def _u0_samples(self, fname, basis):
        """u0 from an ``x,u0`` CSV file on the uniform grid over [0, L]."""
        try:
            x, u = _read_table(fname)[0].T
            if not np.abs(x - np.linspace(0.0, self.L, x.size)).max() <= U0_GRID_RTOL * self.L:
                raise DomainError(f"x column is not linspace(0, {self.L}, {x.size})")
            analyze(basis, u)  # count, parity, boundary
        except ValueError as exc:
            raise ConfigError(f"bad u0 file: {exc}", fname) from None
        return u
