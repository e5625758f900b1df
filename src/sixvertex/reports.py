"""Run configuration, verification records, and file emission (JSON/CSV/SVG).

Outputs are deterministic: records serialize with sorted keys, the SVG writer
is hand-rolled (no plotting dependency), and writes go through an atomic
rename so concurrent commands never observe partial files.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .model import ModelParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "VerificationReport",
    "atomic_write_text",
    "write_csv",
    "write_svg_line",
    "ResultCache",
]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v):
    try:
        return _is_real(v) and math.isfinite(v)
    except OverflowError:           # an integer beyond the float range
        return False


_REFERENCE_MODEL = {"L": 4, "gamma": 0.7, "mu": [0.0, 0.0, 0.0, 0.0],
                    "phi1": 1.0, "phi2": 1.0}


@dataclass
class RunConfig:
    """Validated run configuration; defaults embed the reference scenario
    (L=4, gamma=0.7, homogeneous, untwisted)."""

    model: ModelParams
    sectors: list
    seed: int = 1234
    output_dir: Path = Path("out")
    checks: list = field(default_factory=list)
    perturb_lambda: float = 0.0

    def __post_init__(self):
        # the fields a command line overrides (through `dataclasses.replace`),
        # so a config file and an option are held to the same rules
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer: {self.seed!r}")
        if not _is_finite(self.perturb_lambda):
            raise ConfigError(
                f"perturb_lambda must be a finite number: {self.perturb_lambda!r}")
        if not isinstance(self.output_dir, (str, Path)):
            raise ConfigError(f"output_dir must be a path string: {self.output_dir!r}")
        if not (isinstance(self.checks, list)
                and all(isinstance(c, str) for c in self.checks)):
            raise ConfigError(f"checks must be a list of check names: {self.checks!r}")
        self.perturb_lambda = float(self.perturb_lambda)
        self.output_dir = Path(self.output_dir)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        try:
            model = ModelParams.from_dict(d.get("model", _REFERENCE_MODEL))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad model section: {exc}") from exc
        sectors = d.get("sectors", list(range(model.L + 1)))
        if not isinstance(sectors, (list, tuple)) or not all(
                _is_int(n) and 0 <= n <= model.L for n in sectors):
            raise ConfigError(f"sectors must be integers in [0, {model.L}]: {sectors}")
        if len(set(sectors)) != len(sectors):
            raise ConfigError(f"sectors must not repeat: {sectors}")
        if "tolerances" in d:
            raise ConfigError("tolerances are not configurable: each row's bound is "
                              "fixed in sixvertex.cli.TOLERANCES")
        return cls(model=model, sectors=list(sectors), seed=d.get("seed", 1234),
                   output_dir=d.get("output_dir", "out"), checks=d.get("checks", []),
                   perturb_lambda=d.get("perturb_lambda", 0.0))

    @classmethod
    def from_file(cls, path):
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def reference(cls, **overrides):
        d = {"model": dict(_REFERENCE_MODEL)}
        d.update(overrides)
        return cls.from_dict(d)


@dataclass
class VerificationReport:
    """One verified identity at one parameter point."""

    check: str
    identity: str
    residual: float
    tolerance: float
    parameters: dict = field(default_factory=dict)
    passed: bool = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.passed is None:
            self.passed = bool(self.residual <= self.tolerance)

    def to_dict(self):
        """Shallow: `parameters` and `details` are the report's own dicts."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["residual"] = float(self.residual)
        d["tolerance"] = float(self.tolerance)
        return d

    @classmethod
    def from_dict(cls, d):
        r = cls(**d)
        if not (isinstance(r.check, str) and isinstance(r.identity, str)
                and _is_real(r.residual) and _is_real(r.tolerance)
                and isinstance(r.passed, bool)):
            raise TypeError("check and identity must be strings, residual and "
                            "tolerance numbers and passed a boolean")
        return r

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status:4s}  {self.check:28s} {self.identity:34s} "
                f"residual={self.residual:11.3e}  tol={self.tolerance:.1e}")


# ---------------------------------------------------------------------------
# file emission

def atomic_write_text(path, text):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _csv_cell(v):
    if isinstance(v, np.generic):   # repr of a numpy scalar is np.float64(...)
        v = v.item()
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, complex):
        return f"{v.real!r}{v.imag:+}j".replace("+-", "-")
    return str(v)


def write_svg_line(path, xs, series, labels=(), title=""):
    """Minimal deterministic 720x480 SVG line plot.

    series is a list of y-arrays (nan entries break the polyline, which is
    how pole locations appear in potential profiles).
    """
    xs = np.asarray(xs, dtype=float)
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for ys in series])
    finite = ys_all[np.isfinite(ys_all)]
    if finite.size == 0:
        raise ValueError("nothing finite to plot")
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    x0, x1 = float(xs.min()), float(xs.max())
    width, height = 720, 480
    mleft, mright, mtop, mbot = 60, 20, 40, 45
    pw, ph = width - mleft - mright, height - mtop - mbot

    def px(x):
        return mleft + (x - x0) / (x1 - x0) * pw

    def py(y):
        return mtop + (hi - y) / (hi - lo) * ph

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{mleft}" y="{mtop}" width="{pw}" height="{ph}" fill="none" '
        'stroke="#888" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{width/2:.1f}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{title}</text>')
    # axis ticks: 5 per axis
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = lo + k * (hi - lo) / 4
        parts.append(f'<line x1="{px(xv):.1f}" y1="{mtop+ph}" x2="{px(xv):.1f}" '
                     f'y2="{mtop+ph+5}" stroke="#444"/>')
        parts.append(f'<text x="{px(xv):.1f}" y="{mtop+ph+20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{xv:.3g}</text>')
        parts.append(f'<line x1="{mleft-5}" y1="{py(yv):.1f}" x2="{mleft}" '
                     f'y2="{py(yv):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{mleft-9}" y="{py(yv)+4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.3g}</text>')
    for si, ys in enumerate(series):
        ys = np.asarray(ys, dtype=float)
        color = colors[si % len(colors)]
        seg = []
        for x, y in zip(xs, ys):
            if np.isfinite(y):
                seg.append(f"{px(float(x)):.2f},{py(float(y)):.2f}")
            elif seg:
                parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
                seg = []
        if seg:
            parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        if si < len(labels):
            parts.append(f'<text x="{mleft+10}" y="{mtop+18+16*si}" fill="{color}" '
                         f'font-family="sans-serif" font-size="12">{labels[si]}</text>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# eigensystem store

class ResultCache:
    """Store for per-sector eigendecompositions under caller-chosen keys.

    No command uses it: every run diagonalizes its sectors in memory.  The
    class stays only because the benchmark's per-layer tracer
    (perfbench/tracer.py) looks it up by name; it goes together with those
    tracer entries."""

    def __init__(self, root):
        self.root = Path(root)

    def _path(self, key, n):
        return self.root / f"eig-{key}-n{n}.npz"

    def load_sector(self, key, n, params):
        from .spectrum import EigenSystem
        path = self._path(key, n)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                if "coeffs" not in data:  # written before eigenvalues were exact sums
                    return None
                return EigenSystem(
                    params=params, n=n, x_star=complex(data["x_star"][0]),
                    indices=data["indices"], eigs=data["eigs"],
                    right=data["right"], left=data["left"], coeffs=data["coeffs"],
                )
        except (OSError, ValueError):
            return None

    def store_sector(self, key, es):
        path = self._path(key, es.n)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".npz")
        os.close(fd)
        try:
            np.savez(tmp, x_star=np.array([es.x_star]), indices=np.array(es.indices),
                     eigs=es.eigs, right=es.right, left=es.left,
                     coeffs=es.coeffs)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def sector(self, key, n, params, compute):
        es = self.load_sector(key, n, params)
        if es is None:
            es = compute()
            self.store_sector(key, es)
        return es

