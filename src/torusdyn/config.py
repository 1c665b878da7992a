"""Flat key=value configs with section headers, and small file formats.

Lagrangians are described by a [lagrangian] section (dim, integrator, dt)
plus Fourier coefficient tables in [potential.cos], [potential.sin] and
[oneform.<i>.cos]/[oneform.<i>.sin] sections, keys being comma-separated
integer mode indices.  Canal experiments add a [canal] section whose core
polyline lives inline or in a CSV file (one vertex per row, optional
trailing integer wind columns).
"""

import configparser
import math

import numpy as np

from .fields import FourierSeries, OneForm
from .lagrangian import _INTEGRATORS, MechanicalLagrangian
from .perturbation import CanalExperimentConfig, CanalPotential


def _parse(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str   # keep key case and commas untouched
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed config: {exc}") from exc
    return cp


def _mode_key(key, dim):
    parts = [int(p) for p in key.replace(" ", "").split(",")]
    if len(parts) != dim:
        raise ValueError(f"mode index {key!r} has {len(parts)} entries, expected {dim}")
    return tuple(parts)


def _number(value, what):
    try:
        return float(value)
    except ValueError:
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def _finite(value, what):
    number = _number(value, what)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def _integer(value, what):
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _coeff_section(cp, name, dim):
    if not cp.has_section(name):
        return {}
    return {_mode_key(k, dim): _finite(v, f"[{name}] {k}") for k, v in cp.items(name)}


def parse_lagrangian(text):
    """(MechanicalLagrangian, meta) from config text; meta holds integrator/dt.

    Raises ValueError on a non-finite coefficient, a dt that is not a
    positive finite number, or an integrator `el_flow` does not know.
    """
    cp = _parse(text)
    if not cp.has_section("lagrangian"):
        raise ValueError("missing [lagrangian] section")
    if not cp.has_option("lagrangian", "dim"):
        raise ValueError("missing `dim` in [lagrangian]")
    dim = cp.getint("lagrangian", "dim")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    potential = FourierSeries(dim, _coeff_section(cp, "potential.cos", dim),
                              _coeff_section(cp, "potential.sin", dim))
    components = []
    any_oneform = False
    for i in range(1, dim + 1):
        cos = _coeff_section(cp, f"oneform.{i}.cos", dim)
        sin = _coeff_section(cp, f"oneform.{i}.sin", dim)
        any_oneform = any_oneform or cos or sin
        components.append(FourierSeries(dim, cos, sin))
    oneform = OneForm(components) if any_oneform else None
    meta = {
        "integrator": cp.get("lagrangian", "integrator", fallback=None),
        "dt": _finite(cp.get("lagrangian", "dt", fallback=1e-3), "dt"),
    }
    if meta["dt"] <= 0:
        raise ValueError(f"dt must be positive, got {meta['dt']!r}")
    if meta["integrator"] is not None and meta["integrator"] not in _INTEGRATORS:
        raise ValueError(f"unknown integrator {meta['integrator']!r}; "
                         f"expected one of {', '.join(sorted(_INTEGRATORS))}")
    return MechanicalLagrangian(dim, potential, oneform), meta


_CELL_RULES = {"coordinate": _finite, "wind": _integer, "orbit": _integer, "step": _integer}


def csv_rows(text):
    """(header, rows) of a CSV table; rows are (line number, cells) pairs.
    Blank and `#` lines are skipped.  The first line left is a header when its
    first cell is not a number (`x1,x2` is, `nan,0.5` is not); the rest is data."""
    rows = [(n, line.split(",")) for n, line in enumerate(map(str.strip, text.splitlines()), 1)
            if line and line[0] != "#"]
    try:
        float(rows[0][1][0] if rows else 0)
        return None, rows
    except ValueError:
        return [c.strip() for c in rows[0][1]], rows[1:]


def csv_cells(rows, kinds, expected):
    """Values of `csv_rows` data rows: `kinds(width)` names the kind of each cell
    (None skips it), or is None when no `width`-cell row fits.  A bad row or
    cell is a ValueError naming its line: "line 3: coordinate must be finite, got 'inf'"."""
    values = []
    for n, cells in rows:
        try:
            names = kinds(len(cells))
            if names is None:
                raise ValueError(f"expected {expected} columns, got {len(cells)}")
            values.append([_CELL_RULES[k](c, k) for c, k in zip(cells, names) if k])
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
    return values


def format_csv(header, rows):
    """CSV text, a line for the header and each row; a list cell's items are joined by `;`."""
    return "".join(",".join(";".join(map(str, c)) if isinstance(c, (list, tuple)) else str(c)
                            for c in row) + "\n" for row in [header, *rows])


def parse_polyline_csv(text):
    """Vertex rows of finite coordinates; a header `x1[,x2][,w1[,w2]]` may
    add per-segment integer wind columns.  Without a header all columns are
    coordinates and winds default to zero."""
    header, rows = csv_rows(text)
    if not rows:
        raise ValueError("empty polyline")
    n_winds = sum(c.startswith("w") for c in header) if header else 0
    dim = (len(header) if header else len(rows[0][1])) - n_winds
    layout = ("coordinate",) * dim + ("wind",) * n_winds
    values = csv_cells(rows, lambda width: layout if width == len(layout) else None,
                       f"{dim} coordinate and {n_winds} wind")
    winds = np.array([v[dim:] for v in values], dtype=int) if n_winds else None
    return np.array([v[:dim] for v in values]), winds


_CANAL_KEYS = {"core", "core_file", "eps", "k", "plateau", "tolerance"}


def parse_canal_experiment(text, base_dir="."):
    """(MechanicalLagrangian, CanalPotential, CanalExperimentConfig) from config.

    Raises ValueError without `eps`, for a key outside `_CANAL_KEYS`, an
    `eps` or `plateau` that is not positive and finite, a `tolerance` that
    is not finite and >= 0, or a `k` that is not an integer.
    """
    import os

    cp = _parse(text)
    L, meta = parse_lagrangian(text)
    if not cp.has_section("canal"):
        raise ValueError("missing [canal] section")
    sec = cp["canal"]
    unknown = sorted(set(sec) - _CANAL_KEYS)
    if unknown:
        raise ValueError(f"unknown [canal] key {unknown[0]!r}; "
                         f"expected one of {', '.join(sorted(_CANAL_KEYS))}")
    if "core_file" in sec:
        with open(os.path.join(base_dir, sec["core_file"])) as fh:
            verts, winds = parse_polyline_csv(fh.read())
    elif "core" in sec:
        verts, winds = parse_polyline_csv(sec["core"].replace(";", "\n"))
    else:
        raise ValueError("canal needs `core` (inline) or `core_file` (CSV path)")
    if "eps" not in sec:
        raise ValueError("canal needs `eps`")
    canal = CanalPotential(
        verts, eps=_finite(sec["eps"], "eps"), k=_integer(sec.get("k", 2), "k"),
        plateau=_finite(sec["plateau"], "plateau") if sec.get("plateau") else None,
        winds=winds)
    econf = CanalExperimentConfig(tolerance=_finite(sec.get("tolerance", 2e-2), "tolerance"))
    if econf.tolerance < 0:
        raise ValueError(f"tolerance must be finite and >= 0, got {econf.tolerance!r}")
    return L, canal, econf
