"""Every text format torusdyn reads or writes: the one module that parses text.

Lagrangians are described by a [lagrangian] section (dim, integrator, dt)
plus Fourier coefficient tables in [potential.cos], [potential.sin] and
[oneform.<i>.cos]/[oneform.<i>.sin] sections, keys being comma-separated
integer mode indices.  Canal experiments add a [canal] section whose core
polyline lives inline or in a CSV file (one vertex per row, optional
trailing integer wind columns).  CSV tables (polylines, orbit files, orbit
ensembles) share one row reader and one writer; transition matrices are 0/1
grids or run-length text; and the CLI's list flags (`--k`, `--x`/`--y`,
`--matrix-entries`) are parsed here too.  Only the canal's `core_file` is
opened here; the CLI reads and writes every other file.
"""

import configparser
import math

import numpy as np

from .entropy import LabeledOrbitEnsemble
from .fields import FourierSeries, OneForm
from .lagrangian import _INTEGRATORS, MechanicalLagrangian
from .perturbation import CanalPotential
from .sft import TransitionMatrix


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
    return _lagrangian_of(_parse(text))


def _lagrangian_of(cp):
    """(L, meta) of parsed config, so a canal config is parsed once."""
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


def format_potential_table(rows):
    """Text cells (k, x, y, phi, status) of `action.potential_table` rows; phi
    is "" with status neg_inf where it is minus infinity."""
    return [(repr(k), ";".join(map(repr, x)), ";".join(map(repr, y)),
             *(("", "neg_inf") if phi == -math.inf else (repr(phi), "finite")))
            for k, x, y, phi in rows]


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


def parse_orbit_csv(text):
    """(n, 2) points of an orbit file: the last two cells of a row are its
    point; leading cells, such as an index, are labels and are not read."""
    _, rows = csv_rows(text)
    return np.array(csv_cells(
        rows, lambda w: (None,) * (w - 2) + ("coordinate",) * 2 if w >= 2 else None,
        "two coordinate"))


def ensemble_from_csv(text):
    """Ensemble from CSV rows `orbit,step,x1,...`: every orbit has one row
    per step, and the step labels are consecutive integers (negative steps
    hold backward iterates; step 0, when present, is the origin)."""
    _, rows = csv_rows(text)
    values = csv_cells(rows, lambda w: ("orbit", "step") + ("coordinate",) * (w - 2)
                       if w >= 2 else None, "orbit,step,coordinate")
    lines = [n for n, _ in rows]
    if not values:
        raise ValueError("no data rows")
    dims = sorted({len(v) - 2 for v in values})
    if len(dims) > 1:
        raise ValueError(f"ensemble rows carry different coordinate counts {dims}")
    if dims == [0]:
        raise ValueError("ensemble rows carry no coordinate columns")
    # the first line of each (orbit, step) pair
    first = {(v[0], v[1]): n for n, v in zip(reversed(lines), reversed(values))}
    if len(first) < len(values):
        n, o, s = next((n, v[0], v[1]) for n, v in zip(lines, values) if first[v[0], v[1]] != n)
        raise ValueError(f"line {n}: orbit {o} step {s} repeats line {first[o, s]}")
    steps = sorted({v[1] for v in values})
    gap = next((i for i in range(1, len(steps)) if steps[i] != steps[i - 1] + 1), None)
    if gap is not None:
        n = next(n for n, v in zip(lines, values) if v[1] == steps[gap])
        raise ValueError(f"line {n}: step {steps[gap]} leaves a gap; step labels must be "
                         f"consecutive integers and step {steps[gap - 1] + 1} is missing")
    orbit_ids = sorted({v[0] for v in values})
    id_pos = {o: i for i, o in enumerate(orbit_ids)}
    orbits = np.full((len(orbit_ids), len(steps), dims[0]), np.nan)
    at = ([id_pos[v[0]] for v in values], [v[1] - steps[0] for v in values])
    orbits[at] = [v[2:] for v in values]
    if len(values) != orbits.shape[0] * orbits.shape[1]:
        o, t = np.argwhere(np.isnan(orbits[:, :, 0]))[0].tolist()
        raise ValueError(f"ragged ensemble: orbit {orbit_ids[o]} has no row for step "
                         f"{steps[0] + t}")
    return LabeledOrbitEnsemble(orbits, origin=-steps[0] if steps[0] <= 0 <= steps[-1] else 0)


def format_matrix(A: TransitionMatrix):
    """Serialize as a 0/1 grid, one row per line."""
    return "\n".join("".join("1" if b else "0" for b in row) for row in A.bits) + "\n"


def parse_matrix(text):
    """TransitionMatrix of a 0/1 grid (`11` or `1 1` per row) or of run-length
    text (`rle <size>`, then `count*bit` tokens)."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    if lines[0].startswith("rle"):
        try:
            _, size = lines[0].split()
            m = int(size)
        except ValueError:
            raise ValueError(f"run-length header {lines[0]!r} must be `rle <size>`") from None
        if m < 1:
            raise ValueError(f"run-length size {m} must be at least 1")
        counts, values = [], []
        for tok in " ".join(lines[1:]).split():
            try:
                count, bit = (int(v) for v in tok.split("*"))
            except ValueError:
                raise ValueError(f"run token {tok!r} must be `count*bit`") from None
            if count < 0:
                raise ValueError(f"run length {count} in {tok!r} is negative")
            if bit not in (0, 1):
                raise ValueError(f"run token {tok!r}: entries must be 0 or 1")
            counts.append(count)
            values.append(bit)
        if sum(counts) != m * m:
            raise ValueError(f"run-length data has {sum(counts)} bits, expected {m * m}")
        bits = np.repeat(np.array(values, dtype=np.int8), counts).reshape(m, m)
    else:
        rows = []
        for ln in lines:
            try:
                rows.append([int(c) for c in (ln.split() if " " in ln else ln)])
            except ValueError:
                raise ValueError(f"matrix row {ln!r}: entries must be 0 or 1") from None
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix grid is not square")
        bits = np.array(rows)
    return TransitionMatrix(bits)


def parse_k_list(text):
    """The numbers of `--k`, comma-separated."""
    return [_number(v, f"--k value {i}: k") for i, v in enumerate(text.split(","), 1)]


def parse_point_list(flag, text):
    """The points of `flag` (`--x`, `--y`): `,` between points and `;` between
    coordinates, each finite."""
    return [[_finite(c, f"{flag} point {i}: coordinate") for c in p.split(";")]
            for i, p in enumerate(text.split(","), 1)]


def parse_matrix_entries(text):
    """The 2 x 2 integer matrix of `--matrix-entries a,b,c,d`."""
    entries = [_integer(v, f"--matrix-entries entry {i}")
               for i, v in enumerate(text.split(","), 1)]
    if len(entries) != 4:
        raise ValueError(f"--matrix-entries needs 4 entries a,b,c,d, got {len(entries)}")
    return np.array(entries).reshape(2, 2)


_CANAL_KEYS = {"core", "core_file", "eps", "k", "plateau", "tolerance"}


def parse_canal_experiment(text, base_dir="."):
    """(MechanicalLagrangian, CanalPotential, tolerance) from config.

    Raises ValueError without `eps`, for a key outside `_CANAL_KEYS`, an
    `eps` or `plateau` that is not positive and finite, a `tolerance` that
    is not finite and >= 0, or a `k` that is not an integer.
    """
    import os

    cp = _parse(text)
    L, _ = _lagrangian_of(cp)
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
    tolerance = _finite(sec.get("tolerance", 2e-2), "tolerance")
    if tolerance < 0:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    return L, canal, tolerance
