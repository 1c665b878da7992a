"""Parsers either build a valid object or raise ValueError, on any input text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdyn.cli import run
from torusdyn.config import (
    csv_cells,
    csv_rows,
    ensemble_from_csv,
    parse_lagrangian,
    parse_matrix,
    parse_polyline_csv,
)
from torusdyn.entropy import LabeledOrbitEnsemble
from torusdyn.hyperbolic import cat_map, orbit_ensemble
from torusdyn.lagrangian import MechanicalLagrangian
from torusdyn.sft import TransitionMatrix

from helpers import ensemble_to_csv, format_polyline_csv

FUZZ = settings(max_examples=300, deadline=None)
INTS = st.integers(-3, 5).map(str) | st.sampled_from(["", "x", "1.5", "9" * 12, "-0"])
NUMS = (st.floats(allow_nan=True, allow_infinity=True).map(repr)
        | st.integers(-3, 3).map(str) | st.sampled_from(["", "a", "1e400", "0x1", "%", "%(x)s"]))


def parses_or_value_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


@st.composite
def rle_texts(draw):
    runs = draw(st.lists(st.tuples(INTS, st.sampled_from(["0", "1", "2", "", "a"])), max_size=6))
    return f"rle {draw(INTS)}\n" + " ".join(f"{c}*{b}" for c, b in runs)


@st.composite
def grid_texts(draw):
    rows = draw(st.lists(st.text("01 2-", max_size=5), max_size=5))
    return "\n".join(rows)


HEADERS = ["orbit,step,x1,x2", "x1,x2", "x1,w1", "index,x1,x2"]


@st.composite
def csv_texts(draw):
    rows = draw(st.lists(st.lists(NUMS, max_size=5).map(",".join)
                         | st.sampled_from(["", "  ", "# note", "#1,2"] + HEADERS), max_size=8))
    return "\n".join(draw(st.sampled_from([""] + HEADERS)).split() + rows)


@st.composite
def lagrangian_texts(draw):
    lines = ["[lagrangian]", f"dim = {draw(INTS)}"]
    for key in draw(st.lists(st.sampled_from(["dt", "integrator"]), max_size=2, unique=True)):
        lines.append(f"{key} = {draw(NUMS | st.sampled_from(['rk4', 'leapfrog', 'bogus']))}")
    sections = ["potential.cos", "potential.sin", "oneform.1.cos", "oneform.2.sin", "oneform.3.cos"]
    for name in draw(st.lists(st.sampled_from(sections), max_size=3, unique=True)):
        lines.append(f"[{name}]")
        for _ in range(draw(st.integers(0, 3))):
            key = ",".join(draw(st.lists(INTS, min_size=1, max_size=3)))
            lines.append(f"{key} = {draw(NUMS)}")
    return "\n".join(lines)


class TestParseMatrix:
    @FUZZ
    @given(text=st.text(max_size=40) | rle_texts() | grid_texts())
    def test_valid_matrix_or_value_error(self, text):
        A = parses_or_value_error(parse_matrix, text)
        if A is not None:
            assert isinstance(A, TransitionMatrix)
            assert A.bits.shape == (A.m, A.m) and A.m >= 1 and A.bits.any()

    @pytest.mark.parametrize("text", ["rle 2\n-3*0 4*1", "rle 2\n7*1 -3*0", "rle 2\n4*1 0*0 -1*1"])
    def test_negative_run_length(self, text):
        with pytest.raises(ValueError, match="run length"):
            parse_matrix(text)

    def test_zero_run_length_is_empty(self):
        assert parse_matrix("rle 2\n0*0 4*1") == TransitionMatrix(np.ones((2, 2)))

    def test_huge_run_length_is_refused_before_expanding(self):
        with pytest.raises(ValueError, match="bits"):
            parse_matrix("rle 2\n" + "9" * 15 + "*1")


class TestEnsembleFromCsv:
    @FUZZ
    @given(text=st.text(max_size=40) | csv_texts())
    def test_ensemble_or_value_error(self, text):
        F = parses_or_value_error(ensemble_from_csv, text)
        if F is not None:
            assert isinstance(F, LabeledOrbitEnsemble)
            assert F.orbits.ndim == 3 and F.orbits.shape[2] >= 1
            assert np.isfinite(F.orbits).all()

    def test_row_without_step_column(self):
        with pytest.raises(ValueError, match="columns"):
            ensemble_from_csv("0,0,0.1\n5\n")

    @pytest.mark.parametrize("steps,missing", [((0, 5), 1), ((-3, -1, 0), -2), ((-1, 1), 0)])
    def test_step_gap_names_the_first_missing_step(self, steps, missing):
        text = "".join(f"{o},{s},0.5\n" for o in range(2) for s in steps)
        with pytest.raises(ValueError, match=f"step {missing} is missing"):
            ensemble_from_csv(text)

    @pytest.mark.parametrize("rows,orbit,step", [
        ("0,0\n0,1\n1,0\n", 1, 1),
        ("0,-1\n0,0\n1,-1\n1,0\n2,0\n3,-1\n", 2, -1),
        ("5,0\n5,1\n5,2\n7,0\n7,2\n9,1\n", 7, 1),
    ])
    def test_ragged_ensemble_names_the_first_orbit_and_its_missing_step(self, rows, orbit, step):
        text = "orbit,step,x1\n" + "".join(f"{r},0.5\n" for r in rows.splitlines())
        with pytest.raises(ValueError, match=f"ragged ensemble: orbit {orbit} has no row "
                                             f"for step {step}$"):
            ensemble_from_csv(text)


class TestParsePolylineCsv:
    @FUZZ
    @given(text=st.text(max_size=40) | csv_texts())
    def test_polyline_or_value_error(self, text):
        parsed = parses_or_value_error(parse_polyline_csv, text)
        if parsed is not None:
            verts, winds = parsed
            assert verts.ndim == 2 and len(verts) >= 1 and np.isfinite(verts).all()
            assert winds is None or (winds.dtype.kind == "i" and len(winds) == len(verts))


class TestCsvReader:
    @FUZZ
    @given(text=st.text(max_size=40) | csv_texts())
    def test_rows_and_checked_cells(self, text):
        header, rows = csv_rows(text)
        lines = text.splitlines()
        assert [n for n, _ in rows] == sorted({n for n, _ in rows})
        for n, cells in rows:
            line = lines[n - 1].strip()
            assert line and not line.startswith("#") and cells == line.split(",")
        kinds = ("coordinate", "wind", "orbit", "step")
        try:
            values = csv_cells(rows, lambda width: kinds[:width], "four")
        except ValueError as exc:
            assert str(exc).split(":")[0] in {f"line {n}" for n, _ in rows}
        else:
            assert [len(v) for v in values] == [min(len(c), 4) for _, c in rows]
            assert all(np.isfinite(v[0]) and all(isinstance(c, int) for c in v[1:])
                       for v in values)


def _parse_message(reader, tmp_path, capsys, body):
    """The error message of one of the three CSV readers on `body`, rendered
    in its layout: `x1,x2` rows, or `orbit,step,x1,x2` rows for the ensemble."""
    if reader == "ensemble":
        rows = body.splitlines()
        data = [i for i, r in enumerate(rows) if r.strip() and not r.startswith("#")]
        for step, i in enumerate(data):
            rows[i] = f"0,{step},{rows[i]}"
        text, parse = "orbit,step,x1,x2\n" + "\n".join(rows), ensemble_from_csv
    else:
        text, parse = "x1,x2\n" + body, parse_polyline_csv
    if reader != "orbit":
        with pytest.raises(ValueError) as info:
            parse(text)
        return str(info.value)
    path = tmp_path / "orbit.csv"
    path.write_text(text)
    assert run(["shadow", "--orbit", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    return err[len("error: "):-1]


class TestOneRowRule:
    """The polyline, orbit-file and ensemble readers give one message per defect."""

    @pytest.mark.parametrize("body,message", [
        ("0.1,0.2\ninf,0.3\n", "line 3: coordinate must be finite, got 'inf'"),
        ("0.1,0.2\n0.4,0.3\nnan,0.3\n", "line 4: coordinate must be finite, got 'nan'"),
        ("0.1,0.2\nabc,0.3\n0.4,0.3\n", "line 3: coordinate must be a number, got 'abc'"),
        ("0.1,0.2\nx1,x2\n0.4,0.3\n", "line 3: coordinate must be a number, got 'x1'"),
        ("0.1,0.2\n\n# a comment\n  \n0.4,abc\n", "line 6: coordinate must be a number, got 'abc'"),
    ])
    @pytest.mark.parametrize("reader", ["polyline", "orbit", "ensemble"])
    def test_same_message(self, tmp_path, capsys, reader, body, message):
        assert _parse_message(reader, tmp_path, capsys, body) == message


def _with_comments(text, rng):
    lines = text.splitlines()
    for _ in range(4):
        lines.insert(int(rng.integers(1, len(lines) + 1)), rng.choice(["# note", "", "   "]))
    return "\n".join(lines) + "\n"


class TestOneWriter:
    @pytest.mark.parametrize("seed", range(4))
    def test_ensemble_round_trip_is_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        F = orbit_ensemble(cat_map(), 6, 4, backward=seed, rng=rng)
        F.orbits[0, 0] = [np.nextafter(0.0, 1.0), 1.0 - 2.0 ** -53]
        G = ensemble_from_csv(_with_comments(ensemble_to_csv(F), rng))
        assert np.array_equal(G.orbits, F.orbits) and G.origin == F.origin

    @pytest.mark.parametrize("seed", range(4))
    def test_polyline_round_trip_is_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        verts = rng.normal(size=(5, 2)) * 10.0 ** rng.integers(-300, 300, size=(5, 2))
        winds = rng.integers(-3, 4, size=(5, 2))
        v, w = parse_polyline_csv(_with_comments(format_polyline_csv(verts, winds), rng))
        assert np.array_equal(v, verts) and np.array_equal(w, winds)
        v, w = parse_polyline_csv(_with_comments(format_polyline_csv(verts), rng))
        assert np.array_equal(v, verts) and w is None


class TestParseLagrangian:
    @FUZZ
    @given(text=st.text(max_size=40) | lagrangian_texts())
    def test_lagrangian_or_value_error(self, text):
        parsed = parses_or_value_error(parse_lagrangian, text)
        if parsed is not None:
            L, meta = parsed
            assert isinstance(L, MechanicalLagrangian) and L.dim in (1, 2)
            assert meta["dt"] > 0 and np.isfinite(meta["dt"])

    @pytest.mark.parametrize("text", ["dim = 1", "[lagrangian]\ndim = 1\ndim = 2",
                                      "[lagrangian]\n[lagrangian]\ndim = 1", "[lagrangian]",
                                      "[lagrangian]\ndim = 1\ndt = %(x)s"])
    def test_malformed_ini_is_value_error(self, text):
        with pytest.raises(ValueError):
            parse_lagrangian(text)

    def test_huge_dim_is_refused_at_once(self):
        with pytest.raises(ValueError, match="dim"):
            parse_lagrangian("[lagrangian]\ndim = 1000000000\n")
