"""Parsers either build a valid object or raise ValueError, on any input text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdyn.config import parse_lagrangian
from torusdyn.entropy import LabeledOrbitEnsemble, ensemble_from_csv
from torusdyn.lagrangian import MechanicalLagrangian
from torusdyn.sft import TransitionMatrix, parse_matrix, parse_words

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


@st.composite
def csv_texts(draw):
    rows = draw(st.lists(st.lists(NUMS, max_size=5).map(",".join), max_size=8))
    return "\n".join(draw(st.sampled_from(["", "orbit,step,x1,x2"])).split() + rows)


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


class TestParseWords:
    @FUZZ
    @given(text=st.text(max_size=40) | st.lists(st.text("0123,-", max_size=6)).map("\n".join))
    def test_words_or_value_error(self, text):
        words = parses_or_value_error(parse_words, text)
        if words is not None:
            assert all(isinstance(w, tuple) and all(isinstance(s, int) and s >= 0 for s in w)
                       for w in words)

    def test_negative_symbol(self):
        with pytest.raises(ValueError, match="symbol"):
            parse_words("0,1\n-1,0\n")


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
