import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from torusdyn import config as config_mod
from torusdyn.cli import run
from torusdyn.fields import FourierSeries, OneForm
from torusdyn.lagrangian import MechanicalLagrangian

from helpers import ensemble_to_csv, format_polyline_csv

PENDULUM_CFG = """\
[lagrangian]
dim = 1
dt = 0.001

[potential.cos]
1 = 1.0
"""

MAGNETIC_CFG = PENDULUM_CFG + """
[oneform.1.cos]
0 = 2.0
"""

T2_CFG = """\
[lagrangian]
dim = 2
dt = 0.001

[potential.cos]
1,0 = 1.0
0,1 = 0.5
"""

CANAL_CFG = PENDULUM_CFG + """
[canal]
eps = 0.1
k = 2
core = 0.0
"""


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text("11\n10\n")
    return str(path)


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def assert_one_error_line(capsys, argv, needle):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and needle in lines[0]


def src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    import torusdyn

    src = os.path.dirname(os.path.dirname(os.path.abspath(torusdyn.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


class TestSubcommands:
    def test_sft_entropy_golden(self, capsys, golden_file):
        code, out = run_capture(capsys, ["sft-entropy", "--matrix", golden_file])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["h"] - np.log((1 + np.sqrt(5)) / 2)) < 1e-9

    def test_sft_shortest_cycle(self, capsys):
        code, out = run_capture(capsys, ["sft-shortest-cycle", "--golden-mean"])
        payload = json.loads(out)
        assert code == 0 and payload["period"] == 1
        assert payload["period"] <= payload["bq_bound"]

    def test_sft_shortest_cycle_csv_prints_plain_symbols(self, capsys, tmp_path):
        path = tmp_path / "three.txt"
        path.write_text("010\n001\n100\n")
        code, out = run_capture(capsys, ["sft-shortest-cycle", "--matrix", str(path),
                                         "--format", "csv"])
        assert code == 0 and "cycle,0;1;2\n" in out          # was "cycle,[0, 1, 2]"
        rows = out.splitlines()
        assert all(len(r.split(",")) == len(rows[0].split(",")) for r in rows)

    def test_sft_recode(self, capsys, tmp_path):
        out_path = str(tmp_path / "z2.txt")
        code, out = run_capture(capsys, ["sft-recode", "--golden-mean", "--n", "2",
                                         "--matrix-out", out_path])
        payload = json.loads(out)
        assert code == 0 and payload["symbols"] == 3 and payload["inequality_ok"]
        from torusdyn.sft import load_matrix, top_entropy
        assert abs(top_entropy(load_matrix(out_path)) - payload["h_recoded"]) < 1e-12

    def test_critical_value(self, capsys, tmp_path):
        cfg = tmp_path / "pendulum.cfg"
        cfg.write_text(PENDULUM_CFG)
        code, out = run_capture(capsys, ["critical-value", "--config", str(cfg)])
        payload = json.loads(out)
        assert code == 0 and abs(payload["c"] - 1.0) <= 1e-2

    def test_action_potential_csv(self, capsys, tmp_path):
        cfg = tmp_path / "pendulum.cfg"
        cfg.write_text(PENDULUM_CFG)
        code, out = run_capture(capsys, [
            "action-potential", "--config", str(cfg), "--k", "0.5,1.2",
            "--x", "0.0", "--y", "0.5", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,x,y,phi,status"
        assert "neg_inf" in lines[1] and "finite" in lines[2]

    def test_suspend_integrate(self, capsys):
        code, out = run_capture(capsys, [
            "suspend-integrate", "--golden-mean", "--tau-base", "1.0",
            "--tau-bonus", "0.5", "--f", "height"])
        payload = json.loads(out)
        assert code == 0
        p1 = 1.0 / (1.0 + ((1 + np.sqrt(5)) / 2) ** 2)
        exact = (1.0 * (1 - p1) + 2.25 * p1) / (2 * (1.0 + 0.5 * p1))
        assert abs(payload["value"] - exact) < 1e-9

    def test_entropy_estimate(self, capsys):
        code, out = run_capture(capsys, [
            "entropy-estimate", "--orbits", "400", "--steps", "10", "--seed", "3"])
        payload = json.loads(out)
        assert code == 0
        assert payload["r"] <= payload["s"]
        assert abs(payload["h_estimate"] - np.log((3 + np.sqrt(5)) / 2)) <= 0.15

    def test_entropy_series_csv(self, capsys):
        code, out = run_capture(capsys, [
            "entropy-estimate", "--orbits", "50", "--steps", "5", "--seed", "1",
            "--series", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,cover,close_pairs"
        assert len(lines) == 7

    def test_entropy_series_json_carries_the_series(self, capsys):
        # --series printed the same JSON as without the flag
        argv = ["entropy-estimate", "--orbits", "200", "--steps", "3", "--seed", "0"]
        plain = json.loads(run_capture(capsys, argv)[1])
        code, out = run_capture(capsys, argv + ["--series"])
        payload = json.loads(out)
        assert code == 0 and payload.pop("series") and payload == plain
        code, csv = run_capture(capsys, argv + ["--series", "--format", "csv"])
        rows = [[int(v) for v in line.split(",")] for line in csv.strip().splitlines()[1:]]
        assert json.loads(out)["series"] == [dict(zip(("t", "cover", "close_pairs"), r))
                                             for r in rows]

    def test_hexpansivity(self, capsys):
        code, out = run_capture(capsys, [
            "hexpansivity", "--orbits", "100", "--steps", "40", "--horizon", "30"])
        payload = json.loads(out)
        assert code == 0 and payload["probe"] <= 0.05

    def test_shadow(self, capsys):
        code, out = run_capture(capsys, [
            "shadow", "--delta", "1e-4", "--length", "2000", "--count", "4", "--seed", "7"])
        payload = json.loads(out)
        assert code == 0
        assert payload["eps_achieved"] <= payload["Q"] * payload["delta"]
        assert payload["all_within_Q_delta"]

    def test_canal_experiment(self, capsys, tmp_path):
        cfg = tmp_path / "canal.cfg"
        cfg.write_text(CANAL_CFG)
        code, out = run_capture(capsys, ["canal-experiment", "--config", str(cfg)])
        payload = json.loads(out)
        assert code == 0 and payload["monotone"]
        assert abs(payload["c_perturbed"] - 1.0) <= 2e-2


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(["sft-entropy", "--bogus-flag"]) == 2

    def test_unknown_command_is_2(self, capsys):
        assert run(["not-a-command"]) == 2

    def test_domain_error_is_1(self, capsys):
        # acyclic matrix: shortest cycle is a domain error
        import tempfile, os
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
            fh.write("01\n00\n")
            path = fh.name
        try:
            assert run(["sft-shortest-cycle", "--matrix", path]) == 1
        finally:
            os.unlink(path)

    def test_missing_file_is_1(self, capsys):
        assert run(["sft-entropy", "--matrix", "/nonexistent/m.txt"]) == 1

    @pytest.mark.parametrize("argv,flag", [
        (["entropy-estimate", "--orbits", "0"], "--orbits"),
        (["hexpansivity", "--orbits", "0"], "--orbits"),
        (["shadow", "--count", "0"], "--count"),
        (["shadow", "--length", "0"], "--length"),    # was an IndexError traceback
        (["shadow", "--length", "1"], "--length"),
    ])
    def test_empty_batch_is_1(self, capsys, argv, flag):
        assert_one_error_line(capsys, argv, flag)

    @pytest.mark.parametrize("value", ["nan", "-1e-4", "inf", "0.25"])
    def test_shadow_delta_out_of_range_is_1(self, capsys, value):
        # nan used to fail as "points must be finite", -1e-4 as an observed jump
        assert_one_error_line(capsys, ["shadow", f"--delta={value}", "--length", "50"], "--delta")

    @pytest.mark.parametrize("old,new,needle", [
        ("1 = 1.0", "1 = nan", "finite"),
        ("1 = 1.0", "1 = inf", "finite"),
        ("dt = 0.001", "dt = -1", "dt"),
        ("dt = 0.001", "dt = 0", "dt"),
        ("dt = 0.001", "dt = nan", "dt"),
        ("dt = 0.001", "dt = 0.001\nintegrator = bogus", "integrator"),
    ])
    def test_bad_config_is_1(self, capsys, tmp_path, old, new, needle):
        path = tmp_path / "bad.cfg"
        path.write_text(PENDULUM_CFG.replace(old, new))
        assert_one_error_line(capsys, ["critical-value", "--config", str(path)], needle)

    @pytest.mark.parametrize("text,needle", [
        ("12\n10\n", "0 or 1"),
        ("rle 2\n1*1 1*2 2*0\n", "0 or 1"),
        ("rle\n4*1\n", "rle"),
        ("rle x\n4*1\n", "'rle x'"),             # int()'s message named no header
        ("rle 2\n3 1*0\n", "'3'"),               # was an unpacking message
        ("rle 2\n1*1 3*x\n", "'3*x'"),
        ("rle 2\n4*2\n", "'4*2'"),
        ("11\n1a\n", "'1a'"),
    ])
    def test_bad_matrix_is_1(self, capsys, tmp_path, text, needle):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert_one_error_line(capsys, ["sft-entropy", "--matrix", str(path)], needle)

    @pytest.mark.parametrize("old,new,needle", [
        ("eps = 0.1\n", "", "eps"),                  # was a KeyError traceback
        ("eps = 0.1", "eps = nan", "eps"),            # nan, inf and a nan plateau or tolerance
        ("eps = 0.1", "eps = inf", "eps"),            # exited 1 as a monotonicity violation
        ("k = 2", "k = 2\nplateau = nan", "plateau"),
        ("k = 2", "k = 2\nplateau = -1", "plateau"),     # exited 0
        ("k = 2", "k = 2\ntolerance = nan", "tolerance"),
        ("k = 2", "k = 2\ntolerance = -1", "tolerance"),
        ("k = 2", "k = 2.5", "k must be an integer"),    # int()'s message named no key
        ("eps = 0.1", "eps = abc", "eps must be a number"),   # float()'s message named no key
        ("k = 2", "k = 2\ntolerance = x", "tolerance must be a number"),
        # keys of the retired loop sample would be read by nothing and exit 0
        pytest.param("k = 2", "k = 2\nn_random_loops = 40", "unknown [canal] key 'n_random_loops'",
                     id="retired n_random_loops"),
        pytest.param("k = 2", "k = 2\nseed = -1", "unknown [canal] key 'seed'", id="retired seed"),
    ])
    def test_bad_canal_config_is_1(self, capsys, tmp_path, old, new, needle):
        path = tmp_path / "canal.cfg"
        path.write_text(CANAL_CFG.replace(old, new))
        assert_one_error_line(capsys, ["canal-experiment", "--config", str(path)], needle)

    @pytest.mark.parametrize("command,text,needle", [
        # a core wind of 0.7 was truncated to 0 and exited 0, an inf wind was an
        # OverflowError traceback, an inf coordinate printed a RuntimeWarning
        # line and then "cannot convert float NaN to integer"
        ("canal", "x1,w1\n0.0,0.7\n", "line 2: wind must be an integer, got '0.7'"),
        ("canal", "x1,w1\n0.0,inf\n", "line 2: wind must be an integer, got 'inf'"),
        ("canal", "x1,w1\n0.0,0\ninf,0\n", "line 3: coordinate must be finite"),
        ("canal", "x1\n0.0\nnan\n", "line 3: coordinate must be finite"),
        ("canal", "nan\n0.0\n", "line 1: coordinate must be finite"),   # was read as a header
        ("canal", "x1\n0.0\nabc\n", "line 3: coordinate must be a number, got 'abc'"),
        ("shadow", "index,x1,x2\n0,0.1,0.2\n1,inf,0.3\n",
         "line 3: coordinate must be finite, got 'inf'"),
        ("shadow", "index,x1,x2\n0,0.1,0.2\n1,0.2,nan\n",
         "line 3: coordinate must be finite, got 'nan'"),
        ("shadow", "index,x1,x2\n0,0.1,0.2\n1,abc,0.3\n",
         "line 3: coordinate must be a number, got 'abc'"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,1,inf\n1,0,0.4\n1,1,0.6\n",
         "line 3: coordinate must be finite, got 'inf'"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,1,nan\n1,0,0.4\n1,1,0.6\n",
         "line 3: coordinate must be finite, got 'nan'"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,1,abc\n1,0,0.4\n1,1,0.6\n",
         "line 3: coordinate must be a number, got 'abc'"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,0.5,0.2\n1,0,0.4\n1,1,0.6\n",
         "line 3: step must be an integer, got '0.5'"),
        # each file exited 0: the row was skipped, overwrote an earlier row, or
        # had its step gap closed up
        ("shadow", "x1,x2\n0.1,0.2\n0.4,0.3\ninf,0.3\n",
         "line 4: coordinate must be finite, got 'inf'"),
        ("shadow", "x1,x2\n0.1,0.2\nnan,0.5\n0.4,0.3\n",
         "line 3: coordinate must be finite, got 'nan'"),
        ("shadow", "x1,x2\n0.1,0.2\nabc,def\n0.4,0.3\n",
         "line 3: coordinate must be a number, got 'abc'"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,1,0.2\n1,0,0.4\n1,1,0.6\nnan,1,0.6\n",
         "line 6: orbit must be an integer, got 'nan'"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,1,0.2\ninf,0,0.4\n1,0,0.4\n1,1,0.6\n",
         "line 4: orbit must be an integer, got 'inf'"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,1,0.2\norbit,step,x1\n1,0,0.4\n1,1,0.6\n",
         "line 4: orbit must be an integer, got 'orbit'"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,1,0.2\n1,0,0.4\n1,1,0.6\n0,1,0.9\n",
         "line 6: orbit 0 step 1 repeats line 3"),
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,5,0.2\n1,0,0.4\n1,5,0.6\n",
         "line 3: step 5 leaves a gap; step labels must be consecutive integers "
         "and step 1 is missing"),
        # said "ragged ensemble: missing (orbit, step) rows", naming neither
        ("ensemble", "orbit,step,x1\n0,0,0.1\n0,1,0.2\n1,0,0.4\n",
         "ragged ensemble: orbit 1 has no row for step 1"),
    ])
    def test_bad_file_cell_is_1(self, capsys, tmp_path, command, text, needle):
        cells = tmp_path / "cells.csv"
        cells.write_text(text)
        cfg = tmp_path / "canal.cfg"
        cfg.write_text(CANAL_CFG.replace("core = 0.0", f"core_file = {cells.name}"))
        argv = {"canal": ["canal-experiment", "--config", str(cfg)],
                "shadow": ["shadow", "--orbit", str(cells)],
                "ensemble": ["entropy-estimate", "--ensemble", str(cells)]}[command]
        assert_one_error_line(capsys, argv, needle)

    @pytest.mark.parametrize("symbol", ["7", "2", "-1"])
    def test_missing_tau_symbol_is_1(self, capsys, symbol):
        # the bonus never applied to a symbol the shift does not have, and it exited 0
        assert_one_error_line(capsys, ["suspend-integrate", "--golden-mean", "--tau-bonus", "0.5",
                                       f"--tau-symbol={symbol}"], "--tau-symbol")

    @pytest.mark.parametrize("flags,needle", [
        (["--tau-base", "inf"], "--tau-base"),     # exited 0 with "value": NaN
        (["--tau-base", "-1"], "--tau-base"),
        (["--tau-base", "nan"], "--tau-base"),
        (["--tau-bonus", "nan"], "--tau-bonus"),   # said "ceiling value nan escapes [1.0, 1.0]"
        (["--tau-bonus=-inf"], "--tau-bonus"),
        (["--tau-bonus=-1"], "--tau-bonus"),
    ])
    def test_bad_ceiling_is_1(self, capsys, flags, needle):
        assert_one_error_line(capsys, ["suspend-integrate", "--golden-mean"] + flags, needle)

    @pytest.mark.parametrize("flags,needle", [
        # printed "mean_ceiling": Infinity, "value": NaN and exited 0; the
        # ceiling now refuses its infinite bound before any integral
        (["--tau-base", "1e308", "--tau-bonus", "1e308"], "'tau_max'"),
        (["--tau-base", "1e308", "--tau-bonus", "1e308", "--format", "csv"], "'tau_max'"),
        (["--tau-base", "1e200"], "'value'"),        # tau^2/2 overflowed to Infinity
        (["--tau-base", "1e200", "--format", "csv"], "'value'"),
    ])
    def test_overflowed_integral_is_1(self, capsys, flags, needle):
        assert_one_error_line(capsys, ["suspend-integrate", "--golden-mean"] + flags, needle)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_is_1(self, capsys, tmp_path, tol):
        # nan printed "tol": NaN, which is not JSON; the others were accepted
        path = tmp_path / "pendulum.cfg"
        path.write_text(PENDULUM_CFG)
        assert_one_error_line(capsys, ["critical-value", "--config", str(path), f"--tol={tol}"],
                              "--tol must be finite and > 0")

    @pytest.mark.parametrize("command", ["sft-entropy", "sft-shortest-cycle", "sft-recode",
                                         "suspend-integrate"])
    def test_conflicting_matrix_flags_are_2(self, capsys, golden_file, command):
        # --golden-mean --full-shift 3 printed the golden mean's entropy and exited 0
        extra = ["--n", "2"] if command == "sft-recode" else []
        for flags in (["--golden-mean", "--full-shift", "3"],
                      ["--matrix", golden_file, "--golden-mean"],
                      ["--full-shift", "2", "--matrix", golden_file]):
            assert run([command] + flags + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "not allowed with argument" in captured.err
        assert_one_error_line(capsys, [command] + extra, "no transition matrix given "
                                                         "(--matrix/--golden-mean/--full-shift)")

    @pytest.mark.parametrize("argv,needle", [
        # numpy's reshape and int() messages named no flag
        (["shadow", "--matrix-entries", "1,2,3"], "--matrix-entries needs 4 entries a,b,c,d, got 3"),
        (["shadow", "--matrix-entries", "2,1,1,1,0"],
         "--matrix-entries needs 4 entries a,b,c,d, got 5"),
        (["shadow", "--matrix-entries", "a,1,1,1"],
         "--matrix-entries entry 1 must be an integer, got 'a'"),
        (["shadow", "--matrix-entries", "2,1,1,1.5"],
         "--matrix-entries entry 4 must be an integer, got '1.5'"),
        # the identity's eigenvalues are real: it is not hyperbolic
        (["shadow", "--matrix-entries", "1,0,0,1"],
         "not hyperbolic: the eigenvalues 1 and 1 have modulus 1"),
        # said "steps must be nonnegative, got n_steps=40, backward=-1"
        (["hexpansivity", "--horizon", "-1", "--orbits", "20"],
         "--horizon must be at least 0, got -1"),
        # an OverflowError traceback from numpy's int64 conversion
        (["shadow", "--matrix-entries", "99999999999999999999,1,1,1"],
         "matrix entry 99999999999999999999 is outside the int64 range"),
        # a zero horizon printed "h_estimate": 0.0 and exited 0
        (["entropy-estimate", "--orbits", "20", "--steps", "0"],
         "--steps must be at least 1, got 0"),
        (["entropy-estimate", "--orbits", "20", "--T", "0"], "--T must be positive, got 0.0"),
        # said "steps must be nonnegative, got n_steps=-1, backward=0"
        (["entropy-estimate", "--orbits", "20", "--steps", "-1"],
         "--steps must be at least 1, got -1"),
    ])
    def test_bad_flag_is_named_1(self, capsys, argv, needle):
        assert_one_error_line(capsys, argv, needle)

    @pytest.mark.parametrize("flags", [[], ["--series"], ["--format", "csv"]])
    def test_undefined_entropy_rate_is_1(self, capsys, flags):
        # 7 close pairs at step 0, below the 16 a step needs, printed "h_estimate": 0.0
        assert_one_error_line(capsys, ["entropy-estimate", "--orbits", "50"] + flags,
                              "needs two steps with at least 16 close pairs; 0 step(s) kept them")

    def test_fibonacci_matrix_shadows(self, capsys):
        # [[F41, F40], [F40, F39]] has determinant +1; the float determinant read 0
        code, out = run_capture(capsys, ["shadow", "--matrix-entries",
                                         "165580141,102334155,102334155,63245986",
                                         "--length", "100"])
        assert code == 0 and json.loads(out)["all_within_Q_delta"]

    def test_largest_fibonacci_matrix_has_no_traceback(self):
        # [[F92, F91], [F91, F90]], the int64 limit: numpy's det and sqrt failed on it
        f92, f91, f90 = 7540113804746346429, 4660046610375530309, 2880067194370816120
        proc = subprocess.run([sys.executable, "-m", "torusdyn", "shadow", "--matrix-entries",
                               f"{f92},{f91},{f91},{f90}", "--length", "100"],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        # it exited 1 rejecting its own pseudo-orbit: float images near 1e19 are
        # multiples of 2048, and past _float_images they are now exact
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["all_within_Q_delta"] is True

    def test_horizon_without_a_step_is_1(self, capsys, tmp_path):
        # T rounded to no sample step printed "h_estimate": 0.0 and exited 0
        assert_one_error_line(capsys, ["entropy-estimate", "--orbits", "20", "--T", "0.3"],
                              "T=0.3 spans no sample step")
        path = tmp_path / "ensemble.csv"
        path.write_text("orbit,step,x1\n0,0,0.1\n1,0,0.4\n")     # one step per orbit
        assert_one_error_line(capsys, ["entropy-estimate", "--ensemble", str(path)],
                              "T=0.0 spans no sample step")

    def test_empty_full_shift_is_1(self, capsys):
        assert_one_error_line(capsys, ["sft-entropy", "--full-shift", "0"], "symbol")

    def test_reducible_parry_is_1(self, capsys, tmp_path):
        path = tmp_path / "reducible.txt"
        path.write_text("110\n010\n011\n")
        assert_one_error_line(capsys, ["suspend-integrate", "--matrix", str(path)],
                              "3 strongly connected components")

    @pytest.mark.parametrize("argv,needle", [
        (["entropy-estimate", "--T", "-1"], "T must be"),
        (["entropy-estimate", "--delta", "-0.1"], "delta"),
        (["entropy-estimate", "--delta", "nan"], "delta"),
        (["entropy-estimate", "--steps", "-1"], "steps"),
        (["hexpansivity", "--eps", "-1"], "eps"),
    ])
    def test_bad_entropy_scale_is_1(self, capsys, argv, needle):
        assert_one_error_line(capsys, argv + ["--orbits", "20"], needle)

    @pytest.mark.parametrize("text,needle", [
        ("orbit,step\n0,0\n0,1\n1,0\n1,1\n", "no coordinate"),
        ("orbit,step,x1,x2\n0,0,0.1,0.2\n0,1,0.3\n", "different coordinate counts"),
        # inf exited 0 with "h_estimate": 0.0; nan read as a missing row
        ("orbit,step,x1,x2\n0,0,0.1,0.2\n0,1,inf,0.3\n1,0,0.4,0.5\n1,1,0.6,0.7\n",
         "line 3: coordinate must be finite, got 'inf'"),
        ("orbit,step,x1,x2\n0,0,0.1,0.2\n0,1,0.2,0.3\n1,0,0.4,nan\n1,1,0.6,0.7\n",
         "line 4: coordinate must be finite, got 'nan'"),
    ])
    def test_bad_ensemble_is_1(self, capsys, tmp_path, text, needle):
        path = tmp_path / "ensemble.csv"
        path.write_text(text)
        assert_one_error_line(capsys, ["entropy-estimate", "--ensemble", str(path)], needle)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_orbit_is_1(self, capsys, tmp_path, bad):
        # was exit 0 with "eps_achieved": NaN, which is not JSON
        path = tmp_path / "orbit.csv"
        path.write_text(f"index,x1,x2\n0,0.1,0.2\n1,{bad},0.3\n2,0.5,0.6\n")
        assert_one_error_line(capsys, ["shadow", "--orbit", str(path)], "finite")

    @pytest.mark.parametrize("row,needle", [
        ("0.5", "line 3: expected two coordinate columns"),      # was an IndexError traceback
        ("1,abc,0.3", "line 3: coordinate must be a number, got 'abc'"),
    ])
    def test_bad_orbit_row_is_1(self, capsys, tmp_path, row, needle):
        path = tmp_path / "orbit.csv"
        path.write_text(f"index,x1,x2\n0,0.1,0.2\n{row}\n2,0.5,0.6\n")
        assert_one_error_line(capsys, ["shadow", "--orbit", str(path)], needle)

    @pytest.mark.parametrize("flags,needle", [
        # nan and inf exited 0 with "phi": "nan"; 1e308 and -1 escaped numpy errors
        (["--k", "nan"], "k must be"), (["--x", "nan"], "finite"), (["--y", "inf"], "finite"),
        (["--k", "1e308"], "residual"), (["--w-max", "-1"], "w_max"),
        # two coordinates on T^1 printed numpy's matmul message
        (["--x", "0.1;0.2"], "L.dim = 1 coordinates, got 2 and 1"),
        # each exited 1 with float()'s message, which named no flag
        (["--k", "1.2,"], "--k value 2: k must be a number, got ''"),
        (["--x", "abc"], "--x point 1: coordinate must be a number, got 'abc'"),
        (["--y", "0.3;x"], "--y point 1: coordinate must be a number, got 'x'"),
        (["--y", "0.3,inf"], "--y point 2: coordinate must be finite, got 'inf'"),
    ])
    def test_bad_action_potential_input_is_1(self, capsys, tmp_path, flags, needle):
        cfg = tmp_path / "pendulum.cfg"
        cfg.write_text(PENDULUM_CFG)
        values = {"--k": "1.3", "--x": "0.1", "--y": "0.3"} | dict([flags])
        argv = ["action-potential", "--config", str(cfg)] + [a for kv in values.items() for a in kv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_one_error_line(capsys, argv, needle)
        assert not caught

    def test_minus_infinite_k_is_neg_inf(self, capsys, tmp_path):
        cfg = tmp_path / "pendulum.cfg"
        cfg.write_text(PENDULUM_CFG)
        code, out = run_capture(capsys, ["action-potential", "--config", str(cfg), "--k=-inf",
                                         "--x", "0.1", "--y", "0.3", "--format", "csv"])
        assert code == 0 and out.splitlines()[1] == "-inf,0.1,0.3,,neg_inf"

    def test_unconverged_action_potential_is_1(self, capsys, tmp_path, monkeypatch):
        action_mod = sys.modules["torusdyn.action"]    # the package binds `action` to the function
        solve = action_mod._minimize_knots
        monkeypatch.setattr(action_mod, "_minimize_knots",
                            lambda *a, **kw: solve(*a, **kw)[:2] + (1e-3,))
        cfg = tmp_path / "pendulum.cfg"
        cfg.write_text(PENDULUM_CFG)
        assert_one_error_line(capsys, ["action-potential", "--config", str(cfg), "--k", "1.3",
                                       "--x", "0.05", "--y", "0.31"], "residual 1.00e-03")


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["torusdyn", "torusdyn.cli"])
    def test_python_dash_m_help(self, module):
        proc = subprocess.run([sys.executable, "-m", module, "--help"], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: torusdyn")
        assert "critical-value" in proc.stdout

    def test_import_leaves_out_scipy_optimize(self):
        # the minimizers are numpy only
        code = "import sys, torusdyn; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_hyperbolic_leaves_out_mpmath_and_scipy_signal(self):
        # shadowing is numpy only; periodic points close in exact integer arithmetic
        code = ("import sys; from torusdyn import hyperbolic as h; "
                "tm = h.cat_map(); pts = h.orbit(tm, [1 / 11, 0], 4, modulus=11); "
                "r = h.periodic_shadow(tm, h.PseudoOrbit(tm, pts)); "
                "print(r.cover_residual, 'mpmath' in sys.modules, 'scipy.signal' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.strip() == "0.0 False False"

    @pytest.mark.parametrize("argv", [
        ["sft-entropy", "--golden-mean"],
        ["action-potential", "--config", "PENDULUM", "--k", "1.3", "--x", "0.05", "--y", "0.31"],
        pytest.param(["action-potential", "--config", "T2", "--k", "1.6",
                      "--x", "0.05;0.1", "--y", "0.31;0.4"], id="action-potential-t2"),
        ["critical-value", "--config", "MAGNETIC"],       # the threshold ascent runs
        ["canal-experiment", "--config", "CANAL"],
    ], ids=lambda argv: argv[0])
    def test_command_leaves_out_scipy(self, tmp_path, argv):
        # the Perron root, the Tonelli minimizers and their Newton step solve
        # on T^1 and T^2, the threshold ascent and the grid polish are numpy only
        configs = {"PENDULUM": PENDULUM_CFG, "MAGNETIC": MAGNETIC_CFG, "CANAL": CANAL_CFG,
                   "T2": T2_CFG}
        for name, text in configs.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in configs else a for a in argv]
        code = ("import sys; from torusdyn.cli import run; "
                f"code = run({argv!r}); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "0 []"


    def test_modules_import_only_the_standard_library_and_numpy(self):
        # numpy is the one dependency in pyproject.toml; scipy is for tests only
        import ast

        import torusdyn

        pkg = os.path.dirname(os.path.abspath(torusdyn.__file__))
        found = {}
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name)) as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        roots = [a.name.split(".")[0] for a in node.names]
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        roots = [node.module.split(".")[0]]
                    else:
                        continue
                    for root in roots:
                        if root != "numpy" and root not in sys.stdlib_module_names:
                            found.setdefault(name, []).append(root)
        assert len(os.listdir(pkg)) > 10 and found == {}


class TestDeterminism:
    def test_byte_identical_runs_and_threads(self, capsys):
        outputs = []
        for threads in ("1", "8", "1"):
            code, out = run_capture(capsys, [
                "--threads", threads, "shadow", "--delta", "1e-4",
                "--length", "1500", "--count", "6", "--seed", "42"])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_entropy_estimate_deterministic(self, capsys):
        a = run_capture(capsys, ["entropy-estimate", "--orbits", "200", "--steps", "8",
                                 "--seed", "11"])[1]
        b = run_capture(capsys, ["entropy-estimate", "--orbits", "200", "--steps", "8",
                                 "--seed", "11"])[1]
        assert a == b


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
AP_ARGV = ["action-potential", "--config", "PENDULUM", "--k", "1.05,1.3",
           "--x", "0.05,0.31,0.68", "--y", "0.31,0.52,0.9"]


class TestGoldenStdout:
    """Byte-identical stdout against outputs recorded before the one-pass ladder
    (the action-potential tables: with the free-time Newton solve, its step
    solved by LAPACK, which moved 6 of the 18 values by at most 3 ulp; see
    LBFGS_AP_TABLE for the duration-grid values before it)."""

    @pytest.mark.parametrize("name,argv", [
        ("entropy_estimate.json", ["entropy-estimate"]),
        ("entropy_estimate_series.csv", ["entropy-estimate", "--series", "--format", "csv"]),
        ("entropy_estimate_ensemble.json", ["entropy-estimate", "--ensemble", "ENSEMBLE"]),
        ("entropy_estimate_ensemble_series.csv",
         ["entropy-estimate", "--ensemble", "ENSEMBLE", "--series", "--format", "csv",
          "--delta", "0.1"]),
        ("hexpansivity_seed11.json", ["hexpansivity", "--seed", "11"]),
        ("hexpansivity_wide.json", ["hexpansivity", "--seed", "3", "--orbits", "200",
                                    "--steps", "12", "--eps", "0.4", "--horizon", "1",
                                    "--delta", "0.1"]),
        ("shadow_count10_seed2.json", ["shadow", "--count", "10", "--seed", "2"]),
        ("action_potential_pendulum.json", AP_ARGV),
        ("action_potential_pendulum.csv", AP_ARGV + ["--format", "csv"]),
    ])
    def test_stdout_matches_golden(self, capsys, tmp_path, name, argv):
        from torusdyn.hyperbolic import cat_map, orbit_ensemble

        ensemble = tmp_path / "ensemble.csv"
        ensemble.write_text(ensemble_to_csv(orbit_ensemble(
            cat_map(), 150, 9, backward=2, rng=np.random.default_rng(4))))
        pendulum = tmp_path / "pendulum.cfg"
        pendulum.write_text(PENDULUM_CFG)
        files = {"ENSEMBLE": str(ensemble), "PENDULUM": str(pendulum)}
        argv = [files.get(a, a) for a in argv]
        code, out = run_capture(capsys, argv)
        with open(os.path.join(GOLDEN_DIR, name)) as fh:
            assert code == 0 and out == fh.read()


# The table as the duration grid with the L-BFGS-B solver gave it, before the
# damped Newton solver and the free-time solve; the golden files above hold
# the free-time values.
LBFGS_AP_TABLE = [
    ("1.05", "0.05", "0.31", 0.2855767200027507),
    ("1.05", "0.05", "0.52", 0.6449929775556169),
    ("1.05", "0.05", "0.9", 0.06459953176417471),
    ("1.05", "0.31", "0.31", 0.0),
    ("1.05", "0.31", "0.52", 0.4033401649899773),
    ("1.05", "0.31", "0.9", 0.3507952932648862),
    ("1.05", "0.68", "0.31", 0.6263030481179832),
    ("1.05", "0.68", "0.52", 0.3053807342702883),
    ("1.05", "0.68", "0.9", 0.2741345782960524),
    ("1.3", "0.05", "0.31", 0.34400826138022167),
    ("1.3", "0.05", "0.52", 0.7681001257553142),
    ("1.3", "0.05", "0.9", 0.12490357858400705),
    ("1.3", "0.31", "0.31", 0.0),
    ("1.3", "0.31", "0.52", 0.42987187845345737),
    ("1.3", "0.31", "0.9", 0.46919890350527677),
    ("1.3", "0.68", "0.31", 0.7556147948933793),
    ("1.3", "0.68", "0.52", 0.32570283651251986),
    ("1.3", "0.68", "0.9", 0.31699934911498107),
]


def test_action_potential_table_matches_maupertuis_and_improves_on_lbfgs_record(capsys, tmp_path):
    from test_action import maupertuis_t1

    pendulum = tmp_path / "pendulum.cfg"
    pendulum.write_text(PENDULUM_CFG)
    code, out = run_capture(capsys, [a if a != "PENDULUM" else str(pendulum) for a in AP_ARGV])
    table = json.loads(out)["table"]
    assert code == 0 and len(table) == len(LBFGS_AP_TABLE)
    for row, (k, x, y, phi) in zip(table, LBFGS_AP_TABLE):
        assert (row["k"], row["x"], row["y"], row["status"]) == (k, x, y, "finite")
        exact = maupertuis_t1({1: 1.0}, 0.0, float(k), float(x), float(y)) if x != y else 0.0
        assert abs(float(row["phi"]) - exact) <= 1e-6
        assert abs(float(row["phi"]) - exact) <= abs(phi - exact)


class TestConfigRoundTrip:
    def test_magnetic_lagrangian_fixpoint(self):
        eta = OneForm([FourierSeries(2, cos={(0, 1): 0.1}), FourierSeries(2, sin={(1, 0): 0.2})])
        L = MechanicalLagrangian(2, FourierSeries(2, cos={(1, 0): 0.3, (1, 1): 0.05}), eta)
        text = ("[lagrangian]\ndim = 2\nintegrator = rk4\ndt = 0.001\n\n"
                "[potential.cos]\n1,0 = 0.3\n1,1 = 0.05\n\n"
                "[oneform.1.cos]\n0,1 = 0.1\n\n[oneform.2.sin]\n1,0 = 0.2\n")
        L2, meta = config_mod.parse_lagrangian(text)
        pts = np.random.default_rng(0).random((20, 2))
        assert np.allclose(L.potential(pts), L2.potential(pts))
        assert np.allclose(L.oneform(pts), L2.oneform(pts))
        assert meta["integrator"] == "rk4"

    def test_polyline_round_trip(self):
        verts = np.array([[0.1, 0.2], [0.5, 0.6]])
        winds = np.array([[0, 1], [1, 0]])
        text = format_polyline_csv(verts, winds)
        v2, w2 = config_mod.parse_polyline_csv(text)
        assert np.allclose(verts, v2) and np.array_equal(winds, w2)

    def test_polyline_without_winds(self):
        v2, w2 = config_mod.parse_polyline_csv("0.25\n0.5\n")
        assert w2 is None and v2.shape == (2, 1)

    def test_canal_config_with_core_file(self, tmp_path):
        core = tmp_path / "core.csv"
        core.write_text("x1\n0.0\n")
        text = PENDULUM_CFG + f"\n[canal]\neps = 0.2\nk = 3\ncore_file = {core.name}\n"
        L, canal, econf = config_mod.parse_canal_experiment(text, base_dir=str(tmp_path))
        assert canal.k == 3 and canal.eps == 0.2
        assert canal.dim == 1
