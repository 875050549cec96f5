import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gastba import cli


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def susy_file(tmp_path, couplings=None):
    doc = {
        "species": [
            {"name": "b", "mass": 0.5, "statistics": "boson", "z_mu": 1.0},
            {"name": "f", "mass": 0.5, "statistics": "fermion", "z_mu": 1.0},
        ],
        "couplings": couplings if couplings is not None else [1.0, 1.0, 1.0, 1.0],
    }
    path = tmp_path / "susy.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParsing:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nonsense"])
        assert exc.value.code == 2

    def test_missing_required_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["zeros", "--sigma", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--threshold", "--dt"])
    def test_zeros_has_no_scan_knobs(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["zeros", "--sigma", "0.5", "--t-min", "10", "--t-max", "30",
                      flag, "0.05"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--damping", "--max-iter"])
    def test_profile_has_no_iteration_knobs(self, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["profile", "--nu-re", "1.4", flag, "0.5"])
        assert exc.value.code == 2

    def test_charge_parses_species_flag(self):
        parser = cli.build_parser()
        args = parser.parse_args(["charge", "--species", "susy.json"])
        assert args.command == "charge"
        assert args.species == "susy.json"

    def test_zeros_parses_scan_window(self):
        args = cli.build_parser().parse_args(
            ["zeros", "--sigma", "0.5", "--t-min", "10", "--t-max", "30"]
        )
        assert (args.sigma, args.t_min, args.t_max) == (0.5, 10.0, 30.0)

    def test_bec_d2_parses_then_fails_at_run(self, capsys):
        # parse/run separation: the parser accepts d=2, the run exits 3
        code, out, err = run_cli(["bec", "--d", "2", "--h-t", "0.5"], capsys)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "DimensionError"


class TestRun:
    def test_solve_boson_2d(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--d", "2", "--statistics", "boson", "--h", "1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["z_delta"] == pytest.approx(0.5, abs=1e-12)
        assert doc["c"] == pytest.approx(0.5, abs=1e-10)

    def test_charge_susy_file(self, tmp_path, capsys):
        code, out, _ = run_cli(["charge", "--species", susy_file(tmp_path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["c"] == pytest.approx(0.75, abs=1e-10)
        for z in doc["z"]:
            assert z == pytest.approx(math.sqrt(2) - 1, abs=1e-11)

    def test_charge_asymmetric_couplings_rejected(self, tmp_path, capsys):
        path = susy_file(tmp_path, couplings=[1.0, 0.5, 0.2, 1.0])
        code, _, err = run_cli(["charge", "--species", path], capsys)
        assert code == 3
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_fermi_command(self, capsys):
        code, out, _ = run_cli(
            ["fermi", "--d", "3", "--n", "1", "--T", "0.3"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["omega_F"] == pytest.approx(doc["omega_F_zero_T"], rel=0.02)

    def test_zeros_narrow_window(self, capsys):
        code, out, _ = run_cli(
            ["zeros", "--sigma", "0.5", "--t-min", "14", "--t-max", "14.3"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["rows"][0]["refined"] is True

    def test_zeros_turing_count(self, capsys):
        code, out, _ = run_cli(
            ["zeros", "--sigma", "0.5", "--t-min", "10", "--t-max", "30"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["turing_count"] == 3
        assert sum(row["refined"] for row in doc["rows"]) == 3
        code, out, _ = run_cli(
            ["zeros", "--sigma", "0.9", "--t-min", "10", "--t-max", "30"], capsys
        )
        assert code == 0
        assert json.loads(out)["turing_count"] is None

    def test_duality_command(self, capsys):
        code, out, _ = run_cli(["duality", "--nu-re", "0.3", "--nu-im", "5"], capsys)
        assert code == 0
        assert json.loads(out)["residual"] < 1e-10

    def test_kernel_check_command(self, capsys):
        code, out, _ = run_cli(["kernel-check", "--nu-re", "0.8", "--k", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rel_difference"] < 1e-5
        assert doc["gamma_identity_residual"] < 1e-10

    def test_profile_command_rows(self, capsys):
        code, out, _ = run_cli(
            [
                "profile", "--nu-re", "1.4", "--T", "1.0",
                "--grid-points", "128", "--k-max-sigmas", "2.5",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) >= 64
        assert all(set(r) == {"k", "epsilon", "f"} for r in doc["rows"])


class TestBadInput:
    """Bad files and values exit 3 with the structured stderr object."""

    def _species_file(self, tmp_path, doc):
        path = tmp_path / "species.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _expect_error(self, argv, capsys, kind):
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["type"] == kind

    def test_solve_without_a_root(self, capsys):
        # an attractive boson at z_mu = 1: the shift scan finds no root
        argv = ["solve", "--d", "3", "--statistics", "boson", "--z-mu", "1", "--h-t", "-0.5"]
        self._expect_error(argv, capsys, "EmptyBracketError")

    def test_misspelled_statistics(self, tmp_path, capsys):
        doc = {"species": [{"name": "b", "statistics": "bosn"},
                           {"name": "f", "statistics": "fermion"}],
               "couplings": [1.0, 1.0, 1.0, 1.0]}
        self._expect_error(["charge", "--species", self._species_file(tmp_path, doc)],
                           capsys, "DomainError")

    def test_species_key_missing(self, tmp_path, capsys):
        path = self._species_file(tmp_path, {"couplings": [1.0]})
        self._expect_error(["charge", "--species", path], capsys, "GasTbaError")

    def test_species_file_missing(self, tmp_path, capsys):
        self._expect_error(["charge", "--species", str(tmp_path / "absent.json")],
                           capsys, "GasTbaError")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coupling_and_fugacity(self, bad, capsys):
        base = ["solve", "--d", "3", "--statistics", "boson"]
        self._expect_error(base + [f"--h-t={bad}"], capsys, "DomainError")
        self._expect_error(base + ["--h-t", "0.5", f"--z-mu={bad}"], capsys, "DomainError")

    @pytest.mark.parametrize("flags", [
        ["--tol", "1"], ["--tol", "2"], ["--tol", "nan"],
        ["--k-max-sigmas", "0"], ["--k-max-sigmas", "-1"], ["--k-max-sigmas", "nan"],
        ["--grid-points", "100"],
    ])
    def test_profile_config_out_of_range(self, flags, capsys):
        base = ["profile", "--nu-re", "1.4", "--T", "0.1", "--grid-points", "64"]
        self._expect_error(base + flags, capsys, "DomainError")

    def test_zeros_past_quadrature_height(self, capsys):
        self._expect_error(["zeros", "--sigma", "0.5", "--t-min", "600", "--t-max", "602"],
                           capsys, "DomainError")

    @pytest.mark.parametrize("t_min", ["1000", "5000"])
    def test_zeros_past_the_eta_height(self, t_min, capsys):
        t_max = str(float(t_min) + 10.0)
        self._expect_error(["zeros", "--sigma", "0.5", "--t-min", t_min, "--t-max", t_max],
                           capsys, "DomainError")


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from gastba import cli


def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))


def run(argvs):
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv


seen = {"numpy.fft after import": loaded("numpy.fft")}
argvs = [["solve", "--d", d, "--statistics", s, "--z-mu", "0.6", "--h-t", "0.4"]
         for d in ("1", "2", "3") for s in ("boson", "fermion")]
argvs += [["solve", "--d", "4", "--statistics", "boson", "--z-mu", "0.6", "--h-t", "0.4"]]
argvs += [["charge", "--statistics", "boson", "--h", "1.5"],
          ["charge", "--species", sys.argv[1]],
          ["bec", "--d", "3", "--h-t", "0.5"],
          ["fermi", "--d", "3", "--n", "1", "--T", "0.5"],
          ["duality", "--nu-re", "0.3", "--nu-im", "5"],
          ["zeros", "--sigma", "0.5", "--t-min", "20.9", "--t-max", "21.1"]]
run(argvs)
seen["numpy.fft before profile"] = loaded("numpy.fft")
run([["profile", "--nu-re", "1.4", "--T", "0.1", "--grid-points", "64"]])
seen["scipy"] = loaded("scipy")
print(json.dumps(seen))
"""


def test_cli_commands_load_no_scipy(tmp_path):
    """Every command but kernel-check runs without importing scipy, and
    importing gastba.cli and every command but profile and kernel-check leave
    numpy.fft unloaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, susy_file(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "numpy.fft after import": [], "numpy.fft before profile": [], "scipy": []}


class TestRendering:
    def test_determinism_byte_identical(self, capsys):
        argv = ["solve", "--d", "2", "--statistics", "fermion", "--h", "1"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(
            ["solve", "--d", "3", "--statistics", "boson", "--h-t", "0.3", "--z-mu", "0.5"],
            capsys,
        )
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(
            ["solve", "--d", "2", "--statistics", "boson", "--h", "1"], capsys
        )
        keys = list(json.loads(out).keys())
        assert keys == sorted(keys)

    def test_csv_row_count_matches_candidates(self, capsys):
        code, out, _ = run_cli(
            [
                "zeros", "--sigma", "0.5", "--t-min", "20.9", "--t-max", "21.1",
                "--format", "csv",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2  # header + one candidate
        assert lines[0] == "abs_g,abs_zeta,refined,sigma,t"

    def test_csv_scalar_report(self, capsys):
        code, out, _ = run_cli(
            ["duality", "--nu-re", "0.3", "--nu-im", "5", "--format", "csv"], capsys
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "nu_im,nu_re,residual"
        assert row.startswith("5,0.3,")

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["duality", "--nu-re", "0.4", "--output", str(path)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["residual"] < 1e-9

    def test_unwritable_output_exit_3(self, capsys):
        code, _, err = run_cli(
            ["duality", "--nu-re", "0.4", "--output", "/nonexistent/dir/x.json"],
            capsys,
        )
        assert code == 3
        assert json.loads(err)["error"]["type"] == "IoError"

    def test_floats_rendered_at_15_significant_digits(self):
        text = cli.render_report({"x": 1.0 / 3.0}, "json")
        assert text == '{"x":0.333333333333333}\n'

    def test_non_finite_floats_render_as_strings(self):
        text = cli.render_report({"x": math.inf, "y": math.nan}, "json")
        assert json.loads(text) == {"x": "inf", "y": "nan"}
