"""Command-line interface tests, run in-process through cli.main, and in a fresh
interpreter where the entry point or the modules loaded are under test."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from decoyqkd import cli, fluct
from test_boundary import REQUIRED


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run a fresh interpreter that imports decoyqkd from the tested source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_no_command_prints_help_and_fails(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage:" in out


def test_optimal_mu_strong(capsys):
    code, out, _ = run(capsys, "optimal-mu")
    assert code == 0
    lines = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    assert float(lines["mu_optimal(f_ec=1.00)"]) == pytest.approx(0.5441, abs=5e-4)
    assert float(lines["mu_optimal(f_ec=1.22)"]) == pytest.approx(0.4789, abs=5e-4)


def test_optimal_mu_with_length_cross_check(capsys):
    code, out, _ = run(capsys, "optimal-mu", "--length", "40")
    assert code == 0
    assert "mu_exact_rate(40 km)" in out


def test_optimal_mu_wang(capsys):
    code, out, _ = run(capsys, "optimal-mu", "--method", "wang")
    assert code == 0
    value = float(out.strip().split(" = ")[-1])
    assert 0.2 <= value <= 0.35


def test_optimal_mu_wang_at_a_length(capsys):
    code, out, _ = run(capsys, "optimal-mu", "--method", "wang", "--length", "50")
    assert (code, out) == (0, "mu_wang (at 50 km) = 0.285600\n")


def test_optimal_mu_where_no_intensity_gives_key_prints_nothing(tmp_path, capsys):
    code, out, err = run(capsys, "optimal-mu", "--length", "200")
    assert (code, out) == (2, "")
    assert err.startswith("error: no mu in [0.01, 1.5] gives a positive asymptotic rate")
    cfg = tmp_path / "noisy.txt"
    cfg.write_text("alpha = 0.21\ne_detector = 0.1\ny0 = 1.7e-6\neta_bob = 0.045\n")
    code, out, err = run(capsys, "optimal-mu", "--method", "wang", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: no mu in [0.01, 0.99] gives a positive weak-bound rate at any distance\n"


@pytest.mark.parametrize("error, err", [
    (BrokenPipeError(), ""),  # the reader went away: exit quietly
    (ZeroDivisionError("boom"), "internal error: boom\n"),
])
def test_an_unexpected_error_exits_1_with_one_line(monkeypatch, capsys, error, err):
    def fail(out):
        raise error

    monkeypatch.setitem(cli._REPRODUCE, "table2", fail)
    assert run(capsys, "reproduce", "table2") == (1, "", err)


def test_a_float_option_that_is_not_a_number_is_rejected(capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["scan", "--l-max", "abc"])
    assert exited.value.code == 2
    assert "argument --l-max: expected a finite number, got 'abc'" in capsys.readouterr().err


def test_bounds_output(capsys):
    code, out, _ = run(capsys, "bounds", "--length", "40", "--mu", "0.48",
                       "--nu1", "0.12", "--nu2", "0.03")
    assert code == 0
    for token in ("eta = ", "asymptotic", "vacuum-weak", "two-decoy",
                  "one-decoy-trial", "one-decoy-simple", "tagged-fraction bound"):
        assert token in out


def test_bounds_rejects_bad_input(capsys):
    code, _, err = run(capsys, "bounds", "--length", "-5", "--mu", "0.48", "--nu1", "0.12")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, named", [
    ("bounds --length 40 --mu 1e-300 --nu1 5e-301", "mu=1e-300"),
    ("bounds --length 40 --mu 1e-170 --nu1 5e-171", "mu=1e-170"),
    ("bounds --length 40 --mu 1e-200 --nu1 5e-201 --nu2 1e-201", "mu=1e-200"),
    ("bounds --length 40 --mu 0.5 --nu1 5e-324", "nu1=5e-324"),
    ("bounds --length 40 --mu 0.5 --nu1 1e-320", "nu1=1e-320"),
    ("scan --estimator vacuum-weak --mu 1e-300 --nu1 5e-301 --steps 2", "mu=1e-300"),
    ("scan --estimator one-decoy-simple --mu 0.5 --nu1 5e-324 --steps 2", "nu1=5e-324"),
])
def test_intensities_the_estimators_cannot_evaluate_are_rejected(capsys, argv, named):
    # a mu whose square underflows, or a decoy so dim that mu / (nu1 (mu - nu1)) is no float
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert named in err
    assert out == ""


def test_unknown_preset_is_a_validation_error(capsys):
    code, _, err = run(capsys, "optimal-mu", "--preset", "NOPE")
    assert code == 2
    assert "unknown preset" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--length", "0", "--mu", "0.48", "--nu1", "0.12"),
    ("fluct-optimize", "--length", "0", "--mu", "0.48", "--n-pulses", "6e9"),
    ("scan", "--mu", "0.48", "--n-pulses", "6e9", "--steps", "2", "--l-max", "10"),
])
def test_a_link_whose_overall_gain_exceeds_one_is_rejected(tmp_path, capsys, argv):
    # y0 + 1 - e^(-eta mu) > 1: the error names y0, mu and eta, not an observable
    cfg = tmp_path / "link.txt"
    cfg.write_text("alpha = 0.21\ne_detector = 0.033\ny0 = 0.75\neta_bob = 1\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == ("error: overall gain y0 + 1 - e^(-eta mu) = 1.131216608193859 exceeds 1 "
                   "at y0=0.75, mu=0.48, eta=1.0: the model needs y0 <= e^(-eta mu)\n")


def test_config_file_params(tmp_path, capsys):
    cfg = tmp_path / "link.txt"
    cfg.write_text("alpha = 0.21\ne_detector = 0.033\ny0 = 1.7e-6\neta_bob = 0.045\n")
    code, out, _ = run(capsys, "optimal-mu", "--config", str(cfg))
    assert code == 0
    assert "mu_optimal(f_ec=1.22)" in out


def test_scan_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "scan", "--estimator", "asymptotic",
                       "--l-min", "0", "--l-max", "100", "--steps", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l_km,rate_per_pulse"
    rows = [line.split(",") for line in lines[1:6]]
    assert [float(r[0]) for r in rows] == [0.0, 25.0, 50.0, 75.0, 100.0]
    rates = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(rates, rates[1:]))
    assert lines[-1].startswith("max_distance_km = ")


def test_scan_csv_to_file_is_deterministic(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    argv = ("scan", "--estimator", "vacuum-weak", "--mu", "0.48", "--nu1", "0.05",
            "--l-min", "0", "--l-max", "120", "--steps", "7", "--out", str(out_path))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert f"wrote {out_path}" in out
    first = out_path.read_bytes()
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["l_km", "rate_per_pulse"]
    assert len(rows) == 8
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert out_path.read_bytes() == first


def test_scan_rejects_bad_grid(capsys):
    code, _, err = run(capsys, "scan", "--l-min", "50", "--l-max", "10")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "scan", "--steps", "1")
    assert code == 2


def test_fluct_optimize_report(capsys):
    code, out, _ = run(capsys, "fluct-optimize", "--length", "50",
                       "--n-pulses", "6e9")
    assert code == 0
    fields = dict(
        line.split(" = ") for line in out.strip().splitlines() if " = " in line
    )
    for key in ("l_km", "mu", "eta", "nu_opt", "N", "N_S", "N_1", "N_2",
                "R_L", "B_bits", "beta_y0", "beta_y1", "beta_e1", "beta_r"):
        assert key in fields, key
    assert float(fields["R_L"]) > 0.0
    assert float(fields["nu_opt"]) < float(fields["mu"])


def test_fluct_optimize_notes_an_optimum_on_the_search_box_edge(monkeypatch, capsys):
    # at 1e15 pulses and a 0.1-sigma band nu_opt lies on the decoy search's lower
    # edge, 1e-3, to the line search's stopping width: one note on stderr, and the
    # report and exit code as without it.  README's table2 optimum is interior
    code, _, err = run(capsys, "fluct-optimize", "--preset", "gys", "--length", "103.62")
    assert (code, err) == (0, "")
    argv = ("fluct-optimize", "--length", "50", "--n-pulses", "1e15", "--u-alpha", "0.1")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "nu_opt = 0.001005\n" in out
    assert err == ("note: nu_opt lies on the decoy search's lower edge nu = 0.001: "
                   "the search box, not the model, sets it\n")
    monkeypatch.setattr(fluct, "_box_edges", lambda mu, nu, w1, w2: [])
    assert run(capsys, *argv) == (0, out, "")


def test_fluct_optimize_notes_each_edge_of_the_search_box(monkeypatch, capsys):
    # at a 1e-3-sigma band N_1 and N_2 also lie within their line searches'
    # stopping widths of their floors, 1e-4 N and 1e-6 N: one note per edge
    argv = ("fluct-optimize", "--length", "50", "--n-pulses", "1e15", "--u-alpha", "1e-3")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert "N_1 = 1.0468e+11  (0.0001 of N)\n" in out
    assert err == "".join(
        f"note: {edge}: the search box, not the model, sets it\n" for edge in (
            "nu_opt lies on the decoy search's lower edge nu = 0.001",
            "N_1 lies on the allocation search's lower edge N_1 = 0.0001 N",
            "N_2 lies on the allocation search's lower edge N_2 = 1e-06 N",
        ))
    monkeypatch.setattr(fluct, "_box_edges", lambda mu, nu, w1, w2: [])
    assert run(capsys, *argv) == (0, out, "")


def test_fluct_optimize_rejects_a_length_with_no_positive_rate(capsys):
    # every evaluation is max(R, 0) = 0 here, so the search's winner would
    # only be its first seed
    code, out, err = run(capsys, "fluct-optimize", "--f-ec", "4", "--mu", "0.48",
                         "--n-pulses", "1e10", "--length", "20")
    assert code == 2
    assert "no allocation gives a positive key rate at --length 20 km" in err
    assert out == ""


def test_scan_leaves_the_allocation_empty_where_the_rate_is_not_positive(capsys):
    code, out, _ = run(capsys, "scan", "--n-pulses", "6e9", "--steps", "4", "--l-max", "150")
    assert code == 0
    header, *rows = csv.reader(out.splitlines()[:5])
    assert header == ["l_km", "R_L", "nu_opt", "NS", "N1", "N2", "B_bits"]
    assert [row[0] for row in rows] == ["0", "50", "100", "150"]
    for row in rows:
        positive = float(row[1]) > 0.0
        assert all((cell != "") == positive for cell in row[2:6]), row
        assert float(row[6]) >= 0.0
    assert float(rows[-1][1]) < 0.0


def test_python_dash_m_runs_the_cli():
    proc = run_python("-m", "decoyqkd", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: decoyqkd")
    proc = run_python("-m", "decoyqkd", "reproduce", "table2")
    assert proc.returncode == 0, proc.stderr
    assert "nu_opt = 0.1206" in proc.stdout


IMPORT_GUARD = """
import sys
import decoyqkd

def loaded(*names):
    return sorted(m for m in sys.modules if m.split(".")[0] in names)

assert loaded("decoyqkd") == ["decoyqkd"] + [f"decoyqkd.{m}" for m in
                                             ("bounds", "fluct", "model", "numerics", "rate")]
assert loaded("scipy", "numpy") == [], loaded("scipy", "numpy")
from decoyqkd import bounds, cli
from decoyqkd.model import GYS, simulate_observations
assert cli.main(["reproduce", "table2"]) == 0
assert not hasattr(bounds, "no_such_name")
assert loaded("scipy", "numpy") == [], loaded("scipy", "numpy")
obs = simulate_observations(GYS, 1e-3, (0.48, 0.12, 0.0))
assert bounds.adversary_oracle(obs, bounds.ProtocolIntensities(mu=0.48, nu1=0.12)).feasible
assert "scipy.optimize" in sys.modules
"""


def test_scipy_loads_on_the_oracles_first_call():
    proc = run_python("-c", IMPORT_GUARD)
    assert proc.returncode == 0, proc.stderr


def test_reproduce_deviation_curves(tmp_path, capsys):
    out_path = tmp_path / "dev.csv"
    code, out, _ = run(capsys, "reproduce", "fig1", "--out", str(out_path))
    assert code == 0
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["nu_over_mu", "beta_y1_40km_pct", "beta_e1_40km_pct",
                       "beta_y1_140km_pct", "beta_e1_140km_pct"]
    assert len(rows) == 26
    assert float(rows[-1][0]) == 0.25
    # printed summary repeats the last row
    assert "nu/mu=0.25" in out


# `decoyqkd reproduce <target> --out` output written before the
# finite-size rate had a single implementation: <target>.csv is the CSV,
# <target>.stdout the summary lines printed after "wrote <path>"; any
# drift in the pipeline shows up here byte for byte
GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("target", ["fig1", "fig2", "table2", "fig3", "fig4", "fig5", "fig6"])
def test_reproduce_csv_is_byte_identical_to_golden(tmp_path, capsys, target):
    out_path = tmp_path / f"{target}.csv"
    code, out, _ = run(capsys, "reproduce", target, "--out", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == (GOLDEN / f"{target}.csv").read_bytes()
    wrote = f"wrote {out_path}\n"
    assert out.startswith(wrote)
    assert out[len(wrote):] == (GOLDEN / f"{target}.stdout").read_text()


def test_reproduce_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        cli.main(["reproduce", "fig9"])


# commands that write --out, each given an invalid operating point
FAILING_OUT_COMMANDS = [
    ("scan", "--mu", "0.48", "--nu1", "0.6"),
    ("scan", "--n-pulses", "6e9", "--u-alpha", "-1", "--steps", "2"),
    ("scan", "--n-pulses", "6e9", "--u-alpha", "0", "--steps", "3", "--l-max", "100"),
]


@pytest.mark.parametrize("argv", FAILING_OUT_COMMANDS)
def test_failed_command_creates_no_out_file(tmp_path, capsys, argv):
    out_path = tmp_path / "x.csv"
    code, _, err = run(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert "error:" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", FAILING_OUT_COMMANDS)
def test_failed_command_leaves_existing_out_file_alone(tmp_path, capsys, argv):
    out_path = tmp_path / "x.csv"
    out_path.write_bytes(b"l_km,rate_per_pulse\n0,1\n")
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 2
    assert out_path.read_bytes() == b"l_km,rate_per_pulse\n0,1\n"


def test_a_config_file_that_cannot_be_read_is_invalid_input(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "optimal-mu", "--config", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: --config {missing}: No such file or directory\n"


def test_a_config_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys):
    cfg = tmp_path / "latin1.txt"
    cfg.write_bytes(b"alpha = 0.2\xff\n")
    code, out, err = run(capsys, "optimal-mu", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}: not UTF-8 text: byte 0xff at offset 11\n"


def test_an_out_file_that_cannot_be_written_is_invalid_input(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "scan", "--estimator", "asymptotic", "--steps", "2",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"error: --out {out_path}: No such file or directory\n"
    assert not out_path.parent.exists()


def test_fluct_optimize_rejects_a_budget_with_low_counts(capsys):
    # a positive optimum (R_L 1.48e-4) whose e_nu1*q_nu1 band has under 50 events
    code, out, err = run(capsys, "fluct-optimize", "--length", "20", "--n-pulses", "1e6",
                         "--u-alpha", "3")
    assert code == 2
    assert "--n-pulses" in err
    assert out == ""


def never_searched(*args, **kwargs):
    raise AssertionError("the allocation search ran")


@pytest.mark.parametrize("argv", [
    ("fluct-optimize", "--length", "50", "--u-alpha", "0"),
    ("scan", "--n-pulses", "6e9", "--u-alpha", "0", "--steps", "3", "--l-max", "100"),
])
def test_a_band_of_zero_sigma_is_rejected_before_any_search(monkeypatch, capsys, argv):
    # without a band the search only shrinks the decoy pulses, to the box's corner
    # at any budget, and the count check would blame a band that is turned off
    monkeypatch.setattr(cli.fluct_mod, "_search", never_searched)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("error: --u-alpha must be > 0, got 0; without a confidence band no "
                   "allocation is an optimum, and scan without --n-pulses gives the noiseless "
                   "rate\n")


@pytest.mark.parametrize("argv, err", [
    (("scan", "--l-min", "-5", "--l-max", "10", "--steps", "3"), "--l-min must be >= 0 km, got -5"),
    (("scan", "--l-min", "-5", "--l-max", "10", "--steps", "3", "--n-pulses", "6e9"),
     "--l-min must be >= 0 km, got -5"),
    (("fluct-optimize", "--length", "-3"), "--length must be >= 0 km, got -3"),
    (("bounds", "--length", "-3", "--mu", "0.5", "--nu1", "0.1"),
     "--length must be >= 0 km, got -3"),
    (("optimal-mu", "--length", "-3"), "--length must be >= 0 km, got -3"),
], ids=("scan", "scan-n-pulses", "fluct-optimize", "bounds", "optimal-mu"))
def test_a_negative_length_is_rejected_under_its_option(monkeypatch, capsys, argv, err):
    # the model's own check named length_km, which no command takes
    monkeypatch.setattr(cli.fluct_mod, "_search", never_searched)
    code, out, stderr = run(capsys, *argv)
    assert (code, out, stderr) == (2, "", f"error: {err}\n")


SUBCOMMANDS = next(a for a in cli._build_parser()._actions
                   if a.choices and "scan" in a.choices).choices
# per option with a _RANGES row: a value at its excluded bound or below its allowed
# one, and the error that names the option
OUT_OF_RANGE = {
    "--length": ("-1", "--length must be >= 0 km, got -1"),
    "--l-min": ("-0.5", "--l-min must be >= 0 km, got -0.5"),
    "--mu": ("0", "--mu must be > 0, got 0"),
    "--nu1": ("0", "--nu1 must be > 0, got 0"),
    "--nu2": ("-0.001", "--nu2 must be >= 0, got -0.001"),
    "--n-pulses": ("0", "--n-pulses must be > 0, got 0"),
    "--steps": ("1", "--steps must be >= 2, got 1"),
    "--u-alpha": ("0", "--u-alpha must be > 0, got 0; without a confidence band no allocation "
                  "is an optimum, and scan without --n-pulses gives the noiseless rate"),
}


def range_cases():
    """(argv, message) for each subcommand's option with a _RANGES row."""
    for command, parser in SUBCOMMANDS.items():
        for action in parser._actions:
            if action.dest in cli._RANGES:
                option = action.option_strings[0]
                value, message = OUT_OF_RANGE[option]
                yield (command, *REQUIRED[command], option, value), message


RANGE_CASES = list(range_cases()) + [
    # values the library once rejected under its own names, n_total and mean photon number
    (tuple("fluct-optimize --length 40 --n-pulses -5".split()), "--n-pulses must be > 0, got -5"),
    (tuple("bounds --length 40 --mu 0.5 --nu1 -0.1".split()), "--nu1 must be > 0, got -0.1"),
    (tuple("scan --n-pulses -5 --steps 3 --l-max 10".split()), "--n-pulses must be > 0, got -5"),
]


@pytest.mark.parametrize("argv, message", RANGE_CASES,
                         ids=[" ".join(argv) for argv, _ in RANGE_CASES])
def test_an_option_out_of_range_is_rejected_under_its_name(monkeypatch, tmp_path, capsys,
                                                           argv, message):
    monkeypatch.setattr(cli.fluct_mod, "_search", never_searched)
    out_path = tmp_path / "x.csv"
    if "--out" in SUBCOMMANDS[argv[0]]._option_string_actions:
        argv += ("--out", str(out_path))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not out_path.exists()


def test_every_bounded_option_has_one_range_row():
    # --l-max is checked against --l-min, and the model's own message names f_ec
    actions = [action for parser in SUBCOMMANDS.values() for action in parser._actions]
    ranged = {"--" + dest.replace("_", "-") for dest in cli._RANGES}
    finite = {action.option_strings[0] for action in actions if action.type is cli._finite}
    assert finite - {"--l-max", "--f-ec"} <= ranged
    assert set(cli._RANGES) <= {action.dest for action in actions}
    assert ranged == set(OUT_OF_RANGE)


def test_scan_names_both_grid_ends_when_they_cross(capsys):
    code, out, err = run(capsys, "scan", "--l-min", "50", "--l-max", "10")
    assert (code, out, err) == (2, "", "error: --l-max must exceed --l-min, got 10 <= 50\n")


def test_fluct_optimize_where_no_allocation_gives_key_names_the_length(capsys):
    # every evaluation is 0 or -1 at this budget: the point reported is no
    # optimum, so its low counts are not what stops the command
    code, out, err = run(capsys, "fluct-optimize", "--length", "40", "--n-pulses", "10")
    assert code == 2
    assert "no allocation gives a positive key rate at --length 40 km" in err
    assert out == ""


def test_scan_rejects_a_budget_with_low_counts(capsys):
    # each length has a positive optimum whose e_nu1*q_nu1 band has under 50 events
    code, out, err = run(capsys, "scan", "--n-pulses", "1e6", "--u-alpha", "3",
                         "--steps", "3", "--l-max", "40")
    assert code == 2
    assert "--n-pulses" in err
    assert "at 0 km" in err
    assert out == ""


def test_scan_checks_counts_only_where_the_rate_is_positive(capsys):
    # past the 70.80 km reach a row reports the last optimum, which is no
    # optimum there; its low counts must not fail the scan
    code, out, err = run(capsys, "scan", "--n-pulses", "5e7", "--l-max", "160", "--steps", "9")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    rows = [line.split(",") for line in lines[1:-1]]
    assert [row[0] for row in rows] == [str(km) for km in range(0, 161, 20)]
    for row in rows:
        positive = float(row[1]) > 0.0
        assert positive == (int(row[0]) < 80)
        assert (row[2:6] == [""] * 4) != positive
    assert lines[-1] == "max_distance_km = 70.80"


def test_scan_where_no_allocation_gives_key_prints_no_reach(capsys):
    code, out, err = run(capsys, "scan", "--n-pulses", "1e4", "--steps", "3", "--l-max", "40")
    assert (code, err) == (0, "")
    assert [line.split(",")[2:6] for line in out.splitlines()[1:-1]] == [[""] * 4] * 3
    assert out.splitlines()[-1] == "max_distance_km = none (rate never positive)"


@pytest.mark.parametrize("argv, message", [
    (("--n-pulses", "6e9", "--nu1", "0.3", "--efficient-bb84"),
     "scan --n-pulses does not read --nu1, --efficient-bb84"),
    (("--n-pulses", "6e9", "--nu2", "0"), "scan --n-pulses does not read --nu2"),
    (("--u-alpha", "3"), "scan without --n-pulses does not read --u-alpha"),
    (("--estimator", "vacuum-weak", "--nu2", "0.3"),
     "scan --estimator vacuum-weak does not read --nu2"),
    (("--estimator", "one-decoy-simple", "--nu1", "0.1", "--nu2", "0.03"),
     "scan --estimator one-decoy-simple does not read --nu2"),
    (("--estimator", "asymptotic", "--nu1", "0.3"),
     "scan --estimator asymptotic does not read --nu1"),
    (("--estimator", "wang", "--nu1", "0.1", "--nu2", "0"),
     "scan --estimator wang does not read --nu1, --nu2"),
], ids=("finite-nu1-efficient", "finite-nu2", "noiseless-u-alpha", "vacuum-weak-nu2",
        "one-decoy-nu2", "asymptotic-nu1", "wang-nu1-nu2"))
def test_scan_rejects_options_its_branch_does_not_read(capsys, argv, message):
    # each printed exactly what it printed without the option
    code, out, err = run(capsys, "scan", "--steps", "2", "--l-max", "40", *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_scan_two_decoy_reads_both_decoy_intensities(capsys):
    code, out, _ = run(capsys, "scan", "--steps", "2", "--l-max", "40",
                       "--estimator", "two-decoy", "--nu1", "0.1", "--nu2", "0.02")
    assert code == 0
    assert out.startswith("l_km,rate_per_pulse\n")


@pytest.mark.parametrize("argv, option", [
    (("optimal-mu", "--f-ec", "3.7796468557663094"), "f_ec"),
    (("fluct-optimize", "--length", "40", "--mu", "800"), "mu"),
    (("fluct-optimize", "--length", "40", "--mu", "1e-300"), "mu"),
    (("scan", "--n-pulses", "6e9", "--mu", "1e-300", "--steps", "2"), "mu"),
    (("bounds", "--length", "40", "--mu", "800", "--nu1", "0.1"), "mu"),
    (("bounds", "--length", "40", "--mu", "0.48", "--nu1", "0.1", "--nu2", "-0.1"), "nu2"),
], ids=("optimal-mu-no-root", "fluct-mu-overflows", "fluct-mu-tiny", "scan-mu-tiny",
        "bounds-mu-overflows", "bounds-negative-nu2"))
def test_an_intensity_out_of_range_is_a_validation_error(capsys, argv, option):
    # each was an internal error (exit 1), or an exit 0 that dropped a row
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert option in err
    assert out == ""


LOW_LOSS_LINK = "alpha = 0.02\ne_detector = 0.01\ny0 = 1e-7\neta_bob = 0.5\n"


@pytest.mark.parametrize("link, extra, line", [
    (None, ("--f-ec", "4", "--mu", "0.48", "--n-pulses", "1e10", "--l-max", "40"),
     "max_distance_km = none (rate never positive)"),
    (LOW_LOSS_LINK, (),
     "max_distance_km = >= 500.00 (rate still positive at the search limit)"),
    (LOW_LOSS_LINK, ("--n-pulses", "1e12"),
     "max_distance_km = >= 250.00 (rate still positive at the search limit)"),
], ids=("never-positive", "censored-noiseless", "censored-finite"))
def test_scan_reach_line_is_none_or_censored(tmp_path, capsys, link, extra, line):
    params = ()
    if link is not None:
        cfg = tmp_path / "link.txt"
        cfg.write_text(link)
        params = ("--config", str(cfg))
    code, out, _ = run(capsys, "scan", *params, "--steps", "3", *extra)
    assert code == 0
    assert out.strip().splitlines()[-1] == line


def test_scan_on_a_link_with_no_background(tmp_path, capsys):
    # the noiseless vacuum+weak row runs the one-decoy trial there, as the finite-size search does
    cfg = tmp_path / "link.txt"
    cfg.write_text("alpha = 0.21\ne_detector = 0.033\ny0 = 0\neta_bob = 0.045\n")
    code, out, err = run(capsys, "scan", "--config", str(cfg), "--steps", "3", "--l-max", "40")
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == ["l_km,rate_per_pulse", "0,0.002417471335"]


def test_bounds_on_a_link_with_no_background(tmp_path, capsys):
    # the vacuum+weak row has Y0_L = 0 and the one-decoy trial's numbers
    cfg = tmp_path / "link.txt"
    cfg.write_text("alpha = 0.21\ne_detector = 0.033\ny0 = 0\neta_bob = 0.045\n")
    code, out, err = run(capsys, "bounds", "--config", str(cfg), "--length", "40",
                         "--mu", "0.48", "--nu1", "0.12")
    assert (code, err) == (0, "")
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:5]}
    assert rows["vacuum-weak"][0] == "Y0_L=0.000000e+00"
    assert rows["vacuum-weak"] == rows["one-decoy-trial"]
