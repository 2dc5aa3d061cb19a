import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import phasekit as pk
from phasekit import cli

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


_EMBED = ("--channel", "0", "--m", "2", "--tau", "1")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def error_line(err):
    """The line that reports a usage error.  argparse prints its usage text
    and then "phasekit <command>: error: argument --flag: ..."; a command's
    own check prints one "usage error: ..." line and nothing else."""
    lines = err.splitlines()
    if lines[-1].startswith("usage error: "):
        assert len(lines) == 1, err
    else:
        assert lines[0].startswith("usage: phasekit "), err
    return lines[-1]


def arg_error(command, flag, rule, got):
    """argparse's line for a flag value that the flag's type rejects."""
    return f"phasekit {command}: error: argument {flag}: must be {rule}, got {got}"


def make_series(capsys, steps=1500, name="h.csv"):
    rc, _, _ = run(capsys, "simulate", "--system", "henon",
                   "--steps", str(steps), "--out", name)
    assert rc == 0
    return name


def validate(command, payload):
    schema = json.loads((SCHEMA_DIR / f"{command}.json").read_text())
    jsonschema.validate(payload, schema)


def test_simulate_csv_and_params_echo(workdir, capsys):
    rc, out, err = run(capsys, "simulate", "--system", "henon",
                       "--steps", "200", "--out", "h.csv")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["command"] == "simulate"
    assert payload["params"]["seed"] == 0  # default seed is part of the echo
    assert payload["params"]["steps"] == 200
    assert payload["n_samples"] == 200
    data = np.loadtxt("h.csv", delimiter=",", skiprows=1)
    assert data.shape == (200, 2)
    validate("simulate", payload)


def test_simulate_empty_x0_is_the_default_state(workdir, capsys):
    rc, default, _ = run(capsys, "simulate", "--system", "henon", "--steps", "50",
                         "--out", "a.csv")
    assert rc == 0
    rc, empty, _ = run(capsys, "simulate", "--system", "henon", "--steps", "50",
                       "--x0", "", "--out", "a.csv")
    assert rc == 0 and empty == default  # x0 is echoed as the state used
    # a comma alone is a state of no components, not the default
    rc, out, err = run(capsys, "simulate", "--system", "henon", "--steps", "50",
                       "--x0", ",", "--out", "a.csv")
    assert rc == 2 and out == ""
    assert error_line(err) == "usage error: --x0 needs 2 components for henon"


def test_simulate_negative_transient_is_usage_error(workdir, capsys):
    # a usage error, not a run shortened to its last 5 samples
    rc, out, err = run(capsys, "simulate", "--system", "henon", "--steps", "100",
                       "--transient", "-5", "--out", "h.csv")
    assert rc == 2 and out == ""
    assert error_line(err) == arg_error("simulate", "--transient", "an integer >= 0", -5)
    assert not Path("h.csv").exists()


@pytest.mark.parametrize("steps", ["0", "1"])
def test_simulate_fewer_than_two_steps_is_usage_error(workdir, capsys, steps):
    # a written series needs 2 samples: a bad flag value, not a failed run
    rc, out, err = run(capsys, "simulate", "--system", "henon", "--steps", steps,
                       "--out", "h.csv")
    assert rc == 2 and out == ""
    assert error_line(err) == arg_error("simulate", "--steps", "an integer >= 2", steps)
    assert not Path("h.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (("lorenz", "--dt", "0"), "--dt: must be finite and > 0, got 0"),
    (("lorenz", "--dt", "-0.01"), "--dt: must be finite and > 0, got -0.01"),
    (("henon", "--dt", "0"), "--dt: must be finite and > 0, got 0"),  # a map ignores dt
    (("lorenz", "--dt", "inf"), "--dt: must be finite and > 0, got inf"),
    (("henon", "--dt", "inf"), "--dt: must be finite and > 0, got inf"),
    # not a noise-free series echoed with "noise": -1.0
    (("henon", "--noise", "-1"), "--noise: must be finite and >= 0, got -1"),
], ids=["flow-dt-zero", "flow-dt-negative", "map-dt-zero", "flow-dt-inf", "map-dt-inf",
        "noise-negative"])
def test_simulate_bad_step_or_noise_is_usage_error(workdir, capsys, monkeypatch,
                                                   argv, message):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated despite a bad flag value")

    monkeypatch.setattr(pk.systems, "sample", integrate)
    rc, out, err = run(capsys, "simulate", "--system", *argv, "--steps", "100",
                       "--out", "s.csv")
    assert rc == 2 and out == ""
    assert error_line(err) == f"phasekit simulate: error: argument {message}"
    assert not Path("s.csv").exists()


# Every command that reads a series takes --dt; the parser rejects a bad one
# before the input is read (the input here does not exist).
_DT_COMMANDS = {
    "mi": (), "embed": ("--m", "2", "--tau", "1"),
    "dimension": ("--m", "2", "--tau", "1"),
    "lyapunov": ("--m", "2", "--tau", "1", "--method", "wolf"),
    "identify": ("--m", "2", "--tau", "1", "--n", "2"),
    "predict": ("--m", "2", "--tau", "1"), "stepwise": ("--lambda-min", "0.1"),
}


@pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"],
                         ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("command", sorted(_DT_COMMANDS))
def test_bad_dt_is_usage_error_before_reading(workdir, capsys, monkeypatch, command,
                                              dt):
    def read(*args, **kwargs):
        raise AssertionError("read the input despite a bad --dt")

    monkeypatch.setattr(cli, "load_csv", read)
    rc, out, err = run(capsys, command, "--input", "absent.csv",
                       *_DT_COMMANDS[command], "--dt", dt)
    assert rc == 2 and out == ""
    assert error_line(err) == arg_error(command, "--dt", "finite and > 0", dt)


_WOLF = ("lyapunov", *_EMBED, "--method", "wolf")
_ROSENSTEIN = ("lyapunov", *_EMBED, "--method", "rosenstein")
_SIMULATE = ("simulate", "--system", "henon", "--steps", "100")
_ROUTE_FLAG = "usage error: --{} applies only to --method {}"
_FIT_ROUTES = "rosenstein or kantz"


# Each of these exits 2 before the input is read (it does not exist here) or
# a system is integrated, and writes no file.  The parser rejects a value that
# no data can make valid; the command rejects a lyapunov flag given to a
# --method that does not read it, and a reversed fit range.
@pytest.mark.parametrize("argv, line", [
    pytest.param(("mi", "--bins", "1"), arg_error("mi", "--bins", "an integer >= 2", 1),
                 id="bins-1"),
    pytest.param((*_ROSENSTEIN, "--horizon", "0"),
                 arg_error("lyapunov", "--horizon", "an integer >= 1", 0),
                 id="horizon-0"),
    pytest.param((*_WOLF, "--evolve-steps", "0"),
                 arg_error("lyapunov", "--evolve-steps", "an integer >= 1", 0),
                 id="evolve-steps-0"),
    pytest.param(("lyapunov", *_EMBED, "--method", "benettin", "--renorm-interval", "0"),
                 arg_error("lyapunov", "--renorm-interval", "an integer >= 1", 0),
                 id="renorm-interval-0"),
    pytest.param((*_SIMULATE, "--seed", "-1"),
                 arg_error("simulate", "--seed", "an integer >= 0", -1),
                 id="seed-negative"),
    pytest.param((*_SIMULATE, "--noise", "inf"),
                 arg_error("simulate", "--noise", "finite and >= 0", "inf"),
                 id="noise-inf"),
    pytest.param((*_SIMULATE, "--x0", "nan,0"),
                 arg_error("simulate", "--x0", "finite", "nan"), id="x0-nan"),
    pytest.param(("dimension", *_EMBED, "--q", "inf"),
                 arg_error("dimension", "--q", "finite and >= 0", "inf"), id="q-inf"),
    pytest.param(("stepwise", "--lambda-min", "0.1", "--features", "value,bogus"),
                 arg_error("stepwise", "--features", "one of step_sign, value", "bogus"),
                 id="features-bogus"),
    pytest.param(("stepwise", "--lambda-min", "0.1", "--tau-values", "0"),
                 arg_error("stepwise", "--tau-values", "an integer >= 1", 0),
                 id="tau-values-0"),
    # text that the flag's type cannot parse: argparse names the type
    pytest.param(("simulate", "--system", "henon", "--steps", "abc"),
                 "phasekit simulate: error: argument --steps: invalid int value: 'abc'",
                 id="steps-text"),
    pytest.param((*_SIMULATE, "--x0", "1,a"),
                 "phasekit simulate: error: argument --x0: invalid float list value: "
                 "'1,a'", id="x0-text"),
    pytest.param((*_WOLF, "--fit-lo", "3", "--fit-hi", "4"),
                 _ROUTE_FLAG.format("fit-lo", _FIT_ROUTES), id="wolf-fit-range"),
    pytest.param(("lyapunov", *_EMBED, "--method", "benettin", "--fit-lo", "3"),
                 _ROUTE_FLAG.format("fit-lo", _FIT_ROUTES), id="benettin-fit-lo"),
    pytest.param((*_WOLF, "--curve-out", "c.csv"),
                 _ROUTE_FLAG.format("curve-out", _FIT_ROUTES), id="wolf-curve-out"),
    pytest.param((*_ROSENSTEIN, "--eps0", "0.1"), _ROUTE_FLAG.format("eps0", "kantz"),
                 id="rosenstein-eps0"),
    pytest.param(("lyapunov", *_EMBED, "--method", "kantz", "--k-neighbors", "5"),
                 _ROUTE_FLAG.format("k-neighbors", "benettin"), id="kantz-k-neighbors"),
    pytest.param(("dimension", *_EMBED, "--fit-lo", "0.5", "--fit-hi", "0.1"),
                 "usage error: --fit-lo must be <= --fit-hi, got 0.5 > 0.1",
                 id="dimension-fit-reversed"),
    pytest.param((*_ROSENSTEIN, "--fit-lo", "8", "--fit-hi", "2"),
                 "usage error: --fit-lo must be <= --fit-hi, got 8.0 > 2.0",
                 id="lyapunov-fit-reversed"),
])
def test_bad_flag_exits_2_before_any_work(workdir, capsys, monkeypatch, argv, line):
    def work(*args, **kwargs):
        raise AssertionError("read or integrated despite a bad flag")

    monkeypatch.setattr(cli, "load_csv", work)
    monkeypatch.setattr(pk.systems, "sample", work)
    files = ("--out", "s.csv") if argv[0] == "simulate" else ("--input", "absent.csv")
    rc, out, err = run(capsys, *argv, *files)
    assert rc == 2 and out == ""
    assert error_line(err) == line
    assert list(workdir.iterdir()) == []


def _subparsers():
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# Flags whose type is a bare int: their commands check them against the data
# (--channel, --n, --k-neighbors) or read any value (--smooth-window below 2
# means no smoothing).
_UNRANGED_FLAGS = {"channel", "n", "k_neighbors", "smooth_window"}


def test_every_bare_number_flag_is_declared_unranged():
    # a new int or float flag needs a type that rejects its bad values, or a
    # place on the list above
    bare = {a.dest for p in _subparsers().values() for a in p._actions
            if a.type in (int, float)}
    assert bare == _UNRANGED_FLAGS


# A NaN flag meets every comparison with False: each of these would pass or
# fail its check silently, or fail later under a misleading message.
@pytest.mark.parametrize("argv, message", [
    (("lyapunov", *_EMBED, "--method", "kantz", "--eps0", "nan"),
     "--eps0: must be finite and > 0, got nan"),
    (("lyapunov", *_EMBED, "--method", "rosenstein", "--horizon", "12",
      "--fit-lo", "2", "--fit-hi", "nan"), "--fit-hi: must be a number, got nan"),
    (("predict", *_EMBED, "--gate", "nan"), "--gate: must be a number, got nan"),
    (("predict", *_EMBED, "--lambda-min", "nan"),
     "--lambda-min: must be a number, got nan"),
    (("stepwise", "--lambda-min", "nan"), "--lambda-min: must be a number, got nan"),
    (("dimension", *_EMBED, "--fit-lo", "nan", "--fit-hi", "0.5"),
     "--fit-lo: must be a number, got nan"),
    (("dimension", *_EMBED, "--q", "nan"), "--q: must be finite and >= 0, got nan"),
], ids=["kantz-eps0", "lyapunov-fit-hi", "predict-gate", "predict-lambda-min",
        "stepwise-lambda-min", "dimension-fit-lo", "dimension-q"])
def test_nan_float_flag_is_usage_error(workdir, capsys, argv, message):
    name = make_series(capsys, 600)
    rc, out, err = run(capsys, argv[0], "--input", name, *argv[1:])
    assert rc == 2 and out == ""
    assert error_line(err) == f"phasekit {argv[0]}: error: argument {message}"


def test_linalg_error_is_computation_error(workdir, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet it reports a failed computation
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(pk.systems, "sample", singular)
    rc, out, err = run(capsys, "simulate", "--system", "henon", "--steps", "100",
                       "--out", "h.csv")
    assert rc == 1 and out == ""
    assert err == "error: Singular matrix\n"


# The tests of main's exit paths assert the exit code and the message
# prefix: each command imports its estimator modules when it runs, and its
# failures must still reach the handler that maps them to an exit code.
def test_missing_input_is_usage_error(workdir, capsys):
    rc, out, err = run(capsys, "mi", "--input", "absent.csv")
    assert rc == 2 and out == ""
    assert err.startswith("usage error: ") and "absent.csv" in err


@pytest.mark.parametrize("argv", [
    ("embed", "--m", "2", "--tau", "1"), ("dimension", "--m", "2", "--tau", "1"),
    ("lyapunov", "--m", "2", "--tau", "1", "--method", "rosenstein"),
    ("identify", "--m", "2", "--tau", "1", "--n", "2"),
    ("predict", "--m", "2", "--tau", "1"), ("stepwise", "--lambda-min", "0.1"),
    ("symmetry",)], ids=lambda argv: argv[0])
def test_missing_input_is_usage_error_in_every_command(workdir, capsys, argv):
    rc, out, err = run(capsys, argv[0], "--input", "absent.csv", *argv[1:])
    assert rc == 2 and out == ""
    assert err.startswith("usage error: ") and "absent.csv" in err


def test_unknown_flag_is_usage_error(workdir, capsys):
    rc, out, err = run(capsys, "simulate", "--system", "henon", "--bogus", "1")
    assert rc == 2 and out == ""
    # argparse reports a bad command line itself: usage, then the error
    assert err.startswith("usage: phasekit simulate ")
    assert err.splitlines()[-1].startswith("phasekit simulate: error: ")


@pytest.mark.parametrize("argv", [
    ("mi",), ("embed", "--m", "2", "--tau", "1"),
    ("dimension", "--m", "2", "--tau", "1"),
    ("lyapunov", "--m", "2", "--tau", "1", "--method", "wolf"),
    ("identify", "--m", "2", "--tau", "1", "--n", "2"),
    ("predict", "--m", "2", "--tau", "1"), ("stepwise", "--lambda-min", "0.1"),
    ("symmetry",)], ids=lambda argv: argv[0])
def test_seed_is_a_usage_error_where_nothing_is_random(workdir, capsys, argv):
    # Only simulate draws random numbers (its --noise), so only it takes --seed.
    rc, out, err = run(capsys, argv[0], "--input", "h.csv", *argv[1:], "--seed", "3")
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --seed 3" in err


def test_bad_value_is_usage_error(workdir, capsys):
    name = make_series(capsys, 300)
    rc, _, err = run(capsys, "embed", "--input", name, "--m", "0", "--tau", "1")
    assert rc == 2
    assert err.strip() != ""


@pytest.mark.parametrize("argv, line", [
    (("predict", "--n-neighbors", "-3"),
     arg_error("predict", "--n-neighbors", "an integer >= 2", -3)),
    (("dimension", "--theiler", "-4"),
     arg_error("dimension", "--theiler", "an integer >= 0", -4)),
    (("lyapunov", "--method", "rosenstein", "--theiler", "-1"),
     arg_error("lyapunov", "--theiler", "an integer >= 0", -1)),
    # Box counting applies no window, but a negative one is still an error.
    (("dimension", "--q", "0", "--theiler", "-4"),
     arg_error("dimension", "--theiler", "an integer >= 0", -4)),
    (("lyapunov", "--method", "kantz", "--theiler", "-1"),
     arg_error("lyapunov", "--theiler", "an integer >= 0", -1)),
    # One neighbor has no successor spread to score, so no data can satisfy it.
    (("predict", "--n-neighbors", "1"),
     arg_error("predict", "--n-neighbors", "an integer >= 2", 1)),
    # These depend on the embedding or need the identify module, so the
    # command checks them: the state count lies outside the embedding's
    # width (2 channels, m = 2), or the basis term is malformed.
    (("identify", "--n", "0"), "usage error: n must lie in [1, 4], got 0"),
    (("identify", "--n", "2", "--basis", "foo"),
     "usage error: cannot parse basis term 'foo'"),
    (("identify", "--n", "2", "--basis", "t^9"),
     "usage error: polynomial degree must be in [0, 8], got 9"),
], ids=["argv0---n-neighbors must be >= 2, got -3", "argv1-theiler must be >= 0",
        "argv2-theiler must be >= 0", "argv3-theiler must be >= 0",
        "argv4-theiler must be >= 0", "argv5---n-neighbors must be >= 2, got 1",
        "argv6-n must lie in [1, 4], got 0", "argv7-cannot parse basis term 'foo'",
        "argv8-polynomial degree must be in [0, 8], got 9"])
def test_bad_neighbor_count_or_window_is_usage_error(workdir, capsys, argv, line):
    name = make_series(capsys, 300)
    rc, out, err = run(capsys, argv[0], "--input", name, "--m", "2", "--tau", "1",
                       *argv[1:])
    assert rc == 2 and out == ""
    assert error_line(err) == line


@pytest.mark.parametrize("argv", [("mi",), ("embed", "--m", "2", "--tau", "1")])
def test_out_of_range_channel_is_usage_error(workdir, capsys, argv):
    name = make_series(capsys, 300)
    rc, out, err = run(capsys, argv[0], "--input", name, "--channel", "5", *argv[1:])
    assert rc == 2 and out == ""
    assert err == "usage error: channel 5 is out of range; the series has " \
                  "channels 0 to 1\n"


def test_lyapunov_fit_range_outside_curve_exits_1(workdir, capsys):
    name = make_series(capsys, 1500)
    rc, _, err = run(capsys, "lyapunov", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--method", "rosenstein",
                     "--horizon", "12", "--fit-lo", "50", "--fit-hi", "60")
    assert rc == 1
    assert err.startswith("error: ") and "fewer than 2 offsets" in err


@pytest.mark.parametrize("fit, message", [
    ((), "no scaling window satisfies the linearity rule"),
    (("--fit-lo", "2", "--fit-hi", "8"),
     "non-finite points at offsets [2.0, 3.0, 4.0]: y = [-inf, -inf, -inf]"),
], ids=["automatic-window", "fit-range"])
def test_kantz_on_quantized_data_exits_1(workdir, capsys, fit, message):
    # Rounded to 2 decimals, some balls collapse onto their reference's orbit
    # at offsets 1-4, where the Kantz curve is -inf.
    values = np.round(pk.sample(pk.catalog("henon"), 7000), 2)
    pk.save_csv(pk.TimeSeries(values), "rounded.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run(capsys, "lyapunov", "--input", "rounded.csv",
                           "--channel", "0", "--m", "2", "--tau", "1",
                           "--method", "kantz", "--horizon", "12",
                           "--n-refs", "3000", *fit)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_computation_error_exits_1(workdir, capsys):
    # an ill-posed fit window
    name = make_series(capsys, 600)
    rc, out, err = run(capsys, "dimension", "--input", name, "--channel", "0",
                       "--m", "2", "--tau", "1",
                       "--fit-lo", "1e-9", "--fit-hi", "2e-9")
    assert rc == 1 and out == ""
    assert err == "error: fit range keeps fewer than 3 grid points\n"


def test_mi_payload(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "mi", "--input", name, "--channel", "0",
                     "--tau-max", "20")
    assert rc == 0
    payload = json.loads(out)
    validate("mi", payload)
    assert payload["taus"] == list(range(1, 21))
    assert len(payload["values"]) == 20
    assert payload["selected_tau"] >= 1


@pytest.mark.parametrize("tau_max", ["0", "-3"])
def test_mi_tau_max_below_one_is_usage_error(workdir, capsys, tau_max):
    name = make_series(capsys, 300)
    rc, out, err = run(capsys, "mi", "--input", name, "--tau-max", tau_max)
    assert rc == 2 and out == ""
    assert error_line(err) == arg_error("mi", "--tau-max", "an integer >= 1", tau_max)


def test_mi_tau_max_past_the_series_exits_1(workdir, capsys):
    # whether a delay fits depends on the data, so this one is a failed run
    name = make_series(capsys, 300)
    rc, out, err = run(capsys, "mi", "--input", name, "--tau-max", "300")
    assert rc == 1 and out == ""
    assert err == "error: tau_max must lie in [1, 299]\n"


def test_embed_payload_and_artifact(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "embed", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--out", "emb.csv")
    assert rc == 0
    payload = json.loads(out)
    validate("embed", payload)
    rows = np.loadtxt("emb.csv", delimiter=",", skiprows=1)
    assert rows.shape[1] == 2
    assert payload["n_points"] == rows.shape[0]


def test_dimension_payload(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "dimension", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--curve-out", "curve.csv")
    assert rc == 0
    payload = json.loads(out)
    validate("dimension", payload)
    assert 0.9 < payload["value"] < 1.6
    assert Path("curve.csv").exists()


@pytest.mark.parametrize("method,extra", [
    ("wolf", ()),
    ("rosenstein", ("--horizon", "12")),
    ("kantz", ("--horizon", "12", "--fit-lo", "1", "--fit-hi", "8")),
    ("benettin", ("--kind", "map")),
])
def test_lyapunov_payloads(workdir, capsys, method, extra):
    name = make_series(capsys, 2500)
    rc, out, _ = run(capsys, "lyapunov", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--method", method, *extra)
    assert rc == 0
    payload = json.loads(out)
    validate("lyapunov", payload)
    if method == "benettin":
        assert len(payload["exponents"]) == 2
        lam1 = payload["exponents"][0]
        assert payload["checks"]["dissipative"]
    else:
        lam1 = payload["lambda1_per_sample"]
    assert 0.419 - 0.12 < lam1 < 0.419 + 0.12


def test_kantz_default_radius_is_one_percent_of_diameter(workdir, capsys):
    name = make_series(capsys, 2500)
    rc, out, _ = run(capsys, "lyapunov", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--method", "kantz",
                     "--horizon", "12")
    assert rc == 0
    payload = json.loads(out)
    validate("lyapunov", payload)
    assert 0.419 - 0.12 < payload["lambda1_per_sample"] < 0.419 + 0.12
    emb = pk.embed(pk.load_csv(name).channel(0), 2, 1)
    expected = 0.01 * pk.data_diameter(emb.points)
    assert payload["params"]["eps0"] == float(f"{expected:.12g}")


def _constant_series(name="const.csv"):
    pk.save_csv(pk.TimeSeries(np.full(300, 2.5)), name)
    return name


@pytest.mark.parametrize("argv, message", [
    (("dimension",), "all points coincide"),
    (("lyapunov", "--method", "wolf"), "no admissible starting neighbor"),
    (("identify", "--n", "2"), "embedding has numerical rank 0"),
], ids=["dimension", "lyapunov-wolf", "identify"])
def test_constant_series_exits_1(workdir, capsys, argv, message):
    rc, out, err = run(capsys, argv[0], "--input", _constant_series(), "--m", "2",
                       "--tau", "1", *argv[1:])
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_kantz_default_radius_on_zero_diameter_exits_1(workdir, capsys):
    # the default eps0 is 1% of the diameter, 0 on a constant series
    rc, out, err = run(capsys, "lyapunov", "--input", _constant_series(),
                       "--m", "2", "--tau", "1", "--method", "kantz")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "eps0" in err


def test_kantz_explicit_zero_radius_is_usage_error(workdir, capsys):
    rc, out, err = run(capsys, "lyapunov", "--input", _constant_series(),
                       "--m", "2", "--tau", "1", "--method", "kantz",
                       "--eps0", "0")
    assert rc == 2 and out == ""
    assert error_line(err) == arg_error("lyapunov", "--eps0", "finite and > 0", 0)


@pytest.mark.parametrize("n_refs", ["0", "-2"])
def test_kantz_nonpositive_n_refs_is_usage_error(workdir, capsys, n_refs):
    # a usage error naming --n-refs, not an empty-ball error blaming eps0
    name = make_series(capsys, 2000)
    rc, out, err = run(capsys, "lyapunov", "--input", name, "--m", "2", "--tau", "1",
                       "--method", "kantz", "--horizon", "12", "--n-refs", n_refs)
    assert rc == 2 and out == ""
    assert error_line(err) == arg_error("lyapunov", "--n-refs", "an integer >= 1", n_refs)


def test_identify_payload_and_model(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "identify", "--input", name, "--channel", "0",
                     "--m", "3", "--tau", "1", "--n", "2",
                     "--basis", "t", "--model-out", "model.json")
    assert rc == 0
    payload = json.loads(out)
    validate("identify", payload)
    model = json.loads(Path("model.json").read_text())
    assert model["mode"] == "discrete"


def test_identify_too_few_rows_exits_1(workdir, capsys):
    Path("short.csv").write_text("x\n0.1\n0.5\n-0.3\n0.9\n")
    # m = 2, tau = 2 leaves 2 embedding rows: every flag is valid, the data
    # is too short to fit a model
    rc, out, err = run(capsys, "identify", "--input", "short.csv",
                       "--m", "2", "--tau", "2", "--n", "1")
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "at least 3 states" in err


def test_predict_payload(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "predict", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--n-neighbors", "4")
    assert rc == 0
    payload = json.loads(out)
    validate("predict", payload)
    assert len(payload["forecast"]) == 2


def test_predict_gates(workdir, capsys):
    # Either gate zeroes the forecast and reports the ungated run's e_psi.
    name = make_series(capsys)

    def predict(*flags):
        rc, out, err = run(capsys, "predict", "--input", name, "--channel", "0",
                           "--m", "2", "--tau", "1", *flags)
        assert rc == 0 and err == ""
        return json.loads(out)

    free = predict()
    assert not free["gated"] and free["J"] == 4
    emb = pk.embed(pk.load_csv(name).channel(0), 2, 1)
    row = emb.n_points - 1
    nbrs, _ = pk.successor_index(emb).query_point(emb.points[row], emb.times[row], 4)
    assert free["forecast"] == cli.canonical(emb.points[nbrs + 1].mean(axis=0))
    by_error = predict("--gate", "0")
    assert by_error["gated"] and by_error["forecast"] == [0.0, 0.0]
    assert (by_error["e_psi"], by_error["J"]) == (free["e_psi"], free["J"])
    by_stability = predict("--lambda-min", str(2 * free["lambda_D"]))
    assert by_stability["gated"] and by_stability["J"] == 0
    assert by_stability["forecast"] == [0.0, 0.0]
    assert by_stability["e_psi"] == free["e_psi"]


def test_stepwise_payload(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "stepwise", "--input", name, "--channel", "0",
                     "--m-values", "1,2", "--tau-values", "1,2",
                     "--lambda-min", "0.5")
    assert rc == 0
    payload = json.loads(out)
    validate("stepwise", payload)
    assert payload["configs_evaluated"] >= 1


@pytest.mark.parametrize("features, m_values, configs", [
    ("value,step_sign", [1, 2], 9), ("value", [1], 3)], ids=["two", "one"])
def test_stepwise_default_m_values_follow_features(workdir, capsys, features,
                                                   m_values, configs):
    # an omitted --m-values is 1..len(features), echoed as resolved: an m
    # above the feature count would be skipped, so it is never the default
    name = make_series(capsys, steps=3000)
    rc, out, _ = run(capsys, "stepwise", "--input", name, "--lambda-min", "0.1",
                     "--features", features)
    assert rc == 0
    payload = json.loads(out)
    assert payload["params"]["m_values"] == m_values
    assert payload["configs_evaluated"] == configs


@pytest.mark.parametrize("flags, line", [
    (("--radius-frac", "-1"),
     arg_error("stepwise", "--radius-frac", "finite and > 0", -1)),
    (("--radius-frac", "0"),
     arg_error("stepwise", "--radius-frac", "finite and > 0", 0)),
    (("--radius-frac", "nan"),
     arg_error("stepwise", "--radius-frac", "finite and > 0", "nan")),
    (("--m-values", "5"), "usage error: m_values holds no m in [1, 2], the number of "
                          "features; got [5]"),
    (("--m-values", "0,1"), arg_error("stepwise", "--m-values", "an integer >= 1", 0)),
    (("--tau-values", "0"), arg_error("stepwise", "--tau-values", "an integer >= 1", 0)),
    (("--features", ","), "usage error: no feature transforms given"),
], ids=["radius-negative", "radius-zero", "radius-nan", "m-above-features",
        "m-zero", "tau-zero", "features-empty"])
def test_stepwise_out_of_range_flag_is_usage_error(workdir, capsys, flags, line):
    # a usage error naming the flag, not a run that skips every configuration
    # and then blames the stability gate
    name = make_series(capsys, steps=3000)
    rc, out, err = run(capsys, "stepwise", "--input", name, "--lambda-min", "0.1",
                       *flags)
    assert rc == 2 and out == ""
    assert error_line(err) == line


def test_symmetry_payload(workdir, capsys):
    sq = "0,1\n2,1\n2,3\n0,3\n"
    Path("a.csv").write_text(sq)
    Path("b.csv").write_text("10,1\n14,1\n14,5\n10,5\n")
    rc, out, _ = run(capsys, "symmetry", "--input", "a.csv",
                     "--input-b", "b.csv", "--spectrum-out", "spec.csv")
    assert rc == 0
    payload = json.loads(out)
    validate("symmetry", payload)
    assert payload["comparison"]["scale_ratio"] == pytest.approx(2.0)
    assert Path("spec.csv").exists()


def test_repeated_runs_are_byte_identical(workdir, capsys):
    outputs = []
    files = []
    for _ in range(2):
        rc, out, _ = run(capsys, "simulate", "--system", "henon",
                         "--steps", "400", "--noise", "0.05",
                         "--seed", "7", "--out", "a.csv")
        assert rc == 0
        outputs.append(out)
        files.append(Path("a.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert files[0] == files[1]
    rc, other, _ = run(capsys, "simulate", "--system", "henon",
                       "--steps", "400", "--noise", "0.05",
                       "--seed", "8", "--out", "a.csv")
    assert other != outputs[0]
    assert Path("a.csv").read_bytes() != files[0]


def test_mi_deterministic(workdir, capsys):
    name = make_series(capsys, 800)
    first = run(capsys, "mi", "--input", name, "--channel", "0",
                "--tau-max", "10")
    second = run(capsys, "mi", "--input", name, "--channel", "0",
                 "--tau-max", "10")
    assert first == second


def test_out_dir_env_redirect(workdir, capsys, monkeypatch):
    target = workdir / "routed"
    monkeypatch.setenv("PHASEKIT_OUT_DIR", str(target))
    rc, _, _ = run(capsys, "simulate", "--system", "henon",
                   "--steps", "100", "--out", "nested/run.csv")
    assert rc == 0
    assert (target / "nested" / "run.csv").exists()
    assert not (workdir / "nested").exists()


def test_time_column_resolves_dt(workdir, capsys):
    t = 0.25 * np.arange(300)
    y = np.sin(t)
    np.savetxt("timed.csv", np.column_stack([t, y]), delimiter=",")
    rc, out, _ = run(capsys, "mi", "--input", "timed.csv", "--time-column",
                     "--tau-max", "10")
    assert rc == 0
    payload = json.loads(out)
    assert payload["params"]["dt"] == pytest.approx(0.25)
    rc2, _, err = run(capsys, "mi", "--input", "timed.csv", "--time-column",
                      "--dt", "0.5", "--tau-max", "5")
    assert rc2 == 2  # dt conflicts with the time column
    assert err.startswith("usage error: dt is read from the time column")


def test_canonical_rounding_rules():
    assert cli.canonical(math.pi) == float(f"{math.pi:.12g}")
    assert cli.canonical(float("nan")) == "nan"
    assert cli.canonical(float("inf")) == "inf"
    assert cli.canonical(float("-inf")) == "-inf"
    assert cli.canonical(np.float64(0.1)) == 0.1
    assert cli.canonical(np.int32(4)) == 4
    assert cli.canonical(np.bool_(True)) is True
    assert cli.canonical({"a": np.arange(3)}) == {"a": [0, 1, 2]}


def test_json_floats_stay_at_12_significant_digits(workdir, capsys):
    name = make_series(capsys, 500)
    rc, out, _ = run(capsys, "mi", "--input", name, "--channel", "0",
                     "--tau-max", "5")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 5
    for value in payload["values"]:
        assert value == float(f"{value:.12g}")


def test_q0_dimension_counts_boxes_once(workdir, capsys, monkeypatch):
    name = make_series(capsys)
    calls = []
    original = pk.dimensions.generalized_curve

    def counting(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs["q"])
        return original(*args, **kwargs)

    monkeypatch.setattr(pk.dimensions, "generalized_curve", counting)
    rc, out, _ = run(capsys, "dimension", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--q", "0",
                     "--fit-lo", "0.02", "--fit-hi", "0.5")
    assert rc == 0
    validate("dimension", json.loads(out))
    assert calls == [0.0]


def _subparser_dests():
    return {name: {a.dest for a in p._actions if a.dest != "help"}
            for name, p in _subparsers().items()}


@pytest.mark.parametrize("argv", [
    ("simulate", "--system", "henon", "--steps", "100", "--out", "s.csv"),
    ("mi", "--tau-max", "10"),
    ("embed", *_EMBED),
    ("dimension", *_EMBED),
    ("lyapunov", *_EMBED, "--method", "wolf"),
    ("lyapunov", *_EMBED, "--method", "rosenstein", "--horizon", "12"),
    ("identify", *_EMBED, "--n", "2"),
    ("predict", *_EMBED),
    ("stepwise", "--channel", "0", "--m-values", "1,2", "--tau-values", "1,2",
     "--lambda-min", "0.5"),
    ("symmetry",),
], ids=["simulate", "mi", "embed", "dimension", "lyapunov-wolf",
        "lyapunov-rosenstein", "identify", "predict", "stepwise", "symmetry"])
def test_params_echo_every_flag(workdir, capsys, argv):
    name = make_series(capsys)
    if argv[0] == "symmetry":
        Path("a.csv").write_text("0,1\n2,1\n2,3\n0,3\n")
        argv = (*argv, "--input", "a.csv")
    elif argv[0] != "simulate":
        argv = (*argv, "--input", name)
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    payload = json.loads(out)
    validate(argv[0], payload)
    assert set(payload["params"]) == _subparser_dests()[argv[0]]


def test_params_echo_resolved_values(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "stepwise", "--input", name, "--channel", "0",
                     "--features", "value", "--m-values", "1,", "--tau-values",
                     "2,1", "--lambda-min", "0.5")
    assert rc == 0
    params = json.loads(out)["params"]
    assert params["features"] == ["value"]
    assert params["m_values"] == [1] and params["tau_values"] == [2, 1]
    assert params["dt"] == 1.0 and params["out"] is None
    rc, out, _ = run(capsys, "mi", "--input", name, "--out", "mi.json")
    assert rc == 0 and out == ""
    params = json.loads(Path("mi.json").read_text())["params"]
    assert params["out"] == "mi.json"
    assert params["bins"] >= 2 and params["tau_max"] == 100


def _rounded(values):
    return [float(f"{v:.12g}") for v in values]


@pytest.mark.parametrize("q", ["2", "0"])
def test_dimension_curve_file_matches_payload(workdir, capsys, q):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "dimension", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--q", q, "--fit-lo", "0.02",
                     "--fit-hi", "0.5", "--curve-out", "curve.csv")
    assert rc == 0
    curve = json.loads(out)["curve"]
    data, names = pk.read_numeric_table("curve.csv")
    assert names == ("log2_eps", "ordinate")
    assert _rounded(data[:, 0]) == curve["log2_eps"]
    assert _rounded(data[:, 1]) == curve["ordinate"]


def test_rosenstein_curve_file_matches_payload(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "lyapunov", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1", "--method", "rosenstein",
                     "--horizon", "12", "--curve-out", "div.csv")
    assert rc == 0
    curve = json.loads(out)["curve"]
    data, names = pk.read_numeric_table("div.csv")
    assert names == ("offset", "mean_log_distance")
    assert data[:, 0].tolist() == curve["offsets"]
    assert _rounded(data[:, 1]) == curve["values"]
    assert Path("div.csv").read_text().splitlines()[1].startswith("0.0,")


# main builds its parser once per process.  Each call below must give the
# exit code, stdout, stderr and files that it gives as the process's first.
_SEQUENCE = (
    ("lyapunov", "--input", "h.csv", *_EMBED, "--method", "bogus"),  # argparse
    ("embed", "--input", "h.csv", *_EMBED, "--dt", "0"),  # argparse type
    ("mi", "--input", "h.csv", "--channel", "5"),  # usage error
    ("lyapunov", "--input", "h.csv", *_EMBED, "--method", "rosenstein",
     "--horizon", "12", "--fit-lo", "50", "--fit-hi", "60"),  # computation
    ("dimension", "--help"),
    ("lyapunov", "--input", "h.csv", *_EMBED, "--method", "rosenstein",
     "--horizon", "12", "--curve-out", "div.csv"),
    ("embed", "--input", "h.csv", *_EMBED, "--out", "e.csv"),
    ("dimension", "--input", "h.csv", *_EMBED, "--out", "d.json"),
    ("stepwise", "--input", "h.csv", "--lambda-min", "0.1"),
    ("simulate", "--system", "lorenz", "--steps", "50", "--out", "s.csv"),
)


def _run_in(directory, capsys, monkeypatch, argv):
    """One main call in a directory of its own: (exit, stdout, stderr, files)."""
    directory.mkdir()
    pk.save_csv(pk.TimeSeries(pk.sample(pk.catalog("henon"), 600)), directory / "h.csv")
    monkeypatch.chdir(directory)
    rc, out, err = run(capsys, *argv)
    files = {f.name: f.read_bytes() for f in sorted(directory.iterdir())}
    return rc, out, err, files


def test_reused_parser_leaks_no_state(workdir, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    first = []
    for i, argv in enumerate(_SEQUENCE):
        monkeypatch.setattr(cli, "_PARSER", None)  # as in a fresh process
        first.append(_run_in(workdir / f"first{i}", capsys, monkeypatch, argv))
    assert [r[0] for r in first] == [2, 2, 2, 1, 0, 0, 0, 0, 0, 0]
    monkeypatch.setattr(cli, "_PARSER", None)
    for i, argv in enumerate(_SEQUENCE):
        assert _run_in(workdir / f"reused{i}", capsys, monkeypatch, argv) == first[i], argv
    assert cli._PARSER is not None


def test_main_builds_its_parser_once_per_process(tmp_path):
    script = """
import sys
from phasekit import cli
built = []
build = cli.build_parser
cli.build_parser = lambda: built.append(1) or build()
for argv in (["mi", "--bogus"], ["embed", "--input", "absent.csv", "--m", "2",
             "--tau", "1"], ["mi", "--input", "absent.csv", "--dt", "0"]):
    cli.main(argv)
print(len(built))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(pk.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "1"


def test_build_parser_returns_a_new_parser_each_call():
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    assert first.parse_args(["mi", "--input", "x.csv"]) is not \
        first.parse_args(["mi", "--input", "x.csv"])
