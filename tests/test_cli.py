import argparse
import json
import math
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


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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


def test_missing_input_is_usage_error(workdir, capsys):
    rc, out, err = run(capsys, "mi", "--input", "absent.csv")
    assert rc == 2
    assert "absent.csv" in err


def test_unknown_flag_is_usage_error(workdir, capsys):
    rc, _, _ = run(capsys, "simulate", "--system", "henon", "--bogus", "1")
    assert rc == 2


def test_bad_value_is_usage_error(workdir, capsys):
    name = make_series(capsys, 300)
    rc, _, err = run(capsys, "embed", "--input", name, "--m", "0", "--tau", "1")
    assert rc == 2
    assert err.strip() != ""


@pytest.mark.parametrize("argv, message", [
    (("predict", "--n-neighbors", "-3"), "k must be >= 1"),
    (("dimension", "--theiler", "-4"), "theiler must be >= 0"),
    (("lyapunov", "--method", "rosenstein", "--theiler", "-1"),
     "theiler must be >= 0"),
    # Box counting applies no window, but a negative one is still an error.
    (("dimension", "--q", "0", "--theiler", "-4"), "theiler must be >= 0"),
    (("lyapunov", "--method", "kantz", "--theiler", "-1"), "theiler must be >= 0"),
])
def test_bad_neighbor_count_or_window_is_usage_error(workdir, capsys, argv, message):
    name = make_series(capsys, 300)
    rc, out, err = run(capsys, argv[0], "--input", name, "--m", "2", "--tau", "1",
                       *argv[1:])
    assert rc == 2 and out == ""
    assert err.startswith("usage error: ") and message in err


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
    name = make_series(capsys, 600)
    rc, _, err = run(capsys, "dimension", "--input", name, "--channel", "0",
                     "--m", "2", "--tau", "1",
                     "--fit-lo", "1e-9", "--fit-hi", "2e-9")
    assert rc == 1
    assert err.strip() != ""


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


def test_stepwise_payload(workdir, capsys):
    name = make_series(capsys)
    rc, out, _ = run(capsys, "stepwise", "--input", name, "--channel", "0",
                     "--m-values", "1,2", "--tau-values", "1,2",
                     "--lambda-min", "0.5")
    assert rc == 0
    payload = json.loads(out)
    validate("stepwise", payload)
    assert payload["configs_evaluated"] >= 1


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
    assert err.strip() != ""


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
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()}


_EMBED = ("--channel", "0", "--m", "2", "--tau", "1")


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
