import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_failures_are_counted(tmp_path):
    from phasekit import cli

    data = str(tmp_path / "h.csv")

    def raises():
        raise RuntimeError("forced")

    ops = [
        Op("simulate_s", ("simulate", "--system", "henon", "--steps", "500",
                          "--out", data)),
        Op("mi_s", ("mi", "--input", data)),
        Op("lyapunov_s", ("lyapunov", "--input", str(tmp_path / "absent.csv"),
                          "--m", "2", "--tau", "1", "--method", "wolf")),
        Op("predict_s", ("predict", "--input", data, "--m", "2", "--tau", "1"),
           check=lambda payload: ["forced mismatch"]),
        Op("reference_s", call=raises),
    ]
    summary = run.run_pipeline(ops, cli, run.load_validators())
    assert summary["attempted"] == 5
    assert summary["failed"] == 3
    assert summary["wrong"] == ["forced mismatch"]
    assert "exit 2" in summary["failures"][0]
    times = run.command_times(ops, [summary])
    assert times["lyapunov_s"] > 0.0 and times["reference_s"] >= 0.0
    assert times["pipeline_s"] == pytest.approx(sum(summary["op_s"]))


def test_command_times_are_means_of_repetition_sums():
    ops = [Op("mi_s", ("mi",)), Op(None, ("embed",)), Op("mi_s", ("mi",))]
    summaries = [{"op_s": [1.0, 5.0, 2.0]}, {"op_s": [3.0, 4.0, 1.5]},
                 {"op_s": [9.0, 1.0, 9.5]}]
    times = run.command_times(ops, summaries)
    assert times == pytest.approx({"pipeline_s": 12.0, "mi_s": 26.0 / 3.0})


def test_output_problems_catch_bad_json_schema_and_non_finite():
    validators = run.load_validators()
    assert run.output_problems("{", validators)[0][0].startswith("invalid JSON")
    assert run.output_problems('{"command": "nope"}', validators)[0]
    payload = {"command": "dimension", "params": {}, "value": "nan", "stderr": 0.1,
               "q": 2.0, "window": [0.1, 0.2], "n_fit_points": 5,
               "curve": {"log2_eps": [], "ordinate": []}}
    assert run.output_problems(json.dumps(payload), validators)[0]
    payload["value"] = 1.2
    assert run.output_problems(json.dumps(payload), validators) == ([], 1.2)
    assert not run.is_finite([1.0, "inf"])


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _scaled_down(workload, tmp_path, trace):
    from phasekit import cli

    ops = WORKLOADS[workload](3, tmp_path, 0.1)
    summaries, values, traced = run.measure(ops, cli, run.load_validators(), 0.0,
                                            trace)
    assert not [w for s in summaries for w in s["wrong"]]
    return ops, summaries, values, traced


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_scaled_down_run(workload, tmp_path):
    ops, summaries, values, _ = _scaled_down(workload, tmp_path, False)
    assert len(summaries) == 1 and summaries[0]["attempted"] == len(ops)
    values["setup_s"] = 1.0  # measured by main(), in fresh interpreters
    for name, got in run.result_metrics(values, SPEC["end_to_end"]).items():
        assert got["value"] > 0.0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    _, summaries, values, traced = _scaled_down(workload, tmp_path, True)
    assert len(summaries) == 2 and len(traced) == 1
    values["systems.catalog.first_call_s"] = 0.5  # measured by main()
    metrics = run.result_metrics(values, SPEC["per_layer"])
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    for layer in ("series.load_csv", "embedding.NeighborIndex.build",
                  "dimensions.correlation_integral", "fitting.fit_scaling_region",
                  "lyapunov.rosenstein_curve", "predict.local_stability",
                  "systems.sample", "cli.canonical"):
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    if workload == "henon-map":
        assert metrics["series.load_csv.calls"]["value"] == 11
        assert metrics["lyapunov.kantz_curve.calls"]["value"] == 1


def test_command_prints_every_end_to_end_metric():
    done = _bench("--workload", "short-sweep", "--seed", "3", "--seconds", "0",
                  "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "henon-map", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
