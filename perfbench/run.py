"""phasekit benchmark: one workload, run as a single closed-loop CLI user.

    python3 perfbench/run.py --workload henon-map --seed 1 --seconds 36 --trace 0

Run from the repository root; phasekit is imported from ./src.  The run
repeats the workload's command sequence (perfbench/workloads.py) in this one
process through phasekit.cli.main until --seconds is used up, checks every
output (exit code, JSON schema from src/phasekit/schemas, finite headline
estimate, workload-specific checks) and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

pipeline_s and the per-command times are means over the repetitions.
--trace 0 reports the end_to_end metrics of BENCHMARK.json, with the median
set-up time of fresh interpreters.  --trace 1 alternates untraced and traced
repetitions and reports the per_layer metrics: spans recorded around
phasekit's public functions (perfbench/tracer.py), the tracing overhead and
the checks' figures.  A record of each run, with the
environment, and the spans of a traced run are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SPEC = ROOT / "BENCHMARK.json"
SETUP_RUNS = 5

# Child process for setup_s: interpreter start through import phasekit and
# the first build_parser(), which runs the catalog's Jacobian check.
_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "from phasekit import cli; cli.build_parser(); "
          "print(repr(time.perf_counter()))")


@dataclass
class Outcome:
    seconds: float
    ok: bool
    wrong: list = field(default_factory=list)  # problems in a 0-exit output
    estimate: float | None = None
    note: str = ""


def load_validators() -> dict:
    import jsonschema

    validators = {}
    for path in sorted((SRC / "phasekit" / "schemas").glob("*.json")):
        schema = json.loads(path.read_text())
        validators[path.stem] = jsonschema.validators.validator_for(schema)(schema)
    return validators


def is_finite(value) -> bool:
    """True for finite numbers and lists of them; "nan"/"inf" strings fail."""
    if isinstance(value, list):
        return all(is_finite(v) for v in value)
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


_HEADLINE_KEYS = {"simulate": "n_samples", "mi": "selected_tau", "embed": "n_points",
                  "dimension": "value", "identify": "residual_rms",
                  "predict": "forecast", "stepwise": "forecast"}


def headline(payload: dict):
    """The estimate a command exists to produce."""
    command = payload["command"]
    if command == "lyapunov":
        if payload["method"] == "benettin":
            return payload["per_time"][0]
        return payload["lambda1_per_time"]
    if command == "symmetry":
        return payload["comparison"]["ratio"]
    return payload[_HEADLINE_KEYS[command]]


def output_problems(text: str, validators: dict, check=None) -> tuple[list, object]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"invalid JSON: {exc}"], None
    validator = validators.get(payload.get("command") if isinstance(payload, dict) else None)
    if validator is None:
        return ["no schema for this output"], None
    problems = [f"schema: {e.message}" for e in validator.iter_errors(payload)]
    if problems:
        return problems, None
    value = headline(payload)
    if not is_finite(value):
        return [f"non-finite headline estimate {value!r}"], None
    if check is not None:
        problems = check(payload)
    return problems, value


def run_op(op, cli, validators) -> Outcome:
    """Run one op; a non-zero exit, bad output or failed check fails it."""
    if op.call is not None:
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:
            return Outcome(time.perf_counter() - start, False,
                           note=traceback.format_exc(limit=2))
        seconds = time.perf_counter() - start
        problems = op.check(result) if op.check else []
        return Outcome(seconds, not problems, problems)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except Exception:  # an uncaught error ends a CLI process with 1
            traceback.print_exc()
            code = 1
    seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(seconds, False, note=f"exit {code}: {err.getvalue().strip()}")
    problems, value = output_problems(out.getvalue(), validators, op.check)
    return Outcome(seconds, not problems, problems,
                   estimate=value if not problems and op.expect else None)


def _max_rel_err(pairs) -> float:
    """Largest |estimate - ref| / ref; no successful estimate counts as 1,
    the error of an estimate of 0."""
    errs = [abs(est - ref) / ref for est, ref in pairs]
    return max(errs) if errs else 1.0


def run_pipeline(ops, cli, validators, tracer=None) -> dict:
    summary = {"attempted": len(ops), "failed": 0, "wrong": [], "failures": [],
               "op_s": []}
    estimates = {"lambda1": [], "dimension": []}
    for op in ops:
        label = op.argv[0] if op.argv else "reference"
        gc.collect()  # each CLI command would start with a fresh heap
        with tracer.span(f"command.{label}") if tracer else nullcontext():
            outcome = run_op(op, cli, validators)
        summary["op_s"].append(outcome.seconds)
        if not outcome.ok:
            summary["failed"] += 1
            summary["failures"].append(
                f"{' '.join(op.argv) or label}: {outcome.note or '; '.join(outcome.wrong)}")
        summary["wrong"] += outcome.wrong
        if outcome.estimate is not None:
            kind, ref = op.expect
            estimates[kind].append((outcome.estimate, ref))
    summary["lambda1_max_rel_err"] = _max_rel_err(estimates["lambda1"])
    summary["dimension_max_rel_err"] = _max_rel_err(estimates["dimension"])
    return summary


def repeat(seconds: float, minimum: int, once) -> list:
    """Call once(i) at least `minimum` times, then while another call, as
    long as the last one, still fits in `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(once(len(results)))
        now = time.perf_counter()
        if len(results) >= minimum and (now - start) + (now - began) > seconds:
            return results


def setup_seconds() -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout; git would look upwards
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def command_times(ops, summaries) -> dict:
    """Means over the repetitions of the pipeline's time and of each command
    metric's sum.

    On a shared host single commands run at one of two speeds, about 1.3x
    apart, switching every few seconds.  A median flips between the two when
    a run's repetitions split about evenly; the mean moves smoothly with the
    split, and its seed-to-seed spread is the smaller.
    """
    sums = []
    for summary in summaries:
        rep = {"pipeline_s": math.fsum(summary["op_s"])}
        for op, seconds in zip(ops, summary["op_s"]):
            if op.metric:
                rep[op.metric] = rep.get(op.metric, 0.0) + seconds
        sums.append(rep)
    return {k: statistics.fmean(rep[k] for rep in sums) for k in sums[0]}


def measure(ops, cli, validators, seconds: float, trace: bool):
    """Repeat the pipeline for `seconds`; return the repetitions' summaries,
    the metric values and the spans of each traced repetition.

    Traced, every other repetition runs instrumented: layer figures are
    medians over the traced repetitions, command times come from the
    untraced ones.
    """
    from tracer import Tracer, instrumented, layer_metrics

    if not trace:
        summaries = repeat(seconds, 1, lambda i: run_pipeline(ops, cli, validators))
        return summaries, command_times(ops, summaries), []

    tracer = Tracer()
    traced = []  # (spans, summary) per traced repetition

    def once(i):
        if i % 2 == 0:
            return run_pipeline(ops, cli, validators)
        with instrumented(tracer):
            summary = run_pipeline(ops, cli, validators, tracer)
        traced.append((tracer.take(), summary))
        return summary

    summaries = repeat(seconds, 2, once)
    plain = summaries[0::2]
    layers = [layer_metrics(spans) for spans, _ in traced]
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    values.update(command_times(ops, plain))
    values["trace.overhead_s"] = (
        command_times(ops, [s for _, s in traced])["pipeline_s"] - values["pipeline_s"])
    for key in ("lambda1_max_rel_err", "dimension_max_rel_err"):
        values[key] = statistics.median(s[key] for s in plain)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_ops_ratio"] = (sum(s["failed"] for s in summaries)
                                  / sum(s["attempted"] for s in summaries))
    return summaries, values, [spans for spans, _ in traced]


def result_metrics(values: dict, listed: list) -> dict:
    """The metrics BENCHMARK.json lists, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def _span_rows(spans) -> list:
    return [[s.name, s.start, s.end, s.parent, s.error, s.counts] for s in spans]


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; at least one repetition always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "phasekit" / "__init__.py").is_file():
        print(f"error: phasekit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import phasekit
    from phasekit import cli
    from tracer import TARGETS, Tracer, instrumented
    from workloads import WORKLOADS

    if not Path(phasekit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported phasekit from {phasekit.__file__}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    setup = [] if args.trace else [setup_seconds() for _ in range(SETUP_RUNS)]
    validators = load_validators()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # The process's first catalog() call runs the Jacobian check: traced
        # when tracing, otherwise paid here, outside the timed commands, as
        # setup_s measures it.
        tracer = Tracer()
        with instrumented(tracer) if args.trace else nullcontext():
            cli.build_parser()
        first_call = sum(s.duration for s in tracer.take() if s.name == "systems.catalog")
        ops = WORKLOADS[args.workload](args.seed, workdir)
        gc.collect()
        gc.freeze()  # set-up objects stay out of the per-command collections
        summaries, values, traced = measure(ops, cli, validators, args.seconds,
                                            bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        values["systems.catalog.first_call_s"] = first_call
    else:
        values["setup_s"] = statistics.median(setup)

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    wrong = [w for s in summaries for w in s["wrong"]]
    correct = not wrong and all(math.isfinite(v) for v in values.values())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "setup_s": setup, "repetitions": summaries, "metrics": values}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(
            [_span_rows(spans) for spans in traced]) + "\n")
    for note in sorted({f for s in summaries for f in s["failures"]}):
        print(f"failed: {note}", file=sys.stderr)
    if args.trace:
        for name, *_ in TARGETS:
            if values[f"{name}.calls"]:
                print(f"layer {name}: calls={values[f'{name}.calls']:g} "
                      f"busy_s={values[f'{name}.busy_s']:.4f} "
                      f"self_s={values[f'{name}.self_s']:.4f}", file=sys.stderr)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics(values, listed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
