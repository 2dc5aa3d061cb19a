"""Command-line front end.

Every subcommand prints one JSON document (stdout, or the file given with
--out) whose "params" map echoes every flag of the command, with each
default the command resolves itself (dt, x0, theiler, tau_max, bins, eps0,
stepwise's m_values, parsed lists) replaced by the value it used, so a run
can be reproduced from its own output.  Floats in that document are
formatted at 12 significant digits; rerunning any command with the same
inputs and seed yields byte-identical JSON.  Exit codes: 0 success, 1 computation failure,
2 usage error (bad flags, missing files).

Flag values are checked before any input is read: the argparse type of
each flag whose range needs no data and no other flag rejects a bad value.
The commands check the rest (--channel, --n, --k-neighbors, --basis, the
--x0 length, --m-values against --features, --dt with --time-column, the
--fit-lo/--fit-hi pair and lyapunov flags the --method does not read).

Randomness is confined to simulate's --seed flag (default DEFAULT_SEED = 0),
which seeds its --noise; no other command draws random numbers, so no other
command takes a seed.  The PHASEKIT_OUT_DIR environment variable, when set,
prefixes relative output paths.

Each command imports the estimator modules it runs inside its cmd_*
function, so a process loads only what its command uses; building the
parser loads only this module, errors, series and systems, and checks no
system's Jacobian.  main builds the parser on its first call and reuses it
for every later call in the process: parsing leaves the parser unchanged
and gives each call a fresh namespace.  build_parser() returns a new parser
on every call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import systems
from .errors import NoInteriorMinimumWarning, PhasekitError
from .series import TimeSeries, load_csv, save_csv, write_numeric_table

DEFAULT_SEED = 0

_USAGE_ERRORS = (FileNotFoundError, IsADirectoryError, PermissionError,
                 NotADirectoryError, ValueError)


def canonical(obj):
    """Rounded, JSON-safe copy: floats at 12 significant digits, non-finite
    values as strings, numpy scalars and arrays as plain Python."""
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.12g}")
    return obj


def _resolve_out(path):
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get("PHASEKIT_OUT_DIR")
    if base and not p.is_absolute():
        p = Path(base) / p
        p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _emit(payload: dict, out=None) -> None:
    text = json.dumps(canonical(payload), sort_keys=True, indent=2) + "\n"
    out = _resolve_out(out)
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _params(args, **resolved) -> dict:
    """Every parsed flag of the command, with the values it resolved itself."""
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    return {**flags, **resolved}


def _load_series(args):
    return load_csv(args.input, dt=args.dt, time_column=args.time_column)


def _load_embedding(args):
    from .embedding import embed

    series = _load_series(args)
    if args.channel is not None:
        series = series.channel(args.channel)
    return series, embed(series, args.m, args.tau)


def _theiler(args, emb) -> int:
    return emb.default_theiler() if args.theiler is None else args.theiler


def _fit_range(args):
    """The manual fit window, or None; checked before any input is read."""
    lo, hi = args.fit_lo, args.fit_hi
    if (lo is None) != (hi is None):
        raise ValueError("--fit-lo and --fit-hi must be given together")
    if lo is not None and lo > hi:
        raise ValueError(f"--fit-lo must be <= --fit-hi, got {lo} > {hi}")
    return None if lo is None else (lo, hi)


def cmd_simulate(args) -> dict:
    system = systems.catalog(args.system)
    if args.x0 is not None and len(args.x0) != system.dim:
        raise ValueError(f"--x0 needs {system.dim} components for {system.name}")
    dt = system.dt_default if args.dt is None else args.dt
    values = systems.sample(system, args.steps, x0=args.x0, dt=dt,
                            transient=args.transient)
    if args.noise > 0.0:
        rng = np.random.default_rng(args.seed)
        values = values + rng.normal(0.0, args.noise, size=values.shape)
    series = TimeSeries(values, dt=dt if system.kind == "flow" else 1.0)
    out = _resolve_out(args.out)
    save_csv(series, out)
    params = _params(args, dt=dt,
                     x0=list(system.x0_default if args.x0 is None else args.x0))
    payload = {"command": "simulate", "params": params,
               "n_samples": series.n_samples, "n_channels": series.n_channels,
               "kind": system.kind}
    _emit(payload)
    return payload


def cmd_mi(args) -> dict:
    from .embedding import mutual_information_profile, select_delay

    series = _load_series(args)
    tau_max = args.tau_max
    if tau_max is None:
        tau_max = max(2, min(100, series.n_samples // 4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        profile = mutual_information_profile(series, tau_max,
                                             channel=args.channel,
                                             bins=args.bins)
        tau = select_delay(profile)
    interior = not any(issubclass(w.category, NoInteriorMinimumWarning)
                       for w in caught)
    params = _params(args, dt=series.dt, tau_max=tau_max, bins=profile.bins)
    payload = {"command": "mi", "params": params,
               "taus": profile.taus, "values": profile.values,
               "selected_tau": tau, "interior_minimum": interior}
    _emit(payload, args.out)
    return payload


def cmd_embed(args) -> dict:
    from .embedding import embedding_to_series

    series, emb = _load_embedding(args)
    params = _params(args, dt=series.dt)
    if args.out:
        save_csv(embedding_to_series(emb), _resolve_out(args.out))
    payload = {"command": "embed", "params": params,
               "n_points": emb.n_points, "width": emb.width,
               "n_channels": emb.n_channels,
               "theiler_default": emb.default_theiler()}
    _emit(payload)
    return payload


def cmd_dimension(args) -> dict:
    from . import dimensions as dim

    fit_range = _fit_range(args)
    series, emb = _load_embedding(args)
    theiler = _theiler(args, emb)
    if args.q == 2.0:
        curve = dim.correlation_integral(emb, theiler=theiler)
        est = dim.correlation_dimension(curve, fit_range=fit_range)
        usable = curve.values > 0.0
        log_eps = np.log2(curve.epsilons[usable])
        ordinate = np.log2(curve.values[usable])
    else:
        epsilons, ordinate = dim.generalized_curve(emb, args.q)
        est = dim.fit_dimension(epsilons, ordinate, args.q, fit_range)
        log_eps = np.log2(epsilons)
    if args.curve_out:
        write_numeric_table(_resolve_out(args.curve_out), ("log2_eps", "ordinate"),
                            np.column_stack([log_eps, ordinate]))
    params = _params(args, dt=series.dt, theiler=theiler)
    payload = {"command": "dimension", "params": params,
               "value": est.value, "stderr": est.stderr, "q": est.q,
               "window": list(est.window), "n_fit_points": est.n_fit_points,
               "curve": {"log2_eps": log_eps, "ordinate": ordinate}}
    _emit(payload, args.out)
    return payload


# lyapunov flags, None by default, that only some --method routes read
_ROUTE_ONLY = {"fit_lo": ("rosenstein", "kantz"), "fit_hi": ("rosenstein", "kantz"),
               "curve_out": ("rosenstein", "kantz"), "eps0": ("kantz",),
               "k_neighbors": ("benettin",)}


def cmd_lyapunov(args) -> dict:
    from . import lyapunov as lyap

    for dest, methods in _ROUTE_ONLY.items():
        if getattr(args, dest) is not None and args.method not in methods:
            raise ValueError(f"--{dest.replace('_', '-')} applies only to "
                             f"--method {' or '.join(methods)}")
    fit_range = _fit_range(args)
    series, emb = _load_embedding(args)
    theiler = _theiler(args, emb)
    eps0 = args.eps0
    payload = {"command": "lyapunov", "method": args.method}

    if args.method == "wolf":
        res = lyap.wolf_lambda1(emb, evolve_steps=args.evolve_steps,
                                theiler=theiler)
        payload.update({"lambda1_per_sample": res.lambda1,
                        "lambda1_per_time": res.lambda1 / series.dt,
                        "segments": res.segments,
                        "total_steps": res.total_steps})
    elif args.method in ("rosenstein", "kantz"):
        if args.method == "rosenstein":
            curve = lyap.rosenstein_curve(emb, args.horizon, theiler=theiler)
        else:
            curve = lyap.kantz_curve(emb, args.eps0, args.horizon, theiler=theiler,
                                     n_refs=args.n_refs)
            eps0 = curve.eps0
        rate = lyap.divergence_rate(curve, fit_range=fit_range)
        if args.curve_out:
            write_numeric_table(_resolve_out(args.curve_out),
                                ("offset", "mean_log_distance"),
                                np.column_stack([curve.offsets, curve.values]))
        payload.update({"lambda1_per_sample": rate.value,
                        "lambda1_per_time": rate.value / series.dt,
                        "stderr": rate.stderr, "window": list(rate.window),
                        "n_refs": curve.n_refs,
                        "curve": {"offsets": curve.offsets,
                                  "values": curve.values}})
    else:  # benettin, data-driven
        spectrum = lyap.benettin_data(emb, k_neighbors=args.k_neighbors,
                                      renorm_interval=args.renorm_interval,
                                      theiler=theiler)
        checks = lyap.spectrum_checks(spectrum, kind=args.kind)
        payload.update({
            "exponents": list(spectrum.exponents),
            "per_time": list(spectrum.per_time),
            "steps": spectrum.steps,
            "checks": {"sum_exponents": checks.sum_exponents,
                       "dissipative": checks.dissipative,
                       "zero_exponent_ok": checks.zero_exponent_ok,
                       "entropy_rate": checks.entropy_rate}})
    payload["params"] = _params(args, dt=series.dt, theiler=theiler, eps0=eps0)
    _emit(payload, args.out)
    return payload


def cmd_identify(args) -> dict:
    from . import identify as idn

    series, emb = _load_embedding(args)
    states, record = idn.build_state_sequence(emb, args.n)
    outputs = series.values[emb.times]
    basis = idn.parse_basis(args.basis)
    t0 = float(emb.times[0]) * series.dt
    model = idn.fit_model(states, outputs, basis=basis, mode=args.mode,
                          dt=series.dt, t0=t0,
                          smooth_window=args.smooth_window)
    model_json = json.loads(model.to_json())
    if args.model_out:
        _resolve_out(args.model_out).write_text(model.to_json() + "\n")
    params = _params(args, dt=series.dt)
    payload = {"command": "identify", "params": params, "model": model_json,
               "fit": list(model.fit) if model.fit is not None else None,
               "residual_rms": list(model.residual_rms)}
    _emit(payload, args.out)
    return payload


def cmd_predict(args) -> dict:
    from . import predict as prd
    from .embedding import successor_index

    series, emb = _load_embedding(args)
    theiler = _theiler(args, emb)
    sub = successor_index(emb, 1, theiler)
    row = emb.n_points - 1
    nbrs, _ = sub.query_point(emb.points[row], emb.times[row], args.n_neighbors)
    result = prd.local_mean_forecast(emb, nbrs, args.lambda_min, args.gate)
    params = _params(args, dt=series.dt, theiler=theiler)
    payload = {"command": "predict", "params": params,
               "config": {"m": args.m, "tau": args.tau,
                          "features": ["local_mean"]},
               "lambda_D": result.stability.lambda_d, "J": result.j,
               "forecast": result.forecast, "gated": result.gated,
               "e_psi": result.e_psi,
               "n_neighbors": int(result.stability.j2)}
    _emit(payload, args.out)
    return payload


# --features name -> the predict function that builds that transform
_FEATURES = {"value": "value_feature", "step_sign": "step_sign_feature"}


def cmd_stepwise(args) -> dict:
    from . import predict as prd

    series = _load_series(args)
    feats = [getattr(prd, _FEATURES[n])() for n in args.features]
    # an omitted --m-values is one m per feature: 1..len(features)
    m_values = list(range(1, len(feats) + 1) if args.m_values is None
                    else args.m_values)
    tau_values = list(args.tau_values)
    report = prd.stepwise_reconstruct(series, feats, m_values, tau_values,
                                      args.lambda_min, channel=args.channel,
                                      radius_frac=args.radius_frac)
    params = _params(args, dt=series.dt, features=list(args.features), m_values=m_values,
                     tau_values=tau_values)
    payload = {"command": "stepwise", "params": params,
               "config": {"m": report.m, "tau": report.tau,
                          "features": list(report.features)},
               "lambda_D": report.lambda_d, "J": report.j,
               "forecast": list(report.forecast), "gated": False,
               "e_psi": None, "n_neighbors": report.n_neighbors,
               "configs_evaluated": report.configs_evaluated,
               "configs_gated": report.configs_gated}
    _emit(payload, args.out)
    return payload


def _descriptor_dict(desc) -> dict:
    return {"translate": desc.translate, "scale": desc.scale,
            "angles": list(desc.angles)}


def cmd_symmetry(args) -> dict:
    from . import contours as ct

    pts_a = ct.load_contour(args.input)
    spec_a = ct.dft(pts_a)
    norm_a = ct.normalize(spec_a)
    if args.spectrum_out:
        ct.save_spectrum(_resolve_out(args.spectrum_out), spec_a)
    payload = {"command": "symmetry", "params": _params(args),
               "a": _descriptor_dict(norm_a[1]),
               "b": None, "comparison": None}
    if args.input_b:
        norm_b = ct.normalize(ct.dft(ct.load_contour(args.input_b)))
        report = ct.compare_normalized(norm_a, norm_b)
        payload["b"] = _descriptor_dict(norm_b[1])
        payload["comparison"] = {
            "translation": report.translation,
            "scale_ratio": report.scale_ratio,
            "rotation": list(report.rotation),
            "closeness": report.closeness,
            "matched_closeness": report.matched_closeness,
            "ratio": report.ratio,
        }
    _emit(payload, args.out)
    return payload


def _checked(kind, ok, rule):
    """An argparse type: the text parsed by kind, rejected unless ok(value);
    argparse adds the flag, and calls unparsable text an invalid kind value."""
    def convert(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    convert.__name__ = kind.__name__
    return convert


def _int_from(low):
    return _checked(int, lambda n: n >= low, f"an integer >= {low}")


def _comma_list(item, empty=()):
    """An argparse type: a comma list of item values, blank entries dropped
    (an empty text gives empty)."""
    def convert(text):
        toks = map(str.strip, text.split(","))
        return tuple(item(tok) for tok in toks if tok) if text else empty
    convert.__name__ = f"{item.__name__} list"
    return convert


_POSITIVE = _checked(float, lambda x: 0.0 < x < math.inf, "finite and > 0")
_NON_NEGATIVE = _checked(float, lambda x: 0.0 <= x < math.inf, "finite and >= 0")
_NOT_NAN = _checked(float, lambda x: not math.isnan(x), "a number")
_FINITE = _checked(float, math.isfinite, "finite")
_FEATURE = _checked(str, _FEATURES.__contains__,
                    "one of " + ", ".join(sorted(_FEATURES)))


def _add_common(p, with_embedding=True, out_help="write the JSON result here"):
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--dt", type=_POSITIVE, default=None,
                   help="sampling step of the input series (default 1.0)")
    p.add_argument("--time-column", action="store_true",
                   help="read dt from a leading time column instead of --dt")
    if with_embedding:
        p.add_argument("--m", type=_int_from(1), required=True,
                       help="embedding dimension")
        p.add_argument("--tau", type=_int_from(1), required=True,
                       help="delay in samples")
        p.add_argument("--channel", type=int, default=None,
                       help="embed one channel of the input (default: all)")
    p.add_argument("--out", default=None, help=out_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasekit",
        description="Attractor reconstruction, invariants, reduced models, "
                    "neighborhood forecasting and contour symmetry.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a built-in system to CSV")
    p.add_argument("--system", required=True,
                   choices=systems.NAMES,
                   help="built-in system name")
    p.add_argument("--steps", type=_int_from(2), required=True,
                   help="post-transient samples to write")
    p.add_argument("--dt", type=_POSITIVE, default=None,
                   help="integration step (flows); system default if omitted")
    p.add_argument("--x0", type=_comma_list(_FINITE, empty=None), default=None,
                   help="comma-separated initial state")
    p.add_argument("--transient", type=_int_from(0), default=systems.DEFAULT_TRANSIENT,
                   help="leading samples to discard")
    p.add_argument("--noise", type=_NON_NEGATIVE, default=0.0,
                   help="additive Gaussian observation noise (std dev)")
    p.add_argument("--seed", type=_int_from(0), default=DEFAULT_SEED,
                   help=f"seed of the --noise draws (default {DEFAULT_SEED})")
    p.add_argument("--out", required=True, help="CSV destination")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("mi", help="mutual information profile and delay choice")
    _add_common(p, with_embedding=False)
    p.add_argument("--tau-max", type=_int_from(1), default=None,
                   help="largest delay to scan (default n/4, capped at 100)")
    p.add_argument("--bins", type=_int_from(2), default=None,
                   help="histogram bins (default cube-root rule)")
    p.add_argument("--channel", type=int, default=0)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("embed", help="delay-embed a series")
    _add_common(p, out_help="write embedded points CSV here")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("dimension", help="correlation or box-counting dimension")
    _add_common(p)
    p.add_argument("--q", type=_NON_NEGATIVE, default=2.0,
                   help="order: 2 = pairwise correlation route, else boxes")
    p.add_argument("--theiler", type=_int_from(0), default=None)
    p.add_argument("--fit-lo", type=_NOT_NAN, default=None,
                   help="lower eps bound of a manual fit window "
                        "(negative infinity: --fit-lo=-inf)")
    p.add_argument("--fit-hi", type=_NOT_NAN, default=None,
                   help="upper eps bound of a manual fit window "
                        "(negative infinity: --fit-hi=-inf)")
    p.add_argument("--curve-out", default=None,
                   help="write the log-log curve CSV here")
    p.set_defaults(func=cmd_dimension)

    p = sub.add_parser("lyapunov", help="largest exponent or full spectrum")
    _add_common(p)
    p.add_argument("--method", required=True,
                   choices=("wolf", "rosenstein", "kantz", "benettin"))
    p.add_argument("--theiler", type=_int_from(0), default=None)
    p.add_argument("--evolve-steps", type=_int_from(1), default=1,
                   help="wolf: steps between replacements")
    p.add_argument("--horizon", type=_int_from(1), default=50,
                   help="rosenstein/kantz: divergence curve length")
    p.add_argument("--eps0", type=_POSITIVE, default=None,
                   help="kantz: neighborhood radius (default 1%% of diameter)")
    p.add_argument("--n-refs", type=_int_from(1), default=1000,
                   help="kantz: reference point budget")
    p.add_argument("--fit-lo", type=_NOT_NAN, default=None,
                   help="first offset of a manual fit window "
                        "(negative infinity: --fit-lo=-inf)")
    p.add_argument("--fit-hi", type=_NOT_NAN, default=None,
                   help="last offset of a manual fit window "
                        "(negative infinity: --fit-hi=-inf)")
    p.add_argument("--renorm-interval", type=_int_from(1), default=1,
                   help="benettin: steps between re-orthonormalizations; "
                        "k > 1 loses about eps*exp((lambda1-lambda2)*k) of "
                        "relative accuracy in log r_jj per renormalization")
    p.add_argument("--k-neighbors", type=int, default=None,
                   help="benettin: neighbors per local Jacobian fit "
                        "(default 2m+1)")
    p.add_argument("--kind", choices=("flow", "map"), default="flow",
                   help="benettin: neutral-direction check applies to flows")
    p.add_argument("--curve-out", default=None,
                   help="write the divergence curve CSV here")
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("identify", help="fit a reduced linear-plus-basis model")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="state order")
    p.add_argument("--basis", default="",
                   help="comma list of terms: 1, t, t^p, sin(w,phi), exp(a)")
    p.add_argument("--mode", choices=("discrete", "continuous"),
                   default="discrete")
    p.add_argument("--smooth-window", type=int, default=0,
                   help="moving-average width for continuous-mode derivatives")
    p.add_argument("--model-out", default=None,
                   help="write the full-precision model JSON here")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("predict", help="one-step forecast: mean successor of "
                       "the newest point's neighbors, scored by e_psi, gated")
    _add_common(p)
    p.add_argument("--n-neighbors", type=_int_from(2), default=4)
    p.add_argument("--lambda-min", type=_NOT_NAN, default=0.0,
                   help="stability gate on 1/max successor spread "
                        "(negative infinity: --lambda-min=-inf)")
    p.add_argument("--gate", type=_NOT_NAN, default=None,
                   help="error gate: e_psi at or above this zeroes the forecast "
                        "(negative infinity: --gate=-inf)")
    p.add_argument("--theiler", type=_int_from(0), default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stepwise", help="stepwise reconstruction search")
    _add_common(p, with_embedding=False)
    p.add_argument("--features", type=_comma_list(_FEATURE), default="value,step_sign",
                   help="comma list from: " + ",".join(sorted(_FEATURES)))
    p.add_argument("--m-values", type=_comma_list(_int_from(1)), default=None,
                   help="comma list of embedding dimensions "
                        "(default 1 to the number of features)")
    p.add_argument("--tau-values", type=_comma_list(_int_from(1)), default="1,2,3")
    p.add_argument("--lambda-min", type=_NOT_NAN, required=True,
                   help="stability gate on 1/max successor spread, per "
                        "configuration (negative infinity: --lambda-min=-inf)")
    p.add_argument("--radius-frac", type=_POSITIVE, default=0.25,
                   help="neighborhood radius per sqrt(m), standardized units")
    p.add_argument("--channel", type=int, default=0)
    p.set_defaults(func=cmd_stepwise)

    p = sub.add_parser("symmetry", help="contour descriptors and comparison")
    p.add_argument("--input", required=True, help="contour CSV (vertices)")
    p.add_argument("--input-b", default=None, help="second contour to compare")
    p.add_argument("--spectrum-out", default=None,
                   help="write the raw spectrum CSV here")
    p.add_argument("--out", default=None, help="write the JSON result here")
    p.set_defaults(func=cmd_symmetry)

    return parser


_PARSER = None  # main's parser, built by its first call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except (PhasekitError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, but it reports a failed computation
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
