"""JSON-in, JSON-out command line front end.

Every command reads one JSON payload (from --json, --input, or stdin),
prints one JSON object with sorted keys, and exits 0 for any computed
verdict (negative verdicts included), 1 for malformed input, 2 when a
precondition, precision budget, or internal check refuses to produce an
answer.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

from .errors import PadicDynError
from .padic import PadicNumber, PrimeContext, exponent_to_json, primitive_torsion_root
from .series import RING_FLOAT, RING_INTEGRAL, RING_RESIDUE, PowerSeries
from .newton import (
    negative_part,
    newton_polygon,
    render_ascii,
    root_valuations,
    compare_root_polygons,
    weierstrass_degree,
    weierstrass_preparation,
)
from .commutant import certify_torsion, commutant, linearize
from .oracle import (
    conjugate_pair,
    gm_minimal_pair,
    lt_minimal_pair,
    seeded_conjugator,
    validate_minimal_pair,
)
from .ramification import (
    g0_order,
    lower_ramification,
    normalizer_witness,
    nottingham_order,
    zp_iterate,
)


class InputError(Exception):
    """Malformed invocation or payload; exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


COMMANDS = (
    "polygon", "wideg", "wprep", "linearize", "commutant", "torsion-check",
    "ramification", "order", "normalizer", "lambda-check", "gen-pair",
    "validate-pair", "zp-iterate",
)

RINGS = (RING_INTEGRAL, RING_FLOAT, RING_RESIDUE)


def _build_parser():
    parser = _Parser(prog="padicdyn", description=__doc__)
    parser.add_argument("command", nargs="?", help="one of: " + ", ".join(COMMANDS))
    parser.add_argument("--p", type=int, help="prime")
    parser.add_argument("--N", type=int, help="coefficient precision exponent")
    parser.add_argument("--K", type=int, help="series truncation order")
    parser.add_argument("--seed", type=int, help="seed for generated data")
    parser.add_argument("--json", dest="json_payload", help="inline JSON payload")
    parser.add_argument("--input", help="path to a JSON payload file")
    parser.add_argument("--output", help="write the result here instead of stdout")
    parser.add_argument("--jobs", help="path to a JSON batch of jobs")
    return parser


def _load_payload(args):
    if args.json_payload is not None:
        text = args.json_payload
    elif args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read --input: {exc}")
    elif not sys.stdin.isatty():
        text = sys.stdin.read()
        if not text.strip():
            return {}
    else:
        return {}
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"payload is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise InputError("payload must be a JSON object")
    return payload


def _resolve_ctx(args, payload):
    base = payload.get("ctx")
    if base is not None and not isinstance(base, dict):
        raise InputError("ctx must be an object with p, N, K")
    fields = dict(base) if base else {}
    for name in ("p", "N", "K"):
        flag = getattr(args, name)
        if flag is not None:
            fields[name] = flag
    if not fields:
        return None
    missing = [name for name in ("p", "N", "K") if name not in fields]
    if missing:
        raise InputError(f"context incomplete: missing {', '.join(missing)}")
    try:
        return PrimeContext.from_json(fields)
    except PadicDynError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad context: {exc}")


def _need(payload, key):
    if key not in payload:
        raise InputError(f"payload is missing '{key}'")
    return payload[key]


def _int_field(value, message, minimum=None):
    """The one reader of payload integers: bool, float and string values
    exit 1 with message instead of being coerced."""
    if type(value) is not int or (minimum is not None and value < minimum):
        raise InputError(message)
    return value


def _series_ctx(spec, ambient):
    embedded = None
    if isinstance(spec, dict) and "ctx" in spec:
        try:
            embedded = PrimeContext.from_json(spec["ctx"])
        except (TypeError, ValueError, KeyError) as exc:
            raise InputError(f"bad series ctx: {exc}")
    if embedded is not None and ambient is not None and embedded != ambient:
        raise InputError("series ctx disagrees with the ambient context")
    ctx = embedded or ambient
    if ctx is None:
        raise InputError("no context: give --p/--N/--K or embed ctx in the series")
    return ctx


def _series_from_spec(spec, ambient, default_ring=RING_INTEGRAL):
    if isinstance(spec, list):
        spec = {"coeffs": spec}
    if not isinstance(spec, dict):
        raise InputError("series must be an object or a coefficient list")
    ctx = _series_ctx(spec, ambient)
    ring = spec.get("ring", default_ring)
    if ring not in RINGS:
        raise InputError(f"unknown ring '{ring}'")
    if "binom" in spec:
        exponent = _int_field(spec["binom"], "binom exponent must be an integer")
        from .oracle import gm_endomorphism

        series = gm_endomorphism(ctx, exponent)
        if ring == RING_RESIDUE:
            series = series.reduce_mod_p()
        elif ring == RING_FLOAT:
            series = series.to_float()
    elif "coeffs" in spec:
        raw = spec["coeffs"]
        if not isinstance(raw, list):
            raise InputError("coeffs must be a list")
        try:
            series = PowerSeries.from_json(
                {"ring": ring, "coeffs": raw}, ctx=ctx
            )
        except (TypeError, ValueError, KeyError) as exc:
            raise InputError(f"bad coefficients: {exc}")
    else:
        raise InputError("series needs 'coeffs' or 'binom'")
    n = spec.get("iterate")
    if n is not None:
        series = series.iterate(
            _int_field(n, "iterate must be a nonnegative integer", 0))
    if spec.get("minus_x"):
        series = series - PowerSeries.identity(ctx, series.ring)
    return series


def _scalar_from_spec(spec, ctx):
    if isinstance(spec, bool):
        raise InputError("scalar must be a number, 'zeta', 'a/b', or a padic object")
    if isinstance(spec, int):
        return spec
    if isinstance(spec, str):
        if spec == "zeta":
            return primitive_torsion_root(ctx)
        try:
            return Fraction(spec)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"cannot read scalar '{spec}'")
    if isinstance(spec, dict):
        try:
            return PadicNumber.from_json(ctx, spec)
        except (TypeError, ValueError, KeyError) as exc:
            raise InputError(f"bad padic scalar: {exc}")
    raise InputError("scalar must be a number, 'zeta', 'a/b', or a padic object")


def _fraction_pairs(entries):
    return [[str(lam), count] for lam, count in entries]


def _cmd_polygon(ctx, payload, args):
    series = _series_from_spec(_need(payload, "series"), ctx)
    poly = newton_polygon(series)
    neg = negative_part(poly)
    multiset = root_valuations(series)
    return {
        "full": poly.to_json()["vertices"],
        "vertices": neg.to_json()["vertices"],
        "root_valuations": _fraction_pairs(multiset.entries),
        "ascii": render_ascii(neg),
    }


def _cmd_wideg(ctx, payload, args):
    series = _series_from_spec(_need(payload, "series"), ctx,
                               default_ring=RING_RESIDUE)
    d = weierstrass_degree(series)
    return {
        "wideg": exponent_to_json(d),
        "truncation": series.ctx.K,
    }


def _cmd_wprep(ctx, payload, args):
    series = _series_from_spec(_need(payload, "series"), ctx)
    return weierstrass_preparation(series).to_json()


def _cmd_linearize(ctx, payload, args):
    series = _series_from_spec(_need(payload, "series"), ctx)
    return linearize(series).to_json()


def _cmd_commutant(ctx, payload, args):
    series = _series_from_spec(_need(payload, "f"), ctx)
    scalar = _scalar_from_spec(_need(payload, "a"), series.ctx)
    return {"series": commutant(series, scalar).to_json()}


def _cmd_torsion_check(ctx, payload, args):
    f = _series_from_spec(_need(payload, "f"), ctx)
    u = payload.get("u")
    if u is not None:
        u = _series_from_spec(u, ctx)
    margin = _int_field(payload.get("min_output_precision", 8),
                        "min_output_precision must be a positive integer", 1)
    return certify_torsion(f, u, min_output_precision=margin).to_json()


def _cmd_ramification(ctx, payload, args):
    omega = _series_from_spec(_need(payload, "omega"), ctx,
                              default_ring=RING_RESIDUE)
    n_max = _int_field(payload.get("n_max", 2),
                       "n_max must be a nonnegative integer", 0)
    return lower_ramification(omega, n_max=n_max).to_json()


def _cmd_order(ctx, payload, args):
    omega = _series_from_spec(_need(payload, "omega"), ctx,
                              default_ring=RING_RESIDUE)
    d_max = _int_field(payload.get("d_max", 4),
                       "d_max must be a nonnegative integer", 0)
    if omega.linear == 1:
        result = nottingham_order(omega, d_max=d_max)
        kind = "nottingham"
    else:
        result = g0_order(omega, d_max=d_max)
        kind = "g0"
    out = result.to_json()
    out["kind"] = kind
    return out


def _cmd_normalizer(ctx, payload, args):
    theta = _series_from_spec(_need(payload, "theta"), ctx,
                              default_ring=RING_RESIDUE)
    omega = _series_from_spec(_need(payload, "omega"), ctx,
                              default_ring=RING_RESIDUE)
    m = _int_field(payload.get("m", 3), "m must be a positive integer", 1)
    return normalizer_witness(theta, omega, m=m).to_json()


def _cmd_lambda_check(ctx, payload, args):
    f = _series_from_spec(_need(payload, "f"), ctx)
    u = _series_from_spec(_need(payload, "u"), ctx)
    n = _int_field(_need(payload, "n"), "n must be an integer")
    delta = payload.get("delta")
    if delta is not None:
        delta = _int_field(delta, "delta must be an integer")
    return compare_root_polygons(f, u, n, delta=delta).to_json()


def _cmd_gen_pair(ctx, payload, args):
    if ctx is None:
        raise InputError("gen-pair needs a context: --p/--N/--K or ctx in payload")
    kind = payload.get("kind", "gm")
    if kind == "gm":
        f, u = gm_minimal_pair(ctx)
        provenance = {"kind": "gm"}
    elif kind == "lt":
        f, u = lt_minimal_pair(ctx)
        provenance = {"kind": "lt"}
    elif kind == "conjugated":
        seed = payload.get("seed", args.seed)
        seed = _int_field(0 if seed is None else seed, "seed must be an integer")
        h = seeded_conjugator(ctx, seed)
        f, u = conjugate_pair(*gm_minimal_pair(ctx), h)
        provenance = {"kind": "conjugated", "seed": seed}
    else:
        raise InputError(f"unknown pair kind '{kind}'")
    return {"f": f.to_json(), "u": u.to_json(), "provenance": provenance}


def _cmd_validate_pair(ctx, payload, args):
    f = _series_from_spec(_need(payload, "f"), ctx)
    u = _series_from_spec(_need(payload, "u"), ctx)
    mod = payload.get("commute_mod")
    if mod is not None:
        mod = _int_field(mod, "commute_mod must be an integer")
    return validate_minimal_pair(f, u, commute_mod=mod).to_json()


def _cmd_zp_iterate(ctx, payload, args):
    omega = _series_from_spec(_need(payload, "omega"), ctx,
                              default_ring=RING_RESIDUE)
    message = "a must be an integer and m a nonnegative integer"
    a = _int_field(_need(payload, "a"), message)
    m = _int_field(_need(payload, "m"), message, 0)
    result = zp_iterate(omega, a, m)
    pm = omega.ctx.p ** m
    return {"series": result.to_json(), "a_mod": a % pm, "m": m}


HANDLERS = {
    "polygon": _cmd_polygon,
    "wideg": _cmd_wideg,
    "wprep": _cmd_wprep,
    "linearize": _cmd_linearize,
    "commutant": _cmd_commutant,
    "torsion-check": _cmd_torsion_check,
    "ramification": _cmd_ramification,
    "order": _cmd_order,
    "normalizer": _cmd_normalizer,
    "lambda-check": _cmd_lambda_check,
    "gen-pair": _cmd_gen_pair,
    "validate-pair": _cmd_validate_pair,
    "zp-iterate": _cmd_zp_iterate,
}


def _run_one(command, ctx, payload, args):
    handler = HANDLERS.get(command)
    if handler is None:
        raise InputError(f"unknown command '{command}'; expected one of: "
                         + ", ".join(COMMANDS))
    return handler(ctx, payload, args)


def _job_entry(job, args):
    try:
        if not isinstance(job, dict):
            raise InputError("each job must be an object")
        command = job.get("command")
        if not isinstance(command, str):
            raise InputError("job is missing 'command'")
        payload = job.get("inputs", {})
        if not isinstance(payload, dict):
            raise InputError("job 'inputs' must be an object")
        if "ctx" in job:
            payload = dict(payload)
            payload["ctx"] = job["ctx"]
        ctx = _resolve_ctx(args, payload)
        result = _run_one(command, ctx, payload, args)
        return {"ok": True, "result": result}, 0
    except InputError as exc:
        return {"error": {"code": "input", "message": str(exc)}, "ok": False}, 1
    except PadicDynError as exc:
        return {"error": {"code": exc.code, "message": str(exc)}, "ok": False}, 2
    except Exception as exc:  # noqa: BLE001 - batch entries must not kill the batch
        return {
            "error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"},
            "ok": False,
        }, 2


def _run_jobs(args):
    try:
        with open(args.jobs, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read --jobs: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"jobs file is not valid JSON: {exc}")
    if isinstance(spec, dict):
        jobs = spec.get("jobs")
    else:
        jobs = spec
    if not isinstance(jobs, list):
        raise InputError("jobs file must be a list or {'jobs': [...]}")
    if not jobs:
        return {"results": []}, 0
    with ThreadPoolExecutor(max_workers=min(8, len(jobs))) as pool:
        outcomes = list(pool.map(lambda job: _job_entry(job, args), jobs))
    results = [entry for entry, _ in outcomes]
    code = max(code for _, code in outcomes)
    return {"results": results}, code


def _emit(obj, args):
    text = json.dumps(obj, sort_keys=True) + "\n"
    if args is not None and args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if args.jobs is not None:
            if args.command is not None:
                raise InputError("give a command or --jobs, not both")
            result, code = _run_jobs(args)
            _emit(result, args)
            return code
        if args.command is None:
            raise InputError("no command given; expected one of: "
                             + ", ".join(COMMANDS))
        payload = _load_payload(args)
        ctx = _resolve_ctx(args, payload)
        result = _run_one(args.command, ctx, payload, args)
        _emit(result, args)
        return 0
    except InputError as exc:
        _emit({"error": {"code": "input", "message": str(exc)}}, args)
        return 1
    except PadicDynError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}}, args)
        return 2
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        _emit({"error": {"code": "internal",
                         "message": f"{type(exc).__name__}: {exc}"}}, args)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
