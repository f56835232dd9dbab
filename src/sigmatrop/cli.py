"""Batch command-line front end.

One JSON job per invocation: {"version": 1, "command": ..., "payload": ...}.
Commands: trop, sigma, group, dyn, h2, amoeba.  Results are canonical JSON
(sorted keys, two-space indent, ASCII escapes: the same bytes as
json.dumps(..., sort_keys=True, indent=2)), so identical jobs produce
byte-identical documents; exact rationals travel as "num/den" strings.

Exit codes: 0 success, 1 error (a malformed command line included), 2 result
is (partly) undecided, 3 schema violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

import jsonschema

from . import __version__
from .dynamics import (INF, PushMap, check_angle_bound, compose_gsh_check, gsh,
                       lambda_of_push_estimate, norm, sigma_of_push)
from .halfplane import (verify_infinity_obstruction_A, verify_push_B,
                        verify_support_at_zero_A, verify_zero_obstruction_B)
from .polyhedra import RAY_RANK_LIMIT, Polyhedron, PolyhedralSet, SphericalSet
from .rings import GF, QQ, ZZ, Character, Domain, LaurentPoly
from .sigma import (CyclicModule, MatrixAction, ScalarAction, SigmaResult,
                    fpm_basis, fpm_test, metabelian_fp, metabelian_fp_infinity,
                    sigma_of_module)
from .tropical import (ValuedPoly, amoeba_sample, global_tropical_Z,
                       log_limit_directions, trop_hypersurface, trop_prevariety)
from .valuations import (PAdicValuation, TableValuation, TrivialValuation,
                         UnknownCoefficientError)

# ---------------------------------------------------------------------------
# JSON schema.

_FRAC = {"type": ["string", "integer"]}
_POS_INT = {"type": "integer", "minimum": 1}
_NONNEG_INT = {"type": "integer", "minimum": 0}
_POLY = {
    "type": "object",
    "properties": {
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "exp": {"type": "array", "items": {"type": "integer"}},
                    "coef": _FRAC,
                },
                "required": ["exp", "coef"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["terms"],
    "additionalProperties": False,
}
_DOMAIN = {
    "oneOf": [
        {"enum": ["Z", "Q"]},
        {"type": "object", "properties": {"GF": {"type": "integer"}},
         "required": ["GF"], "additionalProperties": False},
    ]
}
_VALUATION = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["trivial", "p-adic", "global-z", "table"]},
        "p": {"type": "integer"},
        "entries": {"type": "array", "items": {
            "type": "object",
            "properties": {"value": _FRAC, "val": _FRAC},
            "required": ["value", "val"], "additionalProperties": False}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}


def _mode_is(mode):
    return {"properties": {"mode": {"const": mode}}, "required": ["mode"]}


_MODULE = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["scalar", "matrix", "cyclic"]},
        "rhos": {"type": "array", "items": _FRAC},
        "mats": {"type": "array",
                 "items": {"type": "array",
                           "items": {"type": "array", "items": _FRAC}}},
        "generators": {"type": "array"},
        "rank": _POS_INT,
        "domain": _DOMAIN,
    },
    "required": ["mode"],
    "additionalProperties": False,
    # the keys each mode reads, and the shape of its generators
    "allOf": [
        {"if": _mode_is("scalar"), "then": {"required": ["rhos"]}},
        {"if": _mode_is("matrix"),
         "then": {"required": ["mats", "generators"],
                  "properties": {"generators": {
                      "items": {"type": "array", "items": _FRAC}}}}},
        {"if": _mode_is("cyclic"),
         "then": {"required": ["rank"],
                  "properties": {"generators": {"items": _POLY}}}},
    ],
}

JOB_SCHEMA = {
    "type": "object",
    "properties": {
        "version": {"const": 1},
        "command": {"enum": ["trop", "sigma", "group", "dyn", "h2", "amoeba"]},
        "payload": {"type": "object"},
    },
    "required": ["version", "command", "payload"],
    "additionalProperties": False,
}

PAYLOAD_SCHEMAS = {
    "trop": {
        "type": "object",
        "properties": {
            "rank": _POS_INT,
            "domain": _DOMAIN,
            "generators": {"type": "array", "items": _POLY, "minItems": 1},
            "valuation": _VALUATION,
        },
        "required": ["rank", "generators", "valuation"],
        "additionalProperties": False,
    },
    "sigma": {
        "type": "object",
        "properties": {"module": _MODULE, "box": _POS_INT, "coeff_bound": _POS_INT},
        "required": ["module"],
        "additionalProperties": False,
    },
    "group": {
        "type": "object",
        "properties": {"module": _MODULE, "fpm": {"type": "array", "items": _POS_INT},
                       "box": _POS_INT, "coeff_bound": _POS_INT},
        "required": ["module"],
        "additionalProperties": False,
    },
    "dyn": {
        "type": "object",
        "properties": {
            "rank": _POS_INT,
            "matrix": {"type": "array",
                       "items": {"type": "array", "items": _POLY}},
            "chi": {"type": "array", "items": _FRAC},
            "start": {"type": "array", "items": _POLY},
            "iters": _POS_INT,
            "powers": _POS_INT,
        },
        "required": ["rank", "matrix"],
        "additionalProperties": False,
    },
    "h2": {
        "type": "object",
        "properties": {
            "p": {"type": "integer", "minimum": 2},
            "support_at_zero": {
                "type": "object",
                "properties": {"k": _NONNEG_INT, "j_max": _NONNEG_INT},
                "required": ["k", "j_max"], "additionalProperties": False},
            "infinity_obstruction": {
                "type": "object",
                "properties": {"q": _FRAC, "coeff_bound": _POS_INT, "k_max": _POS_INT},
                "required": ["q", "coeff_bound", "k_max"],
                "additionalProperties": False},
            "push": {"type": "object", "properties": {},
                     "additionalProperties": False},
            "zero_obstruction": {
                "type": "object",
                "properties": {"q": _FRAC, "coeff_bound": _POS_INT,
                               "size_bound": _POS_INT, "k_max": _NONNEG_INT,
                               "module": {"enum": ["A", "B"]}},
                "required": ["q", "coeff_bound", "size_bound"],
                "additionalProperties": False},
        },
        "required": ["p"],
        "additionalProperties": False,
    },
    "amoeba": {
        "type": "object",
        "properties": {
            "poly": _POLY,
            "s_grid": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            "angles": _POS_INT,
            "min_radius": {"type": "number"},
            "angle_bins": _POS_INT,
        },
        "required": ["poly", "s_grid", "angles"],
        "additionalProperties": False,
    },
}


class SchemaError(ValueError):
    pass


def _finite_number(checker, instance) -> bool:
    """The schemas' "number": json.loads also reads NaN, Infinity and
    -Infinity, which are not numbers a job can compute with."""
    if isinstance(instance, bool) or not isinstance(instance, numbers.Number):
        return False
    return not isinstance(instance, float) or math.isfinite(instance)


@functools.cache
def _validator(command):
    """Checked and compiled validator for a command's payload schema (the job
    envelope's for None), built on first use."""
    schema = JOB_SCHEMA if command is None else PAYLOAD_SCHEMAS[command]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    checker = cls.TYPE_CHECKER.redefine("number", _finite_number)
    return jsonschema.validators.extend(cls, type_checker=checker)(schema)


def _validate(instance, command):
    """jsonschema.validate against a compiled validator: raises the same best
    match ValidationError."""
    error = jsonschema.exceptions.best_match(_validator(command).iter_errors(instance))
    if error is not None:
        raise error


# ---------------------------------------------------------------------------
# Exact <-> JSON helpers.


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_frac(x) -> Fraction:
    """An int or a rational string; any other string, "1/0" too, is a
    SchemaError."""
    try:
        return Fraction(x) if isinstance(x, int) else Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"{x!r} is not a rational number") from None


def parse_domain(obj) -> Domain:
    if obj in (None, "Z"):
        return ZZ
    if obj == "Q":
        return QQ
    try:
        return GF(int(obj["GF"]))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def parse_poly(obj, rank: int, domain: Domain) -> LaurentPoly:
    terms = {}
    for t in obj["terms"]:
        exp = tuple(int(e) for e in t["exp"])
        if len(exp) != rank:
            raise SchemaError(f"exponent {list(exp)} has length {len(exp)}, "
                              f"not the rank {rank}")
        coef = parse_frac(t["coef"])
        terms[exp] = terms.get(exp, 0) + coef
    return LaurentPoly(rank, domain, terms)


def poly_json(f: LaurentPoly) -> dict:
    return {"terms": [{"exp": list(g), "coef": frac_str(c)}
                      for g, c in sorted(f.terms.items())]}


def parse_valuation(obj):
    kind = obj["kind"]
    if kind == "trivial":
        return TrivialValuation()
    if kind == "p-adic":
        if "p" not in obj:
            raise SchemaError("p-adic valuation needs p")
        build, arg = PAdicValuation, int(obj["p"])
    elif kind == "table":
        build, arg = TableValuation.from_dict, {
            parse_frac(e["value"]): (math.inf if e["val"] == "inf"
                                     else parse_frac(e["val"]))
            for e in obj.get("entries", [])}
    else:
        return kind  # "global-z" handled by the caller
    try:
        return build(arg)
    except ValueError as exc:  # p is not a prime, or the table is no valuation
        raise SchemaError(str(exc)) from None


def piece_json(p: Polyhedron) -> dict:
    def rows(group):
        return [{"normal": list(v), "rhs": r} for v, r in group]
    return {"eq": rows(p.eq), "ge": rows(p.ge), "gt": rows(p.gt),
            "empty": bool(p.is_empty)}


def fan_json(fan: PolyhedralSet) -> dict:
    out = {"rank": fan.rank, "pieces": [piece_json(p) for p in fan.pieces]}
    if fan.rank <= RAY_RANK_LIMIT:
        out["spherical_rays"] = [list(d.vector) for d in fan.spherical_rays()]
    return out


def spherical_json(s: SphericalSet) -> dict:
    out = {"rank": s.rank, "pieces": [piece_json(p) for p in s.pieces],
           "empty": bool(s.is_empty)}
    fd = s.finite_directions() if s.rank <= RAY_RANK_LIMIT else None
    if fd is not None:
        out["directions"] = [list(d.vector) for d in fd]
    return out


def sigma_json(r: SigmaResult) -> dict:
    return {
        "rank": r.rank,
        "proved_sigma": spherical_json(r.proved_sigma),
        "proved_complement": spherical_json(r.proved_complement),
        "undecided": spherical_json(r.undecided),
        "certificates": [{"cone": piece_json(c), "poly": poly_json(lam)}
                         for c, lam in r.certificates],
        "witnesses": [{"direction": list(w.direction.vector), "kind": w.kind,
                       "prime": w.prime,
                       "vector": [frac_str(x) for x in w.vector]}
                      for w in r.witnesses],
        "outer_bound": (fan_json(r.complement_outer_bound)
                        if r.complement_outer_bound is not None else None),
        "notes": list(r.notes),
    }


def tri_json(value) -> object:
    return "undecided" if value is None else bool(value)


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (result dict, undecided flag, plot payload).


def _run_trop(payload):
    rank = payload["rank"]
    domain = parse_domain(payload.get("domain"))
    polys = [parse_poly(p, rank, domain) for p in payload["generators"]]
    val = parse_valuation(payload["valuation"])
    unit = any(len(p.terms) == 1 for p in polys)
    if val == "global-z":
        if len(polys) != 1:
            raise SchemaError("the global variety over Z takes one generator")
        if domain != ZZ:
            raise SchemaError("the global variety over Z needs the domain Z")
        fan = global_tropical_Z(polys[0])
    else:
        try:
            fan = (trop_hypersurface(polys[0], val) if len(polys) == 1 else
                   trop_prevariety([ValuedPoly(p, val) for p in polys]))
        except UnknownCoefficientError as exc:  # a table with a prime missing
            raise SchemaError(exc.args[0]) from None
    result = {"fan": fan_json(fan), "unit_generator": unit,
              "exact": len(polys) == 1,
              "kind": "hypersurface" if len(polys) == 1 else "prevariety"}
    return result, False, ("fan", fan)


def _parse_module(obj):
    mode = obj["mode"]
    if mode == "scalar":
        return ScalarAction(tuple(parse_frac(r) for r in obj["rhos"]))
    if mode == "matrix":
        mats = [[[parse_frac(x) for x in row] for row in m] for m in obj["mats"]]
        gens = [[parse_frac(x) for x in g] for g in obj["generators"]]
        return MatrixAction.of(mats, gens)
    rank = obj["rank"]
    domain = parse_domain(obj.get("domain"))
    gens = tuple(parse_poly(p, rank, domain) for p in obj.get("generators", []))
    return CyclicModule(rank, domain, gens)


def _sigma_of_payload(payload) -> SigmaResult:
    """sigma_of_module on the payload's module, box and coeff_bound."""
    kw = {}
    if "box" in payload:
        kw["box_limit"] = payload["box"]
    if "coeff_bound" in payload:
        kw["coeff_bound"] = payload["coeff_bound"]
    return sigma_of_module(_parse_module(payload["module"]), **kw)


def _run_sigma(payload):
    result = _sigma_of_payload(payload)
    return sigma_json(result), not result.undecided.is_empty, None


def _run_group(payload):
    r = _sigma_of_payload(payload)
    fp = metabelian_fp(r)
    fpi = metabelian_fp_infinity(r)
    out = {
        "sigma": sigma_json(r),
        "finitely_presented": tri_json(fp),
        "fp_infinity": tri_json(fpi),
        "fpm": {},
    }
    undecided = fp is None or fpi is None
    for m in payload.get("fpm", []):
        val = fpm_test(r, m)
        out["fpm"][str(m)] = {"value": tri_json(val), "basis": fpm_basis(m)}
        undecided = undecided or val is None
    return out, undecided, None


def _run_dyn(payload):
    rank = payload["rank"]
    entries = [[parse_poly(e, rank, ZZ) for e in row] for row in payload["matrix"]]
    phi = PushMap.of(entries)
    result = {
        "size": phi.size,
        "norm": {"squared": frac_str(norm(phi).squared), "value": norm(phi).value},
        "positivity_cone": fan_json(sigma_of_push(phi)),
    }
    start = payload.get("start")
    vec = ([parse_poly(e, rank, ZZ) for e in start] if start
           else [LaurentPoly.one(rank)] + [LaurentPoly.zero(rank)] * (phi.size - 1))
    orbit = lambda_of_push_estimate(phi, vec, payload.get("iters", 8))
    result["orbit"] = {
        "directions": [list(d.vector) for d in orbit.directions],
        "died_out": orbit.died_out,
        "steps": orbit.steps,
    }
    if "chi" in payload:
        chi = Character(tuple(parse_frac(x) for x in payload["chi"]))
        g = gsh(phi, chi)
        result["gsh"] = "inf" if g == INF else frac_str(g)
        comp = compose_gsh_check(phi, phi, chi, payload.get("powers", 5))
        result["compose_check"] = {
            "additive_ok": comp.additive_ok,
            "power_ok": comp.power_ok,
            "passed": comp.passed,
        }
        if g != INF and g > 0 and orbit.directions:
            rep = check_angle_bound(phi, chi, orbit.directions)
            result["angle_bound"] = {
                "bound_degrees": rep.bound_degrees,
                "passed": rep.passed,
                "checks": [{"direction": list(c.direction.vector),
                            "exact": c.cos_ok_exact,
                            "within_slack": c.within_slack}
                           for c in rep.checks],
            }
    return result, False, None


def _run_h2(payload):
    p = payload["p"]
    out = {}
    if "support_at_zero" in payload:
        params = payload["support_at_zero"]
        if params["j_max"] < params["k"]:
            raise SchemaError(f"j_max {params['j_max']} is less than k {params['k']}")
        rep = verify_support_at_zero_A(p, params["k"], params["j_max"])
        out["support_at_zero"] = {
            "passed": rep.passed,
            "strictly_increasing": rep.strictly_increasing,
            "rows": [{"j": j, "epsilon_ok": ok, "busemann_arg": frac_str(a)}
                     for j, ok, a in rep.rows],
        }
    if "infinity_obstruction" in payload:
        params = payload["infinity_obstruction"]
        rep = verify_infinity_obstruction_A(p, parse_frac(params["q"]),
                                            params["coeff_bound"], params["k_max"])
        out["infinity_obstruction"] = {
            "passed": rep.passed,
            "symbolic_applies": rep.symbolic_applies,
            "symbolic_pass": rep.symbolic_pass,
            "candidates_checked": rep.candidates_checked,
            "witness": list(rep.witness) if rep.witness else None,
            "note": rep.note,
        }
    if "push" in payload:
        rep = verify_push_B(p)
        out["push"] = {
            "passed": rep.passed,
            "epsilon_preserved": rep.epsilon_preserved,
            "shift_arg_ratio": frac_str(rep.shift_arg_ratio),
            "shift_value": rep.shift_value,
        }
    if "zero_obstruction" in payload:
        params = payload["zero_obstruction"]
        rep = verify_zero_obstruction_B(
            p, parse_frac(params["q"]), params["coeff_bound"], params["size_bound"],
            k_max=params.get("k_max", 2), module=params.get("module", "B"))
        out["zero_obstruction"] = {
            "passed": rep.passed,
            "module": rep.module,
            "qualifying_elements": rep.qualifying_elements,
            "combinations_checked": rep.combinations_checked,
            "witness_found": rep.witness is not None,
        }
    return out, False, None


def _run_amoeba(payload):
    poly = parse_poly(payload["poly"], 2, QQ)
    s_grid = [float(s) for s in payload["s_grid"]]
    cloud = amoeba_sample(poly, s_grid, payload["angles"])
    result = {"points": len(cloud.points), "dropped": cloud.dropped,
              "max_radius": cloud.max_radius}
    if "min_radius" in payload:
        dirs = log_limit_directions(cloud, payload["min_radius"],
                                    payload.get("angle_bins", 72))
        result["limit_directions"] = {
            "no_far_points": dirs.no_far_points,
            "directions": [{"dir": [dx, dy], "count": c}
                           for (dx, dy), c in dirs.directions],
        }
    return result, False, ("cloud", cloud)


HANDLERS = {
    "trop": _run_trop,
    "sigma": _run_sigma,
    "group": _run_group,
    "dyn": _run_dyn,
    "h2": _run_h2,
    "amoeba": _run_amoeba,
}


# ---------------------------------------------------------------------------
# Plot emission.


def emit_plot_data(kind, obj, plot_dir: Path) -> list[str]:
    plot_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if kind == "fan":
        if obj.rank > 3:
            raise ValueError("plot emission supports fans of rank <= 3 only")
        rays = obj.spherical_rays()
        header = ",".join(f"dir_{ax}" for ax in "xyz"[: obj.rank])
        lines = [header]
        for d in rays:
            n = math.sqrt(sum(x * x for x in d.vector))
            lines.append(",".join(f"{x / n:.12f}" for x in d.vector))
        path = plot_dir / "rays.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(str(path))
    elif kind == "cloud":
        lines = ["s,ln_abs_y"]
        for s, lny in obj.points:
            lines.append(f"{s:.12f},{lny:.12f}")
        path = plot_dir / "cloud.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(str(path))
    return written


# ---------------------------------------------------------------------------
# Entry points.


def run(job: dict, bound_escalation: int | None = None) -> dict:
    """Validate and dispatch one job document; returns the result document."""
    try:
        _validate(job, None)
        payload = dict(job["payload"])
        if bound_escalation is not None and job["command"] in ("sigma", "group"):
            # before validation, so an escalated box meets the payload's minimum
            payload.setdefault("box", bound_escalation)
        _validate(payload, job["command"])
    except jsonschema.ValidationError as exc:
        raise SchemaError(exc.message) from exc
    result, undecided, plot = HANDLERS[job["command"]](payload)
    return {
        "version": 1,
        "job": job,
        "result": result,
        "undecided": undecided,
        "provenance": {
            "tool": "sigmatrop",
            "tool_version": __version__,
            "deterministic_order": True,
        },
        "_plot": plot,
    }


def canonical_json(doc: dict) -> str:
    """The result document without its "_" keys, as the text
    json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n".

    Hand-written because json.dumps uses its C encoder only when indent is
    None: with indent=2 it runs its pure-Python generator encoder.  This one
    appends string chunks and joins them once, with the C string escaper and
    json's int and float texts, in about half the time.  Keys must be str
    (the schema and the result builders make every key one); another key,
    or a value json.dumps rejects, raises TypeError.
    """
    out = []
    _encode({k: v for k, v in doc.items() if not k.startswith("_")}, out, "\n")
    out.append("\n")
    return "".join(out)


def _encode(o, out: list, nl: str) -> None:
    """Append the chunks of o's text to out; nl is a newline followed by the
    indentation of the line o starts on."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _encode_str(k) + ": ")
            _encode(o[k], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in o):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o))
                       + nl + "]")
            return
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _encode(x, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if o != o:
            out.append("NaN")
        elif o in (math.inf, -math.inf):
            out.append("Infinity" if o > 0 else "-Infinity")
        else:
            out.append(float.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line, as argparse's exit code 2 means undecided."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="sigmatrop",
        description="exact tropical sigma-invariant toolbox (batch mode)")
    parser.add_argument("--job", required=True, help="job JSON file")
    parser.add_argument("--out", help="result JSON file (default: stdout)")
    parser.add_argument("--plot", help="directory for CSV plot data")
    parser.add_argument("--bound-escalation", type=int, default=None,
                        help="certificate search box of a sigma or group job "
                             "whose payload gives no box")
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(json.dumps({"error": {"type": "usage", "message": str(exc)}}))
        return 1

    try:
        job = json.loads(Path(args.job).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": {"type": "input", "message": str(exc)}}))
        return 1
    try:
        doc = run(job, bound_escalation=args.bound_escalation)
        plot = doc.get("_plot")
        if args.plot and plot is not None:
            emit_plot_data(plot[0], plot[1], Path(args.plot))
        text = canonical_json(doc)
        if args.out:
            Path(args.out).write_text(text)
    except SchemaError as exc:
        print(json.dumps({"error": {"type": "schema", "message": str(exc)}}))
        return 3
    except Exception as exc:  # noqa: BLE001 - reported as a structured error
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}))
        return 1

    if not args.out:
        sys.stdout.write(text)
    return 2 if doc["undecided"] else 0


if __name__ == "__main__":
    sys.exit(main())
