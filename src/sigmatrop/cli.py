"""Batch command-line front end.

One JSON job per invocation: {"version": 1, "command": ..., "payload": ...}.
Commands: trop, sigma, group, dyn, h2, amoeba.  Results are canonical JSON,
the one line json.dumps(doc, sort_keys=True, separators=(",", ":"),
ensure_ascii=True, allow_nan=False) + "\n", so identical jobs produce
byte-identical documents; exact rationals travel as "num/den" strings.

Exit codes: 0 success, 1 error (a malformed command line included), 2 result
is (partly) undecided, 3 schema violation.  run() reads the whole job into
typed inputs before it computes: a ValueError of that step, from a reader
below or from a constructor it calls, is a SchemaError; an exception of the
computation is not.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .dynamics import (INF, PushMap, check_angle_bound, gsh, lambda_of_push_estimate,
                       norm, sigma_of_push)
from .halfplane import (verify_infinity_obstruction_A, verify_push_B,
                        verify_support_at_zero_A, verify_zero_obstruction_B)
from .polyhedra import RAY_RANK_LIMIT, Polyhedron, PolyhedralSet, SphericalSet
from .rings import GF, QQ, ZZ, Character, Domain, LaurentPoly
from .sigma import (CyclicModule, MatrixAction, ScalarAction, SigmaResult,
                    fpm_basis, fpm_test, metabelian_fp, metabelian_fp_infinity,
                    sigma_of_module)
from .tropical import (AMOEBA_ROWS, amoeba_sample, global_tropical_Z,
                       log_limit_directions, trop_hypersurface, trop_prevariety)
from .valuations import PAdicValuation, TableValuation, TrivialValuation


class SchemaError(ValueError):
    """An input the tool cannot take (exit 3)."""


# ---------------------------------------------------------------------------
# Reading.  Each reader checks one JSON value and returns it as a typed input,
# raising ValueError at the first fault; shape faults read as JSON Schema
# (2020-12) words them, where an integral float is an integer and a bool is
# not a number.


def _dict(x) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{x!r} is not of type 'object'")
    return x


def _object(x, required=(), optional=()) -> dict:
    """x as a dict with every required key and no key outside the two."""
    _dict(x)
    for key in required:
        if key not in x:
            raise ValueError(f"{key!r} is a required property")
    extra = [key for key in x if key not in required and key not in optional]
    if extra:
        raise ValueError("Additional properties are not allowed "
                         f"({', '.join(map(repr, extra))} "
                         f"{'was' if len(extra) == 1 else 'were'} unexpected)")
    return x


def _array(x, read, non_empty=False) -> list:
    """read applied to each item of the array x."""
    if not isinstance(x, list):
        raise ValueError(f"{x!r} is not of type 'array'")
    if non_empty and not x:
        raise ValueError(f"{x!r} should be non-empty")
    return [read(item) for item in x]


def _is_int(x) -> bool:
    return (isinstance(x, int) and not isinstance(x, bool)
            or isinstance(x, float) and x.is_integer())


def _int(x, minimum=None, maximum=None) -> int:
    if not _is_int(x):
        raise ValueError(f"{x!r} is not of type 'integer'")
    if minimum is not None and x < minimum:
        raise ValueError(f"{x!r} is less than the minimum of {minimum}")
    if maximum is not None and x > maximum:
        raise ValueError(f"{x!r} is greater than the maximum of {maximum}")
    return int(x)


def _number(x):
    """A finite number: json.loads also reads NaN, Infinity and -Infinity,
    which are not numbers a job can compute with."""
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or isinstance(x, float) and not math.isfinite(x)):
        raise ValueError(f"{x!r} is not of type 'number'")
    return x


def _float(x) -> float:
    """A finite number that is a float: an int past the float range is not."""
    try:
        return float(_number(x))
    except OverflowError:
        raise ValueError("an integer past the float range is not a float") from None


def _one_of(x, choices):
    choices = list(choices)
    if x not in choices:
        raise ValueError(f"{x!r} is not one of {choices!r}")
    return x


def parse_frac(x) -> Fraction:
    """An integer or a rational string; any other string, "1/0" too, is
    not a rational number."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{x!r} is not a rational number") from None
    if not _is_int(x):
        raise ValueError(f"{x!r} is not of type 'string', 'integer'")
    return Fraction(int(x))


def _fracs(x) -> list:
    return _array(x, parse_frac)


def parse_domain(x) -> Domain:
    """"Z", "Q" or {"GF": p} for a prime p."""
    if x == "Z":
        return ZZ
    if x == "Q":
        return QQ
    if isinstance(x, dict):
        return GF(_int(_object(x, ("GF",))["GF"]))
    raise ValueError(f"{x!r} is not valid under any of the given schemas")


def parse_poly(x, rank: int, domain: Domain) -> LaurentPoly:
    terms = {}
    for t in _array(_object(x, ("terms",))["terms"],
                    lambda t: _object(t, ("exp", "coef"))):
        exp = tuple(_array(t["exp"], _int))
        if len(exp) != rank:
            raise ValueError(f"exponent {list(exp)} has length {len(exp)}, "
                             f"not the rank {rank}")
        terms[exp] = terms.get(exp, 0) + parse_frac(t["coef"])
    return LaurentPoly(rank, domain, terms)


def _table_entry(x) -> tuple:
    e = _object(x, ("value", "val"))
    return parse_frac(e["value"]), INF if e["val"] == "inf" else parse_frac(e["val"])


def parse_valuation(x):
    """A valuation; "global-z" stays a name, the caller builds that variety."""
    v = _object(x, ("kind",), ("p", "entries"))
    kind = _one_of(v["kind"], ("trivial", "p-adic", "global-z", "table"))
    p = _int(v["p"]) if "p" in v else None
    entries = _array(v.get("entries", []), _table_entry)
    if kind == "trivial":
        return TrivialValuation()
    if kind == "p-adic":
        if p is None:
            raise ValueError("p-adic valuation needs p")
        return PAdicValuation(p)
    if kind == "table":
        return TableValuation(tuple(sorted(entries)))
    return kind


# the keys each module mode requires and may take, besides "mode"
_MODE_KEYS = {"scalar": (("rhos",), ()), "matrix": (("mats", "generators"), ()),
              "cyclic": (("rank",), ("generators", "domain"))}
_MODULE_KEYS = ("mode", "rhos", "mats", "generators", "rank", "domain")


def parse_module(x):
    """A scalar action, a matrix action or a cyclic presentation.  A key of
    another mode, which this mode would not read, is not allowed."""
    mode = _one_of(_object(x, ("mode",), _MODULE_KEYS)["mode"], _MODE_KEYS)
    required, optional = _MODE_KEYS[mode]
    m = _object(x, required, ("mode",) + optional)
    if mode == "scalar":
        return ScalarAction(tuple(_fracs(m["rhos"])))
    if mode == "matrix":
        return MatrixAction.of(_array(m["mats"], lambda a: _array(a, _fracs)),
                               _array(m["generators"], _fracs))
    rank = _int(m["rank"], 1)
    domain = parse_domain(m.get("domain", "Z"))
    return CyclicModule(rank, domain, tuple(
        _array(m.get("generators", []), lambda f: parse_poly(f, rank, domain))))


# ---------------------------------------------------------------------------
# Exact -> JSON.


def frac_str(x) -> str:
    return str(Fraction(x))


def poly_json(f: LaurentPoly) -> dict:
    return {"terms": [{"exp": list(g), "coef": frac_str(c)}
                      for g, c in sorted(f.terms.items())]}


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
    fd = s.finite_directions if s.rank <= RAY_RANK_LIMIT else None
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
                         for _, c, lam in r.certified],
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
# Commands.  Each reads its payload into typed inputs, then computes from
# them (result dict, undecided flag, plot payload).


def _read_trop(payload):
    obj = _object(payload, ("rank", "generators", "valuation"), ("domain",))
    rank = _int(obj["rank"], 1)
    domain = parse_domain(obj.get("domain", "Z"))
    polys = _array(obj["generators"], lambda f: parse_poly(f, rank, domain),
                   non_empty=True)
    val = parse_valuation(obj["valuation"])
    if any(f.is_zero for f in polys):
        raise ValueError("the zero polynomial has no tropical variety")
    if val == "global-z":
        if len(polys) != 1:
            raise ValueError("the global variety over Z takes one generator")
        if domain != ZZ:
            raise ValueError("the global variety over Z needs the domain Z")
    elif isinstance(val, TableValuation) and domain.kind != "GF":
        # a prime the table lacks is a read fault; over GF(p) every nonzero
        # coefficient is valued as 1
        for f in polys:
            for c in f.terms.values():
                val.value(c)
    return polys, val


def _run_trop(polys, val):
    if val == "global-z":
        fan = global_tropical_Z(polys[0])
    elif len(polys) == 1:
        fan = trop_hypersurface(polys[0], val)
    else:
        fan = trop_prevariety(polys, val)
    result = {"fan": fan_json(fan),
              "unit_generator": any(len(p.terms) == 1 for p in polys),
              "exact": len(polys) == 1,
              "kind": "hypersurface" if len(polys) == 1 else "prevariety"}
    return result, False, ("fan", fan)


def _read_sigma(payload, keys=()):
    """The module and the sigma_of_module bounds the payload gives."""
    obj = _object(payload, ("module",), ("box", "coeff_bound") + keys)
    module = parse_module(obj["module"])
    bounds = {name: _int(obj[key], 1) for key, name in
              (("box", "box_limit"), ("coeff_bound", "coeff_bound")) if key in obj}
    return module, bounds


def _run_sigma(module, bounds):
    result = sigma_of_module(module, **bounds)
    return sigma_json(result), not result.undecided.is_empty, None


def _read_group(payload):
    module, bounds = _read_sigma(payload, ("fpm",))
    return module, bounds, _array(payload.get("fpm", []), lambda m: _int(m, 1))


def _run_group(module, bounds, fpm):
    r = sigma_of_module(module, **bounds)
    fp = metabelian_fp(r)
    fpi = metabelian_fp_infinity(r)
    out = {
        "sigma": sigma_json(r),
        "finitely_presented": tri_json(fp),
        "fp_infinity": tri_json(fpi),
        "fpm": {},
    }
    undecided = fp is None or fpi is None
    for m in fpm:
        val = fpm_test(r, m)
        out["fpm"][str(m)] = {"value": tri_json(val), "basis": fpm_basis(m)}
        undecided = undecided or val is None
    return out, undecided, None


def _read_dyn(payload):
    obj = _object(payload, ("rank", "matrix"), ("chi", "start", "iters", "powers"))
    rank = _int(obj["rank"], 1)

    def poly(f):
        return parse_poly(f, rank, ZZ)

    phi = PushMap.of(_array(obj["matrix"], lambda row: _array(row, poly)))
    try:
        nrm = norm(phi)
    except OverflowError:  # the norm's float is the root of a squared length
        raise ValueError("matrix has a monomial whose squared length is past "
                         "the float range") from None
    start = _array(obj.get("start", []), poly)
    if start and len(start) != phi.size:
        raise ValueError(f"start has length {len(start)}, not the matrix size {phi.size}")
    chi = Character(tuple(_fracs(obj["chi"]))) if "chi" in obj else None
    if chi is not None and chi.rank != rank:
        raise ValueError(f"chi has length {chi.rank}, not the rank {rank}")
    vec = start or [LaurentPoly.one(rank)] + [LaurentPoly.zero(rank)] * (phi.size - 1)
    # iters at most 32 bounds the number of steps, not their cost: an
    # iterate has up to about (iters * width)^rank monomials per entry, and
    # no maximum here bounds the rank, size or spread of the matrix.  With
    # Python 3.11 on a 2-core host, a 3 x 3 rank-2 matrix of two-term
    # entries with exponents in [-1, 1] takes 0.26 s at iters 32, and a
    # 3 x 3 rank-3 matrix of three-term entries with exponents in [-2, 2]
    # takes 0.19 / 1.5 / 5.6 s at iters 8 / 12 / 16
    iters = _int(obj.get("iters", 8), 1, 32)
    # `powers` is read and range-checked but changes no output byte: the
    # compose check it sized is a theorem (see `_run_dyn`)
    _int(obj.get("powers", 5), 1, 20)
    return phi, nrm, vec, chi, iters


def _run_dyn(phi, nrm, vec, chi, iters):
    result = {
        "size": phi.size,
        "norm": {"squared": frac_str(nrm.squared), "value": nrm.value},
        "positivity_cone": fan_json(sigma_of_push(phi)),
    }
    orbit = lambda_of_push_estimate(phi, vec, iters)
    result["orbit"] = {
        "directions": [list(d.vector) for d in orbit.directions],
        "died_out": orbit.died_out,
        "steps": orbit.steps,
    }
    if chi is not None:
        g = gsh(phi, chi)
        result["gsh"] = "inf" if g == INF else frac_str(g)
        # supports add under products, so gsh(phi psi) >= gsh(phi) + gsh(psi)
        # and gsh(phi^k) >= k gsh(phi) for every map: see `dynamics`
        result["compose_check"] = {"additive_ok": True, "power_ok": True, "passed": True}
        if g != INF and g > 0 and orbit.directions:
            rep = check_angle_bound(chi, g, nrm.squared, orbit.directions)
            result["angle_bound"] = {
                "bound_degrees": rep.bound_degrees,
                "passed": rep.passed,
                "checks": [{"direction": list(c.direction.vector),
                            "exact": c.cos_ok_exact,
                            "within_slack": c.within_slack}
                           for c in rep.checks],
            }
    return result, False, None


def _read_h2(payload):
    """p and the arguments of each verifier the payload asks for."""
    obj = _object(payload, ("p",), ("support_at_zero", "infinity_obstruction",
                                    "push", "zero_obstruction"))
    p = _int(obj["p"], 2, 10 ** 6)
    checks = {}
    if "support_at_zero" in obj:
        # row j prints p^(2j), which keeps j_max 300 under 3,600 digits
        # (str() refuses integers past 4,300) and the answer under 0.6 MB
        params = _object(obj["support_at_zero"], ("k", "j_max"))
        k, j_max = _int(params["k"], 0), _int(params["j_max"], 0, 300)
        if j_max < k:
            raise ValueError(f"j_max {j_max} is less than k {k}")
        checks["support_at_zero"] = k, j_max
    # the obstructions print the size of the family their certificate
    # covers, (2 coeff_bound + 1)^k_max and up to C(n, size_bound)
    # (2 coeff_bound)^size_bound for n elements that grow with k_max: these
    # maxima keep each count under 600,000 (9^6 = 531,441 candidates, and
    # at most 554,400 combinations of 132 elements), where unbounded ones
    # could pass the 4,300 digits str() prints
    if "infinity_obstruction" in obj:
        params = _object(obj["infinity_obstruction"], ("q", "coeff_bound", "k_max"))
        checks["infinity_obstruction"] = (parse_frac(params["q"]),
                                          _int(params["coeff_bound"], 1, 4),
                                          _int(params["k_max"], 1, 6))
    if "push" in obj:
        _object(obj["push"])  # takes no keys
        checks["push"] = ()
    if "zero_obstruction" in obj:
        params = _object(obj["zero_obstruction"], ("q", "coeff_bound", "size_bound"),
                         ("k_max",))
        checks["zero_obstruction"] = (
            parse_frac(params["q"]), _int(params["coeff_bound"], 1, 4),
            _int(params["size_bound"], 1, 2), _int(params.get("k_max", 2), 0, 4))
    return p, checks


def _run_h2(p, checks):
    out = {}
    if "support_at_zero" in checks:
        rep = verify_support_at_zero_A(p, *checks["support_at_zero"])
        out["support_at_zero"] = {
            "passed": rep.passed,
            "strictly_increasing": rep.strictly_increasing,
            "rows": [{"j": j, "epsilon_ok": ok, "busemann_arg": frac_str(a)}
                     for j, ok, a in rep.rows],
        }
    if "infinity_obstruction" in checks:
        rep = verify_infinity_obstruction_A(p, *checks["infinity_obstruction"])
        out["infinity_obstruction"] = {
            "passed": rep.passed,
            "symbolic_applies": rep.symbolic_applies,
            "symbolic_pass": rep.symbolic_pass,
            "candidates_checked": rep.candidates_checked,
            "witness": ([[k, m] for k, m in sorted(rep.witness.items())]
                        if rep.witness else None),
            "note": rep.note,
        }
    if "push" in checks:
        rep = verify_push_B(p)
        out["push"] = {
            "passed": rep.passed,
            "epsilon_preserved": rep.epsilon_preserved,
            "shift_arg_ratio": frac_str(rep.shift_arg_ratio),
            "shift_value": rep.shift_value,
        }
    if "zero_obstruction" in checks:
        q, coeff_bound, size_bound, k_max = checks["zero_obstruction"]
        rep = verify_zero_obstruction_B(p, q, coeff_bound, size_bound, k_max=k_max)
        out["zero_obstruction"] = {
            "passed": rep.passed,
            "module": "B",
            "qualifying_elements": rep.qualifying_elements,
            "combinations_checked": rep.combinations_checked,
            "witness_found": rep.witness is not None,
        }
    return out, False, None


# angle_bins runs from 2, where no bin is wide enough for its far directions
# to cancel, to the most at which every bin index is an exact float
MAX_ANGLE_BINS = 2 ** 53


def _read_amoeba(payload):
    obj = _object(payload, ("poly", "s_grid", "angles"), ("min_radius", "angle_bins"))
    poly = parse_poly(obj["poly"], 2, QQ)
    if len({g[1] for g in poly.terms}) < 2:
        raise ValueError("the polynomial has no roots in y to follow")
    s_grid = _array(obj["s_grid"], _float, non_empty=True)
    # x = e^(s + i phi) and each term |c| e^(a s) must be floats; either may
    # underflow, and each is largest at an end of the grid
    for a, c in [(1, 1), *((a, c) for (a, _), c in poly.terms.items())]:
        s = max(s_grid) if a > 0 else min(s_grid)
        try:
            fits = math.isfinite(abs(float(c)) * math.exp(a * s))
        except OverflowError:
            fits = False
        if not fits:
            raise ValueError(f"the term {c}*x^{a} leaves the float range at s = {s!r}")
    min_radius = _float(obj["min_radius"]) if "min_radius" in obj else None
    return (poly, s_grid, _int(obj["angles"], 1, AMOEBA_ROWS), min_radius,
            _int(obj.get("angle_bins", 72), 2, MAX_ANGLE_BINS))


def _run_amoeba(poly, s_grid, angles, min_radius, angle_bins):
    cloud = amoeba_sample(poly, s_grid, angles)
    # 12 decimals, as cloud.csv writes: a last-bit change moves no byte
    result = {"points": cloud.count, "dropped": cloud.dropped,
              "max_radius": round(cloud.max_radius, 12)}
    if min_radius is not None:
        dirs = log_limit_directions(cloud, min_radius, angle_bins)
        result["limit_directions"] = {
            "no_far_points": dirs.no_far_points,
            # + 0.0 turns a -0.0, whose sign is rounding noise, into 0.0
            "directions": [{"dir": [round(dx, 12) + 0.0, round(dy, 12) + 0.0],
                            "count": c}
                           for (dx, dy), c in dirs.directions],
        }
    return result, False, ("cloud", cloud)


COMMANDS = {
    "trop": (_read_trop, _run_trop),
    "sigma": (_read_sigma, _run_sigma),
    "group": (_read_group, _run_group),
    "dyn": (_read_dyn, _run_dyn),
    "h2": (_read_h2, _run_h2),
    "amoeba": (_read_amoeba, _run_amoeba),
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
        for s, lny in obj.grid_points().tolist():
            lines.append(f"{s:.12f},{lny:.12f}")
        path = plot_dir / "cloud.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(str(path))
    return written


# ---------------------------------------------------------------------------
# Entry points.


def run(job: dict) -> dict:
    """Read one job document, then compute its result document.  Every
    ValueError of the read step is a SchemaError; the compute step's
    exceptions pass through."""
    try:
        obj = _object(job, ("version", "command", "payload"))
        if not _is_int(obj["version"]) or obj["version"] != 1:
            raise ValueError("1 was expected")
        read, compute = COMMANDS[_one_of(obj["command"], COMMANDS)]
        inputs = read(_dict(obj["payload"]))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    result, undecided, plot = compute(*inputs)
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
    json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
    allow_nan=False) + "\n": one line, from json's C encoder.  A value json
    cannot write raises TypeError, and a NaN or infinite float ValueError."""
    return json.dumps({k: v for k, v in doc.items() if not k.startswith("_")},
                      sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False) + "\n"


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
        doc = run(job)
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
