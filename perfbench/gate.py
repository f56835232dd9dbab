"""Answer gate: checks every job result with plain integer and Fraction
arithmetic, independently of the program's own set algebra.

All checks read the canonical JSON the CLI would print, and none depends on
how a set is split into pieces: a set is only ever asked whether it
contains a point.  Two kinds of check run:

* oracles, on every seed: facts the benchmark derives from the job's inputs
  alone (p-adic value vectors of scalar ratios, Newton-polygon normals,
  "the minimum is attained twice", shift and norm of a push map, the
  half-plane verifiers' theorems), plus the sigma / complement / undecided
  partition of a fixed set of probe directions;
* a recorded reference (reference.json, one seed): job status, the group
  predicates, the `directions` lists and the class of every probe
  direction, for each sigma and group job.

`check` returns a list of problems; an empty list means the answer passed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

PROBE_BOX = {1: 3, 2: 3, 3: 2}
AMOEBA_TOLERANCE_DEG = 6.0
SETS = ("proved_sigma", "proved_complement", "undecided")


# ---------------------------------------------------------------------------
# Exact helpers.


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive(v) -> tuple:
    fr = [Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in fr))
    ints = [int(x * den) for x in fr]
    g = math.gcd(*(abs(x) for x in ints))
    return tuple(x // g for x in ints)


def parse_frac(x) -> Fraction:
    return Fraction(x) if isinstance(x, int) else Fraction(str(x))


def padic(a: Fraction, p: int) -> int:
    def v(n):
        n, e = abs(n), 0
        while n % p == 0:
            n //= p
            e += 1
        return e
    return v(a.numerator) - v(a.denominator)


def primes_of(n: int) -> set[int]:
    n, out, d = abs(n), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def terms_of(poly_obj) -> dict:
    out = {}
    for t in poly_obj["terms"]:
        g = tuple(t["exp"])
        out[g] = out.get(g, 0) + parse_frac(t["coef"])
    return {g: c for g, c in out.items() if c}


def in_piece(piece, v) -> bool:
    if piece["empty"]:
        return False
    return (all(dot(r["normal"], v) == r["rhs"] for r in piece["eq"])
            and all(dot(r["normal"], v) >= r["rhs"] for r in piece["ge"])
            and all(dot(r["normal"], v) > r["rhs"] for r in piece["gt"]))


def in_set(s, v) -> bool:
    return any(in_piece(p, v) for p in s["pieces"])


def grid_directions(rank: int) -> list[tuple]:
    box = PROBE_BOX.get(rank, 1)
    out = set()
    for v in itertools.product(range(-box, box + 1), repeat=rank):
        if any(v):
            out.add(primitive(v))
    return sorted(out)


def newton_normals(exps) -> list[tuple]:
    """Primitive inner normals of the edges of a plane Newton polygon: the
    rays of its trivial-valuation tropical curve in the min convention."""
    pts = sorted(set(exps))
    if len(pts) < 2:
        return []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]  # counter-clockwise
    normals = set()
    for a, b in zip(hull, hull[1:] + hull[:1]):
        normals.add(primitive((a[1] - b[1], b[0] - a[0])))
    return sorted(normals)


# ---------------------------------------------------------------------------
# sigma and group.


def sigma_part(job_doc, result):
    return result if job_doc["command"] == "sigma" else result["sigma"]


def expected_complement(job_doc, hint):
    """Directions the complement must have, derived from the inputs alone,
    or None when no oracle applies."""
    module = job_doc["payload"]["module"]
    if module["mode"] == "scalar":
        tuples = [[parse_frac(r) for r in module["rhos"]]]
    elif module["mode"] == "matrix" and hint.get("eigen"):
        tuples = [[parse_frac(r) for r in t] for t in hint["eigen"]]
    elif (module["mode"] == "cyclic" and module.get("domain") == "Q"
          and len(module["generators"]) == 1 and module["rank"] <= 2):
        exps = list(terms_of(module["generators"][0]))
        if len(exps) < 2:
            return None
        return [] if module["rank"] == 1 else newton_normals(exps)
    else:
        return None
    dirs = set()
    for rhos in tuples:
        primes = set().union(*(primes_of(r.numerator) | primes_of(r.denominator)
                               for r in rhos))
        for p in primes:
            vec = tuple(padic(r, p) for r in rhos)
            if any(vec):
                dirs.add(primitive(vec))
    return sorted(dirs)


def probe_directions(job_doc, hint, sig=None) -> list[tuple]:
    rank = sig_rank(job_doc)
    probes = set(grid_directions(rank))
    probes.update(expected_complement(job_doc, hint) or [])
    if sig is not None:
        for name in SETS:
            probes.update(tuple(d) for d in sig[name].get("directions") or [])
    return sorted(probes)


def sig_rank(job_doc) -> int:
    module = job_doc["payload"]["module"]
    if module["mode"] == "scalar":
        return len(module["rhos"])
    if module["mode"] == "matrix":
        return len(module["mats"])
    return module["rank"]


def classify(sig, v) -> str:
    """One letter per set containing v: s(igma), c(omplement), u(ndecided)."""
    return "".join(k for k, name in zip("scu", SETS) if in_set(sig[name], v)) or "-"


def check_sigma(job, result, undecided_flag) -> list[str]:
    sig = sigma_part(job.doc, result)
    problems = []
    for v in probe_directions(job.doc, job.hint, sig):
        cls = classify(sig, v)
        if len(cls) != 1 or cls == "-":
            problems.append(f"direction {list(v)} lies in {cls!r}, not in exactly one set")
    expected = expected_complement(job.doc, job.hint)
    got = sig["proved_complement"].get("directions")
    if expected is not None and (got is None or sorted(map(tuple, got)) != expected):
        problems.append(f"complement directions {got} != expected {expected}")
    if job.doc["command"] == "sigma" and undecided_flag != (not sig["undecided"]["empty"]):
        problems.append("undecided flag disagrees with the undecided set")
    return problems


def summarize(job, result, status) -> dict:
    """The decomposition-independent content of a sigma or group answer."""
    out = {"status": status}
    if result is None:
        return out
    sig = sigma_part(job.doc, result)
    out["directions"] = {name: sig[name].get("directions") for name in SETS}
    out["probes"] = "".join(classify(sig, v) for v in probe_directions(job.doc, job.hint))
    if job.doc["command"] == "group":
        out["predicates"] = {
            "finitely_presented": result["finitely_presented"],
            "fp_infinity": result["fp_infinity"],
            "fpm": {m: v["value"] for m, v in sorted(result["fpm"].items())},
        }
    return out


def compare_reference(summary: dict, ref: dict) -> list[str]:
    if ref["status"] == "timeout":
        return []  # no recorded answer; the oracles still apply
    problems = []
    for key in sorted(set(ref) | set(summary)):
        if ref.get(key) != summary.get(key):
            problems.append(f"{key}: {json.dumps(summary.get(key))[:120]} != "
                            f"reference {json.dumps(ref.get(key))[:120]}")
    return problems


# ---------------------------------------------------------------------------
# trop.


def valuations_for(kind, p, coefs):
    """Value functions of the valuations whose hypersurfaces the fan unites."""
    triv = lambda c: 0  # noqa: E731 - every coefficient here is nonzero
    if kind == "trivial":
        return [triv]
    if kind == "p-adic":
        return [lambda c, p=p: padic(c, p)]
    primes = set().union(*(primes_of(c.numerator) | primes_of(c.denominator)
                           for c in coefs))
    return [triv] + [lambda c, q=q: padic(c, q) for q in sorted(primes)]


def min_twice(terms, val, w) -> bool:
    vals = sorted(val(c) + dot(w, g) for g, c in terms.items())
    return len(vals) >= 2 and vals[0] == vals[1]


def first_tie(terms, val, w0, u):
    """The first point of the ray w0 + s*u (s > 0) where the monomial that
    is minimal at w0 ties with another one, or None: a point where the
    minimum is attained twice, whatever the fan says."""
    at = {g: val(c) + dot(w0, g) for g, c in terms.items()}
    g = min(at, key=at.get)
    ties = [Fraction(at[h] - at[g], rate) for h in terms
            if (rate := dot(u, [a - b for a, b in zip(g, h)])) > 0]
    if not ties:
        return None
    s = min(ties)
    return tuple(x + s * y for x, y in zip(w0, u))


def trop_probes(rng, rank, gens, vals, count=24):
    """Grid points, points on the tie locus of a random monomial pair, and
    points where a random ray first leaves a region of one minimal term."""
    pts = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)]
    for _ in range(count):
        terms = rng.choice(gens)
        if len(terms) < 2:
            continue
        g, h = rng.sample(sorted(terms), 2)
        val = rng.choice(vals)
        d = [a - b for a, b in zip(g, h)]
        w0 = [Fraction(rng.randint(-3, 3)) for _ in range(rank)]
        t = Fraction(val(terms[h]) - val(terms[g]) - dot(w0, d), dot(d, d))
        pts.append(tuple(x + t * y for x, y in zip(w0, d)))
        u = [rng.randint(-3, 3) for _ in range(rank)]
        walk = first_tie(terms, val, w0, u)
        if walk is not None:
            pts.append(walk)
    return pts


def check_trop(job, result) -> list[str]:
    payload = job.doc["payload"]
    gens = [terms_of(g) for g in payload["generators"]]
    kind = payload["valuation"]["kind"]
    vals = valuations_for(kind, payload["valuation"].get("p"),
                          [c for t in gens for c in t.values()])
    rng = random.Random(json.dumps(job.doc, sort_keys=True))
    fan = result["fan"]
    problems = []
    for w in trop_probes(rng, payload["rank"], gens, vals):
        if len(gens) == 1:
            want = any(min_twice(gens[0], v, w) for v in vals)
        else:
            want = all(min_twice(t, vals[0], w) for t in gens)
        if in_set(fan, w) != want:
            problems.append(f"point {[str(x) for x in w]}: in fan "
                            f"{not want}, minimum attained twice {want}")
    return problems


# ---------------------------------------------------------------------------
# amoeba, dyn, h2.


def angle_deg(u, v) -> float:
    c = dot(u, v) / (math.hypot(*u) * math.hypot(*v))
    return math.degrees(math.acos(max(-1.0, min(1.0, c))))


def check_amoeba(job, result) -> list[str]:
    rays = newton_normals(terms_of(job.doc["payload"]["poly"]))
    problems = []
    limit = result.get("limit_directions")
    if result["points"] <= 0:
        problems.append("no amoeba points")
    for entry in (limit or {}).get("directions", []):
        best = min(angle_deg(entry["dir"], r) for r in rays)
        if best > AMOEBA_TOLERANCE_DEG:
            problems.append(f"far direction {entry['dir']} is {best:.1f} deg "
                            f"from every tropical ray {rays}")
    return problems


def check_dyn(job, result) -> list[str]:
    payload = job.doc["payload"]
    support = set()
    for row in payload["matrix"]:
        for e in row:
            support.update(terms_of(e))
    problems = []
    nsq = max((dot(g, g) for g in support), default=0)
    if result["norm"]["squared"] != str(nsq):
        problems.append(f"norm squared {result['norm']['squared']} != {nsq}")
    if "chi" in payload:
        chi = [parse_frac(x) for x in payload["chi"]]
        g = min((dot(chi, s) for s in support), default=None)
        want = "inf" if g is None else (str(g.numerator) if g.denominator == 1
                                        else f"{g.numerator}/{g.denominator}")
        if result["gsh"] != want:
            problems.append(f"gsh {result['gsh']} != {want}")
        if not result["compose_check"]["passed"]:
            problems.append("shift superadditivity check failed")
        if "angle_bound" in result and not result["angle_bound"]["passed"]:
            problems.append("angle bound check failed")
    cone = result["positivity_cone"]
    for v in grid_directions(payload["rank"]):
        if in_set(cone, v) != all(dot(v, s) > 0 for s in support):
            problems.append(f"positivity cone disagrees at {list(v)}")
    return problems


def check_h2(job, result) -> list[str]:
    payload = job.doc["payload"]
    p = payload["p"]
    problems = []
    sup = result.get("support_at_zero")
    if sup is not None and not (sup["passed"] and sup["strictly_increasing"]):
        problems.append("support_at_zero failed")
    push = result.get("push")
    if push is not None and not (push["passed"] and push["shift_arg_ratio"] == str(p * p)):
        problems.append("push failed")
    inf = result.get("infinity_obstruction")
    if inf is not None:
        params = payload["infinity_obstruction"]
        n = (2 * params["coeff_bound"] + 1) ** params["k_max"]
        if not inf["passed"] or inf["witness"] is not None or inf["candidates_checked"] != n:
            problems.append("infinity_obstruction failed")
    zero = result.get("zero_obstruction")
    if zero is not None and not (zero["passed"] and not zero["witness_found"]):
        problems.append("zero_obstruction failed")
    return problems


def check(job, doc) -> list[str]:
    """Problems with one parsed result document (empty when it passes)."""
    command = job.doc["command"]
    result = doc["result"]
    if doc.get("job") != job.doc:
        return ["result echoes a different job"]
    if command in ("sigma", "group"):
        return check_sigma(job, result, doc["undecided"])
    if command == "trop":
        return check_trop(job, result)
    if command == "amoeba":
        return check_amoeba(job, result)
    if command == "dyn":
        return check_dyn(job, result)
    return check_h2(job, result)
