"""Seeded job streams for the three benchmark workloads.

Every job is a CLI job document ({"version": 1, "command": ..., "payload":
...}) plus the facts the answer gate needs (`hint`).  The same seed always
gives the same stream.  Streams are stratified: each round visits a fixed
list of job classes in a fixed order, the rounds step through each class's
size parameters (term counts, grid sizes, time buckets of the pool) in
turn, and the seed picks the instances.  So the mix of cheap and expensive
jobs is the same for every seed and only the instances differ.

`sigma-ladder` draws its modules from `pool.json`, a list of instances per
class whose run time was measured far below the per-job cap (see vet.py).
The decision path has instances at every scale from milliseconds to hours,
and only a vetted pool keeps each job's status (ok, undecided, timeout)
from flipping between runs.  Modules are drawn without replacement: a
module comes up again only once its whole time bucket has been used.
`trop-fans` and `light-mix` jobs are generated directly: every instance of
their families stays far below the cap.

A run takes the first BATCH jobs of its workload's stream (`batch`).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

POOL_PATH = Path(__file__).with_name("pool.json")

WORKLOADS = ("sigma-ladder", "trop-fans", "light-mix")

# Per-job wall-clock caps in seconds.  Every ladder instance in the pool ran
# in under LADDER_LIMIT_S, and every frontier instance was still running
# after FRONTIER_MIN_S, when the pool was built.  The frontier cap is the
# ROADMAP's target for these jobs: under 1 s.
CAPS = {"sigma-ladder": 2.5, "trop-fans": 6.0, "light-mix": 6.0}
FRONTIER_CAP_S = 1.0
LADDER_LIMIT_S = 0.7
FRONTIER_MIN_S = 10.0

# Jobs per run: whole rounds, at least 95 jobs so that 10 lie beyond
# job_ms_p90, and few enough that run.PASSES passes fit in BENCHMARK.json's
# run_seconds at the seed commit.  The 95 sigma-ladder jobs are 5 rounds and
# the 5 frontier jobs; light-mix's 14 rounds visit each amoeba grid size
# twice per amoeba slot, once with each shape.
BATCH = {"sigma-ladder": 95, "trop-fans": 154, "light-mix": 126}

# One round of sigma-ladder: jobs of each pool class, in this order.  Three
# cyclic-q-r3 and two scalar-r2 sigma jobs, classes whose times are close
# together, put job_ms_p50 inside a class instead of on the edge between
# two, where a small shift in either moves it far.
LADDER_ROUND = (
    "scalar-r1:sigma", "scalar-r1:group", "scalar-r2:sigma", "scalar-r2:group",
    "scalar-r3:sigma", "matrix-diag:sigma", "matrix-diag:group",
    "matrix-nondiag:sigma", "cyclic-q-r1:group", "cyclic-q-r2:sigma",
    "cyclic-q-r2:group", "cyclic-q-r3:sigma", "cyclic-z-r1:group",
    "cyclic-z-r2:sigma", "cyclic-z-r3:sigma", "cyclic-q-r3:sigma",
    "scalar-r2:sigma", "cyclic-q-r3:sigma",
)
FRONTIER_CLASS = "frontier"
# Each pool class is split by vetted time into this many buckets, and the
# rounds visit the buckets in turn, so every seed draws the same mix of
# cheap and expensive instances: in a batch's 5 rounds, one from each.
POOL_BUCKETS = 5

TROP_ROUND = (
    ("trivial", 2), ("p-adic", 2), ("global-z", 2), ("prevariety", 2),
    ("trivial", 3), ("p-adic", 3), ("global-z", 3), ("prevariety", 3),
    ("trivial", 4), ("p-adic", 4), ("global-z", 4),
)
# Term counts per rank, visited in turn (see `cycled`); global-z and
# prevariety jobs grow fastest with the number of terms, so they use the low
# end.
TROP_TERMS = {2: (4, 10), 3: (4, 8), 4: (4, 6)}
GLOBAL_Z_TERMS = {2: (4, 8), 3: (4, 5), 4: (4, 4)}
PREVARIETY_TERMS = ((3, 3), (3, 4), (4, 3), (4, 4))

# Two amoeba jobs per round put job_ms_p90 inside the amoeba times rather
# than on the sparse edge between them and the cheap jobs.
LIGHT_ROUND = ("amoeba", "dyn", "trop3", "h2", "trop3", "amoeba", "dyn", "trop3", "trop3")
AMOEBA_S_VALUES = (41, 61, 81, 101, 121, 141, 161)
# (terms, y-degree span) of an amoeba polynomial.  A job's time per s-value
# grows with both (about 2.2 ms for span 1, 3.4 ms for 4 terms of span 2), so
# they are cycled like the grid size: 2 shapes and 7 grids are coprime, so
# each amoeba slot of a 14-round batch runs every (shape, grid) pair once,
# and job_ms_p90, which lies among the amoeba jobs, does not move with the
# seed's draw of shapes.
AMOEBA_SHAPES = ((3, 1), (4, 2))

PRIMES = (2, 3, 5, 7)


@dataclass
class Job:
    id: int
    cls: str
    doc: dict
    cap: float
    hint: dict = field(default_factory=dict)


def cycled(rng: random.Random, values, rnd: int, offsets: dict, key):
    """values[(offset + rnd) % len(values)], with a seeded offset per key:
    over the rounds every value comes up equally often, in a seeded phase."""
    if key not in offsets:
        offsets[key] = rng.randrange(len(values))
    return values[(offsets[key] + rnd) % len(values)]


def job_doc(command: str, payload: dict) -> dict:
    return {"version": 1, "command": command, "payload": payload}


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def poly_doc(terms) -> dict:
    """terms: {exponent tuple: coefficient} -> the CLI polynomial object."""
    return {"terms": [{"exp": list(e), "coef": c if isinstance(c, int) else frac_str(c)}
                      for e, c in sorted(terms.items())]}


def random_poly(rng: random.Random, rank: int, nterms: int, coefs, lo=-2, hi=2,
                constant=False) -> dict:
    exps = {(0,) * rank} if constant else set()
    while len(exps) < nterms:
        exps.add(tuple(rng.randint(lo, hi) for _ in range(rank)))
    return {e: rng.choice(coefs) for e in exps}


# ---------------------------------------------------------------------------
# sigma-ladder


def load_pool() -> dict:
    return json.loads(POOL_PATH.read_text())


def module_job(command: str, entry: dict, rng: random.Random) -> dict:
    payload = {"module": entry["module"]}
    if command == "group":
        payload["fpm"] = sorted(rng.sample([1, 2, 3, 4], rng.randint(1, 2)))
    return job_doc(command, payload)


class Deck:
    """Draws a list's entries without replacement, in a seeded order; once
    all are used it starts a new shuffled pass."""

    def __init__(self, entries, rng: random.Random):
        self.entries, self.rng = list(entries), rng
        self.order = []

    def draw(self):
        if not self.order:
            self.order = self.entries[:]
            self.rng.shuffle(self.order)
        return self.order.pop()


def ladder_stream(seed: int, pool: dict):
    """Rounds of LADDER_ROUND; the k-th frontier job follows round k."""
    rng = random.Random(f"sigma-ladder/{seed}")
    decks = {}
    for slot in dict.fromkeys(LADDER_ROUND):
        entries = sorted(pool[slot], key=lambda e: e["vetted_ms"])
        size = len(entries) / POOL_BUCKETS
        decks[slot] = [Deck(entries[round(i * size):round((i + 1) * size)],
                            random.Random(f"sigma-ladder/{seed}/{slot}/{i}"))
                       for i in range(POOL_BUCKETS)]
    frontier = pool[FRONTIER_CLASS]
    offsets: dict = {}
    n = 0
    for rnd in itertools.count():
        for k, slot in enumerate(LADDER_ROUND):
            entry = cycled(rng, decks[slot], rnd, offsets, k).draw()
            command = slot.split(":")[1]
            yield Job(n, slot, module_job(command, entry, rng), CAPS["sigma-ladder"],
                      hint=entry.get("hint", {}))
            n += 1
        if rnd < len(frontier):
            entry = frontier[rnd]
            yield Job(n, FRONTIER_CLASS, module_job(entry["command"], entry, rng),
                      FRONTIER_CAP_S)
            n += 1


# Candidate generators for the pool.  vet.py draws candidates from these,
# times them and keeps the fast ones; the stream never calls them.


def _ratio(rng, primes, exps=(-1, 1)):
    r = Fraction(rng.choice((1, -1)))
    for p in primes:
        r *= Fraction(p) ** rng.choice(exps)
    return r


def candidate_module(slot: str, rng: random.Random):
    """(module object, hint) for one pool class."""
    cls = slot.split(":")[0]
    if cls == "scalar-r1":
        primes = rng.sample(PRIMES + (11,), rng.randint(1, 2))
        rhos = [_ratio(rng, primes, (-2, -1, 1, 2))]
    elif cls == "scalar-r2":
        if rng.random() < 0.75:
            p, q = rng.sample(PRIMES, 2)
            rhos = [_ratio(rng, [p]), _ratio(rng, [q])]
        else:
            p = rng.choice(PRIMES)
            rhos = [_ratio(rng, [p], (-2, -1, 1, 2)), _ratio(rng, [p], (-2, -1, 1, 2))]
    elif cls == "scalar-r3":
        rhos = [_ratio(rng, [p]) for p in rng.sample(PRIMES, 3)]
    elif cls in ("matrix-diag", "matrix-nondiag"):
        return _candidate_matrix(cls, rng)
    else:
        return _candidate_cyclic(cls, rng)
    return {"mode": "scalar", "rhos": [frac_str(r) for r in rhos]}, {}


_UNIMODULAR = ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[1, 0], [1, 1]], [[1, -1], [1, 0]])


def _mat_mul(a, b):
    return [[sum(Fraction(x) * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _inv2(m):
    (a, b), (c, d) = m
    det = Fraction(a * d - b * c)
    return [[d / det, -b / det], [-c / det, a / det]]


def _candidate_matrix(cls, rng):
    rank = rng.choice((1, 2))
    p_mat = rng.choice(_UNIMODULAR)
    p_inv = _inv2(p_mat)
    mats, eigen = [], []
    if cls == "matrix-diag":
        primes = rng.sample(PRIMES, 2 * rank)
        cols = [[_ratio(rng, [primes[2 * i]]), _ratio(rng, [primes[2 * i + 1]])]
                for i in range(rank)]
        for a, b in cols:
            mats.append(_mat_mul(_mat_mul(p_mat, [[a, 0], [0, b]]), p_inv))
        # joint eigenvalue tuples, one per eigenvector
        eigen = [[frac_str(c[0]) for c in cols], [frac_str(c[1]) for c in cols]]
    else:
        # a Jordan block or an irreducible companion matrix, then a scalar
        # matrix, which commutes with it
        for _ in range(rank):
            if rng.random() < 0.5:
                r = _ratio(rng, [rng.choice(PRIMES)])
                block = [[r, 1], [0, r]] if not mats else [[r, 0], [0, r]]
            else:
                t, d = rng.choice(((1, -1), (1, 1), (3, 1), (0, -2), (1, 2)))
                block = [[0, -d], [1, t]] if not mats else [[2, 0], [0, 2]]
            mats.append(_mat_mul(_mat_mul(p_mat, block), p_inv))
    module = {"mode": "matrix",
              "mats": [[[frac_str(x) for x in row] for row in m] for m in mats],
              "generators": [["1", "0"], ["0", "1"]]}
    return module, ({"eigen": eigen} if eigen else {})


def _candidate_cyclic(cls, rng):
    domain = "Q" if cls.startswith("cyclic-q") else "Z"
    rank = int(cls[-1])
    nterms = 3 if rank == 3 else rng.choice((3, 4))
    coefs = [1, -1, 2, -2, 3] if domain == "Z" else [1, -1, 2, Fraction(1, 2), 3, -3]
    terms = random_poly(rng, rank, nterms, coefs, -1, 2, constant=True)
    return {"mode": "cyclic", "rank": rank, "domain": domain,
            "generators": [poly_doc(terms)]}, {}


# The frontier: Baseline jobs that exceed their cap today, in run order.
FRONTIER = (
    ("group", {"mode": "scalar", "rhos": ["6", "10/3"]}),
    ("group", {"mode": "scalar", "rhos": ["2", "3", "5"]}),
    ("group", {"mode": "scalar", "rhos": ["2", "3", "7"]}),
    ("sigma", {"mode": "cyclic", "rank": 2, "domain": "Q", "generators": [poly_doc(
        {(0, 0): 1, (1, 0): 2, (0, 1): -1, (2, 1): 3, (1, 2): Fraction(1, 2),
         (-1, 1): 1, (2, -1): -3, (-1, -1): 2})]}),
    ("sigma", {"mode": "cyclic", "rank": 2, "domain": "Z", "generators": [poly_doc(
        {(0, 0): 2, (1, 0): -2, (1, 2): -2, (2, 1): -2})]}),
)


# ---------------------------------------------------------------------------
# trop-fans


TROP_COEFS = (1, -1, 2, 3, 4, 6, 9, -12, 5)


def trop_stream(seed: int):
    rng = random.Random(f"trop-fans/{seed}")
    offsets: dict = {}
    n = 0
    for rnd in itertools.count():
        for kind, rank in TROP_ROUND:
            key = (kind, rank)
            val = {"kind": "trivial" if kind == "prevariety" else kind}
            if kind == "prevariety":
                sizes = cycled(rng, PREVARIETY_TERMS, rnd, offsets, key)
            else:
                lo, hi = (GLOBAL_Z_TERMS if kind == "global-z" else TROP_TERMS)[rank]
                sizes = [cycled(rng, range(lo, hi + 1), rnd, offsets, key)]
            if kind == "p-adic":
                val["p"] = cycled(rng, (2, 3), rnd, offsets, (key, "p"))
            gens = [random_poly(rng, rank, k, TROP_COEFS) for k in sizes]
            payload = {"rank": rank, "generators": [poly_doc(g) for g in gens],
                       "valuation": val}
            yield Job(n, f"trop-{kind}-r{rank}", job_doc("trop", payload),
                      CAPS["trop-fans"])
            n += 1


# ---------------------------------------------------------------------------
# light-mix


def any_of(rng):
    """A `pick` that draws freely, for jobs outside a stream."""
    return lambda values, name: rng.choice(values)


def amoeba_job(rng, pick):
    nterms, yspan = pick(AMOEBA_SHAPES, "shape")
    while True:
        terms = random_poly(rng, 2, nterms, (1, -1, 2, -2), 0, 2)
        ydegs = [e[1] for e in terms]
        if max(ydegs) - min(ydegs) == yspan:
            break
    n_s = pick(AMOEBA_S_VALUES, "s")
    half = 20.0
    s_grid = [round(-half + 2 * half * i / (n_s - 1), 6) for i in range(n_s)]
    payload = {"poly": poly_doc(terms), "s_grid": s_grid, "angles": 64,
               "min_radius": 16.0, "angle_bins": 72}
    return job_doc("amoeba", payload)


def dyn_job(rng, pick):
    size = pick((1, 2, 3), "size")
    rank = 2
    matrix = []
    for i in range(size):
        row = []
        for j in range(size):
            terms = {}
            if i == j or rng.random() < 0.4:
                terms = random_poly(rng, rank, rng.randint(1, 2), (1, -1, 2), -1, 1)
            row.append(poly_doc(terms))
        matrix.append(row)
    chi = [str(rng.randint(-2, 2)) for _ in range(rank)]
    if all(c == "0" for c in chi):
        chi[0] = "1"
    payload = {"rank": rank, "matrix": matrix, "chi": chi,
               "iters": pick(range(8, 13), "iters"), "powers": 4}
    return job_doc("dyn", payload)


def h2_job(rng, pick):
    p = pick((2, 3, 5), "p")
    k = rng.randint(0, 2)
    payload = {"p": p,
               "support_at_zero": {"k": k, "j_max": k + rng.randint(2, 6)},
               "push": {}}
    if pick((0, 1), "kind"):
        payload["infinity_obstruction"] = {"q": rng.choice(("2", "3/2", "9")),
                                           "coeff_bound": rng.randint(2, 4),
                                           "k_max": rng.randint(2, 3)}
    else:
        payload["zero_obstruction"] = {"q": rng.choice((2, 4)),
                                       "coeff_bound": rng.randint(2, 3),
                                       "size_bound": rng.randint(1, 2)}
    return job_doc("h2", payload)


def trop3_job(rng, pick):
    rank = rng.choice((2, 3))
    terms = random_poly(rng, rank, 3, (1, -1, 2, 3), -1, 1)
    val = rng.choice(({"kind": "trivial"}, {"kind": "p-adic", "p": 2},
                      {"kind": "p-adic", "p": 3}))
    payload = {"rank": rank, "generators": [poly_doc(terms)], "valuation": val}
    return job_doc("trop", payload)


LIGHT_MAKERS = {"amoeba": amoeba_job, "dyn": dyn_job, "h2": h2_job, "trop3": trop3_job}


def light_stream(seed: int):
    rng = random.Random(f"light-mix/{seed}")
    offsets: dict = {}
    n = 0
    for rnd in itertools.count():
        for k, cls in enumerate(LIGHT_ROUND):
            def pick(values, name, k=k):
                return cycled(rng, values, rnd, offsets, (k, name))
            yield Job(n, cls, LIGHT_MAKERS[cls](rng, pick), CAPS["light-mix"])
            n += 1


def stream(workload: str, seed: int):
    if workload == "sigma-ladder":
        return ladder_stream(seed, load_pool())
    if workload == "trop-fans":
        return trop_stream(seed)
    if workload == "light-mix":
        return light_stream(seed)
    raise ValueError(f"unknown workload {workload!r}")


def batch(workload: str, seed: int) -> list[Job]:
    return list(itertools.islice(stream(workload, seed), BATCH[workload]))


def warmup_jobs(workload: str) -> list[Job]:
    """One cheap job per command of the workload, run untimed before measuring."""
    rng = random.Random("warmup")
    pick = any_of(rng)
    cap = CAPS[workload]
    jobs = [Job(-1, "warmup", trop3_job(rng, pick), cap)]
    if workload == "sigma-ladder":
        jobs.append(Job(-2, "warmup", job_doc(
            "group", {"module": {"mode": "scalar", "rhos": ["6"]}, "fpm": [2]}), cap))
    if workload == "light-mix":
        small = amoeba_job(rng, pick)
        small["payload"]["s_grid"] = small["payload"]["s_grid"][:5]
        jobs += [Job(-3, "warmup", dyn_job(rng, pick), cap),
                 Job(-4, "warmup", h2_job(rng, pick), cap), Job(-5, "warmup", small, cap)]
    return jobs
