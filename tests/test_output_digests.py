"""Pinned output bytes of fixed sigma, group, trop, dyn, h2 and amoeba jobs.

Each digest is the sha256 of `canonical_json` of the job's result document
(which includes the tool version).  A change that alters these bytes must
update the digest on purpose and say so in CHANGES.md.
"""

import hashlib

import pytest

from sigmatrop.cli import canonical_json, run


def poly(terms):
    return {"terms": [{"exp": list(e), "coef": c} for e, c in terms]}


def cyclic(rank, domain, *generators):
    return {"mode": "cyclic", "rank": rank, "domain": domain,
            "generators": [poly(terms) for terms in generators]}


def sigma(module):
    return "sigma", {"module": module}


def group(module, fpm=(2,)):
    return "group", {"module": module, "fpm": list(fpm)}


def trop(rank, valuation, *generators, domain="Z"):
    return "trop", {"rank": rank, "domain": domain, "valuation": valuation,
                    "generators": [poly(terms) for terms in generators]}


def unit(rank, i):
    return tuple(int(j == i) for j in range(rank))


def amoeba(terms, s_grid, angles, **far):
    return "amoeba", {"poly": poly(terms), "s_grid": s_grid, "angles": angles, **far}


JOBS = {
    "sigma-scalar-r2": sigma({"mode": "scalar", "rhos": ["6", "10/3"]}),
    "group-scalar-r2": group({"mode": "scalar", "rhos": ["4/9", "5"]}),
    "sigma-scalar-r3": sigma({"mode": "scalar", "rhos": ["2", "3", "5"]}),
    "group-scalar-r3": group({"mode": "scalar", "rhos": ["2", "3/7", "7"]}),
    # m = 1, m = 3 = rank (the complement has 3 directions) and m = 4 > rank
    "group-scalar-r3-fpm": group({"mode": "scalar", "rhos": ["2", "3/7", "7"]},
                                 fpm=(1, 2, 3, 4)),
    "sigma-matrix-nondiag": sigma({
        "mode": "matrix", "mats": [[["2", "1"], ["0", "2"]], [["3", "0"], ["0", "3"]]],
        "generators": [["1", "0"], ["0", "1"]]}),
    "group-matrix-nondiag": group({
        "mode": "matrix", "mats": [[["1", "1"], ["0", "1"]], [["2", "0"], ["0", "2"]]],
        "generators": [["1", "0"], ["0", "1"]]}),
    # the second matrix splits the first one's repeated eigenvalue 6
    "sigma-matrix-diag-split": sigma({
        "mode": "matrix", "mats": [[["6", "0"], ["0", "6"]], [["3", "1"], ["0", "5"]]],
        "generators": [["1", "0"], ["0", "1"]]}),
    # P diag(2, 3, 1) P^-1 and P diag(1, 5, 1/2) P^-1, P = [[1,1,0],[0,1,1],[0,0,1]]
    "group-matrix-diag-conjugated": group({
        "mode": "matrix",
        "mats": [[["2", "1", "-1"], ["0", "3", "-2"], ["0", "0", "1"]],
                 [["1", "4", "-4"], ["0", "5", "-9/2"], ["0", "0", "1/2"]]],
        "generators": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}),
    "group-cyclic-q-r1": group(cyclic(1, "Q", [((-1,), -3), ((0,), 3), ((1,), -1)])),
    "sigma-cyclic-q-r2": sigma(cyclic(2, "Q", [((0, 0), 1), ((1, 0), 2),
                                               ((0, 1), -3), ((1, 1), "1/2")])),
    "sigma-cyclic-q-r2-two-generators": sigma(cyclic(
        2, "Q", [((0, 0), 1), ((1, 0), 1), ((0, 1), 1)],
        [((0, 0), 2), ((1, 0), -1), ((0, 1), 3)])),
    "group-cyclic-q-r3": group(cyclic(3, "Q", [((0, 0, 0), 2), ((1, 0, 0), -1),
                                               ((0, 1, 0), 1), ((0, 0, 1), 3)])),
    "sigma-cyclic-z-r2": sigma(cyclic(2, "Z", [((0, 0), 1), ((1, 0), -2),
                                               ((0, 1), 3)])),
    "group-cyclic-z-r2": group(cyclic(2, "Z", [((0, 0), 2), ((1, 0), -1),
                                               ((1, 1), 3)])),
    "sigma-cyclic-z-r3": sigma(cyclic(3, "Z", [((0, 0, 0), 1), ((1, 0, 0), 2),
                                               ((0, 1, 0), -1), ((0, 0, 1), 3)])),
    # content 1, yet its one region piece, the whole line, meets the vertex
    # cones of x^-1 and x^2, so it stays undecided
    "group-cyclic-z-r1-undecided": group(cyclic(1, "Z", [((-1,), 1), ((0,), 2),
                                                         ((1,), -2), ((2,), 1)])),
    # every fpm answer but m = 2 is undecided while a piece is
    "group-cyclic-z-r1-undecided-fpm": group(
        cyclic(1, "Z", [((-1,), 1), ((0,), 2), ((1,), -2), ((2,), 1)]),
        fpm=(1, 2, 3, 4)),
    "trop-padic-r3": trop(3, {"kind": "p-adic", "p": 2},
                          [((0, 0, 0), 4), ((1, 0, 0), -3), ((0, 1, 0), 6),
                           ((0, 0, 1), "1/2"), ((1, 1, 1), 1)], domain="Q"),
    "trop-global-z-r2": trop(2, {"kind": "global-z"},
                             [((0, 0), 6), ((1, 0), -2), ((0, 1), 3), ((1, 1), 1)]),
    "trop-prevariety-r3": trop(3, {"kind": "trivial"},
                               [((0, 0, 0), 1), ((1, 0, 0), 1), ((0, 1, 1), -1)],
                               [((0, 0, 0), 2), ((0, 1, 0), -1), ((1, 0, 1), 1)]),
    "trop-table-r2": trop(2, {"kind": "table", "entries": [
                              {"value": "2", "val": "1/2"}, {"value": "3", "val": "-2/3"},
                              {"value": "1", "val": "0"}]},
                          [((0, 0), 2), ((1, 0), 3), ((0, 1), 1), ((1, 1), 2)]),
    # the work-count job of test_cone_kernels.py
    "trop-trivial-r4": trop(4, {"kind": "trivial"},
                            [((0, 0, 0, 0), 1), ((1, 0, 0, 0), 1), ((0, 1, 0, 0), -1),
                             ((0, 0, 1, 0), 2), ((0, 0, 0, 1), 3), ((1, 1, 1, 1), 1)]),
    "trop-padic-r4": trop(4, {"kind": "p-adic", "p": 3},
                          [((0, 0, 0, 0), 9), ((1, 0, 0, 0), -1), ((0, 1, 0, 0), 3),
                           ((0, 0, 1, 1), "1/3"), ((1, -1, 0, 1), 2)], domain="Q"),
    "trop-global-z-r3": trop(3, {"kind": "global-z"},
                             [((0, 0, 0), 6), ((1, 0, 0), -2), ((0, 1, 0), 3),
                              ((0, 0, 1), 1)]),
    # rank 6 is RAY_RANK_LIMIT: the fan still gets spherical rays, and its
    # pieces have a 3-dimensional lineality space
    "trop-trivial-r6": trop(6, {"kind": "trivial"},
                            [((0,) * 6, 1), (unit(6, 0), -1), (unit(6, 1), 2),
                             ((0, 0, 1, 1, 1, 1), 1)]),
    # above the limit the fan has no "spherical_rays" key
    "trop-trivial-r7": trop(7, {"kind": "trivial"},
                            [((0,) * 7, 1), (unit(7, 0), 1), ((0, 1, 1, 1, 1, 1, 1), -2)]),
    # the far points bin to the recession rays of the curve y = 2x - 3
    "amoeba-span1-far": amoeba([((0, 1), 1), ((1, 0), -2), ((0, 0), 3)],
                               [x / 2 for x in range(-40, 41)], 16,
                               min_radius=12.0, angle_bins=72),
    # exponents of both signs, y-degrees -1..1, on a grid through s = 0
    "amoeba-laurent-span2": amoeba([((-1, 1), 1), ((0, -1), -2), ((1, 0), 3),
                                    ((2, 1), -1), ((-2, 0), 5)],
                                   [x / 4 for x in range(-6, 7)], 12),
    "dyn-rank2": ("dyn", {
        "rank": 2,
        "matrix": [[poly([((1, 0), 1), ((0, 1), 1)]), poly([((0, 0), 2)])],
                   [poly([((0, 0), -1)]), poly([((1, 1), 1), ((0, -1), 3)])]],
        "chi": ["1", "-1/2"], "iters": 5, "powers": 3}),
    # a positive shift, so the orbit's directions meet the angle bound
    "dyn-positive-shift": ("dyn", {
        "rank": 2, "matrix": [[poly([((1, 0), 1), ((1, 1), 1)])]],
        "chi": ["1", "0"], "powers": 5}),
    # q = 1/3 <= 1 admits the identity over the horoball at infinity: the
    # infinity obstruction fails with the witness [[0, 1]]
    "h2-p3": ("h2", {
        "p": 3,
        "support_at_zero": {"k": 1, "j_max": 4},
        "infinity_obstruction": {"q": "1/3", "coeff_bound": 2, "k_max": 2},
        "push": {},
        "zero_obstruction": {"q": 9, "coeff_bound": 3, "size_bound": 2}}),
}

DIGESTS = {
    "sigma-scalar-r2": "7fbfe39e7143a26acebbbf928358f7f3758099781e910d914390a2d1d19853bd",
    "group-scalar-r2": "d9c5b83313008ed60112106f224024b3ecce19c4cae9b8937efd56d3703e7214",
    "sigma-scalar-r3": "5440af14731565aaf0f6d5603180d5934f269461529d8d4e02a0981621b09d0d",
    "group-scalar-r3": "de01441c40c7a6378992f321d60d61b5fc36c8fdae07b393347d2c7c56d3e230",
    "group-scalar-r3-fpm": (
        "4df6d5055ca823fc720fa23a77a02f6b3fb1050479d1b888a90f38e7dde898f2"),
    "sigma-matrix-nondiag": "a35df580e9265b209c0dd83f51617790c7047d4069f27ec339507b4c04643729",
    "group-matrix-nondiag": "08e82a5fa6f2b3038f305fdc25887fded670f101f6e73bf15752cd0c42ddc4f3",
    # one certificate per sigma piece of a diagonalized direct sum: 9 and 5
    "sigma-matrix-diag-split": (
        "490e983b98104327d0af9f964bcc187c37f639f970f4604a45919c4cf16e5202"),
    "group-matrix-diag-conjugated": (
        "fb0a803dca6bded5ec88738644de9f99483533bf33354ca32b6264dfa3c1f06e"),
    "group-cyclic-q-r1": "0ed222d8cb4af1bdc35c22cbfd1ee54391ae39f84c0944b36bfc91aeb58229fa",
    "sigma-cyclic-q-r2": "ff639d94e7f2c9141db3563e82c32e3403c99441ce207fea08d898745e508baa",
    "sigma-cyclic-q-r2-two-generators": (
        "21c51014dc295c86d11df8c3b39721e5c37bf2db661fbfe757d6d1981c5137e2"),
    "group-cyclic-q-r3": "190112299fe1fe5f53f6e9717841ca420c61c1094664b027eddf7edaba0a8b35",
    "sigma-cyclic-z-r2": "dc3d480b640c9e8580802d39c82ed479d708805414cf8c971e544f37c8c8543b",
    "group-cyclic-z-r2": "6d0523f38d6c31cadac48b6a31eb8b85607d4bdce45a54fb59bc245055158d01",
    "sigma-cyclic-z-r3": "ded451b06de7d995fdddf01a35aaa110f6a186687531b033d5a234467cb161d3",
    "group-cyclic-z-r1-undecided": (
        "8264156660a66d42213848b1be82ae6db4066166c9b1fd926bac8920a45a0ad9"),
    "group-cyclic-z-r1-undecided-fpm": (
        "1040a562723760d2ec8168a53c437d2eb7f475afea9f7624f5539a3af00f67cd"),
    "trop-padic-r3": "67aa89eb4177a9baa6a4c29ce23668ee9962c6d4faebb4f17f123cefe5dc95e7",
    "trop-global-z-r2": "1b7ad58650c9da37e6aa2f1b6f5239ed9e613c4ddde52425d94f04f9fcf21b98",
    "trop-prevariety-r3": "9e9ee6a9c79a6a6a0acb7d1fe0a7144df885fb5334417b17a3a4735e47e02a6b",
    "trop-table-r2": "ef443db6016e703b5f85e881a079d0f179f5624456990706b496921db300f85f",
    "trop-trivial-r4": "7f1d5da2165cec3b64cea4f763e4683a9a75bf986ae6e0f2df8f36a3b9b1d9d2",
    "trop-padic-r4": "af02d7e26bc752fde2a5def39b179468f9fdf23a8347d247165495df137d6bd4",
    "trop-global-z-r3": "86f535e59a0707a62b7ff200461a589d4b6bed106d63ecec3049f5def465c372",
    "trop-trivial-r6": "a09d70766600fdbe78be135d7b27279115fab2894b85782b55dfd1a8b85bcf2f",
    "trop-trivial-r7": "d66239f61972104ab38ad9eecf74e78689bf9166bb8d71cb2fd327b6750c6816",
    # bins centred on multiples of 45 degrees: the ray at 0 degrees is one bin
    "amoeba-span1-far": "9270f344acf13bd90d2e431f9d772fddbe97f77e441bbf4bc3c0245b1962a88e",
    "amoeba-laurent-span2": (
        "66b7435f5e3f13ce1c08ddf1ba53ed8dcc0e360f253f320989db8f936a521295"),
    "dyn-rank2": "1c41be3152b844a98a5af061f0d4aee13e240eda5e15841bcace56814a5bd78e",
    "dyn-positive-shift": (
        "06a458a7f6368fe9bff005523bcb762616d452f9a1dedb4496d376d5f7b1f6cf"),
    "h2-p3": "1cd65881d13a1f48eafdeb9ba247e1e9e71cf798bac6fc842264c33391890ca2",
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_output_bytes_are_pinned(name):
    command, payload = JOBS[name]
    doc = run({"version": 1, "command": command, "payload": payload})
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == DIGESTS[name]
