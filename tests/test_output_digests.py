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


def group(module):
    return "group", {"module": module, "fpm": [2]}


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
    # content 1, yet one piece exhausts the multiple search and stays undecided
    "group-cyclic-z-r1-undecided": group(cyclic(1, "Z", [((-1,), 1), ((0,), 2),
                                                         ((1,), -2), ((2,), 1)])),
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
    "h2-p3": ("h2", {
        "p": 3,
        "support_at_zero": {"k": 1, "j_max": 4},
        "infinity_obstruction": {"q": "1/3", "coeff_bound": 2, "k_max": 2},
        "push": {},
        "zero_obstruction": {"q": 9, "coeff_bound": 3, "size_bound": 2}}),
}

DIGESTS = {
    "sigma-scalar-r2": "0d9f97ed540ba9c4a92128ddea25ba250bfe69261ea09ad71996589ea8d4fdad",
    "group-scalar-r2": "de0f3264246e900a400878274ca83f6fa6ec218f1d12afab28446762dcc2c8dc",
    "sigma-scalar-r3": "c9697d8caedecc4364f3fa0892fefc3f80de0ddcf0a1f37dc3cd70c573907ebd",
    "group-scalar-r3": "bc35944d5ad952e3cc84b6a1c63d430f991b34a68a720940e8a191e0a6c446b8",
    "sigma-matrix-nondiag": "50c3cd11d845e05ffbdbe89474d37eceef0b645e274f5efca7b77228ff4fa72e",
    "group-matrix-nondiag": "8d25920549d4d3e9764ba40fe12f0973268b8c6c444fe372bca51585488f03c1",
    # one certificate per sigma piece of a diagonalized direct sum: 9 and 5
    "sigma-matrix-diag-split": (
        "31799698a90009653db66d3da1838556240e08d6484ee5697622f9616f78ae0a"),
    "group-matrix-diag-conjugated": (
        "dcf3fff4f68bd3d29dbf9541f81b22f841c17bf2d765e032ada79b1d37cc856e"),
    "group-cyclic-q-r1": "2fbb6854f680316d740696af3ab4b4837dfa26a46df6eb396a5741ef54c20259",
    "sigma-cyclic-q-r2": "b102f05158dfff4880b2ca5b0160b770eedb665acccaaebb8ee016ded2dc901a",
    "sigma-cyclic-q-r2-two-generators": (
        "c67ed82dfe10b05de8790b358ae6338824429dca2d88d3c683509ccc5b7b14d2"),
    "group-cyclic-q-r3": "66841b743bbc192f06fd8580934d7108bea02f66e40d8cee2a4202ba7f9e29a3",
    "sigma-cyclic-z-r2": "1394d52089cdd71c7660ccbfc33381ed0688298018a89af0e15adc7e10c41731",
    "group-cyclic-z-r2": "02e8dd27745bcfbc578839415f58d726a737badaa0e9e719a2a5938f9d07350f",
    "sigma-cyclic-z-r3": "2b999725e6213efeb246d51584c74999f49c9718522a9083408e0acb61dc2efb",
    "group-cyclic-z-r1-undecided": (
        "7ac11066badd9e9fa7ddf923793d4e5cd256dfb64c303479a1aaa81b506eeb1f"),
    "trop-padic-r3": "77af228509c35e391a09bad7ac07251ec5380cd1c95b80da834b189a1bb0bc43",
    "trop-global-z-r2": "f81826013aa0cc334045b5808a706d11e58fd2a5eba2391f7e1b63fcd64dc8bd",
    "trop-prevariety-r3": "5cc0d81ab0d669d485093fc4bed705daa7b912547d9ec8c6b90fd9715df9aaf9",
    "trop-table-r2": "f55ed849e0cf3bf1d5b5e36500a6acacaf59e1b57d1723f6d8f62e09550ea1ae",
    "trop-trivial-r4": "6d0ff6bc870c627a0bca9347b6eef8da4c7353e591e02c8eb1a839bb3d12d311",
    "trop-padic-r4": "e80ad929837aadcec416ea48f58822d80deefa2e89ce6ce5687934975fa0af80",
    "trop-global-z-r3": "7e26067d20f4b1f3696d1467c1072113132e34925cb9333f58063ac96d5dae90",
    "trop-trivial-r6": "21ec3eec2e1d3b3002f8329b5eab50e0ccd22c46ea57067d0e2203f232f75d35",
    "trop-trivial-r7": "713c625910728148aa019f861e6479f75961b3ae7a9ca2942c5be43733d36033",
    # bins centred on multiples of 45 degrees: the ray at 0 degrees is one bin
    "amoeba-span1-far": "d11a5308d1194cae17754dbdc6ab622851257703c508da944c5396fe1c9d61a0",
    "amoeba-laurent-span2": (
        "cd6732dad769f08e31395fc8fa72f833d59a2066d2f2981abc11e9ec568bc16e"),
    "dyn-rank2": "60ddd61725d4f49a23c90df45995fac21ef6c2e4f68561fbfeb5b9808e59c90c",
    "h2-p3": "24bbd38f181851daf0ed0e7591e0c34042b8805ce7259c26b3fbafb0b7f81f4b",
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_output_bytes_are_pinned(name):
    command, payload = JOBS[name]
    doc = run({"version": 1, "command": command, "payload": payload})
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == DIGESTS[name]
