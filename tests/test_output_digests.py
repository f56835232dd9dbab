"""Pinned output bytes of fixed sigma and group jobs.

Each digest is the sha256 of `canonical_json` of the job's result document
(which includes the tool version).  A change that alters these bytes must
update the digest on purpose and say so in CHANGES.md.
"""

import hashlib

import pytest

from sigmatrop.cli import canonical_json, run


def poly(terms):
    return {"terms": [{"exp": list(e), "coef": c} for e, c in terms]}


def cyclic(rank, domain, terms):
    return {"mode": "cyclic", "rank": rank, "domain": domain,
            "generators": [poly(terms)]}


JOBS = {
    "sigma-scalar-r2": ("sigma", {"mode": "scalar", "rhos": ["6", "10/3"]}),
    "group-scalar-r2": ("group", {"mode": "scalar", "rhos": ["4/9", "5"]}),
    "sigma-scalar-r3": ("sigma", {"mode": "scalar", "rhos": ["2", "3", "5"]}),
    "group-scalar-r3": ("group", {"mode": "scalar", "rhos": ["2", "3/7", "7"]}),
    "sigma-matrix-nondiag": ("sigma", {
        "mode": "matrix", "mats": [[["2", "1"], ["0", "2"]], [["3", "0"], ["0", "3"]]],
        "generators": [["1", "0"], ["0", "1"]]}),
    "group-matrix-nondiag": ("group", {
        "mode": "matrix", "mats": [[["1", "1"], ["0", "1"]], [["2", "0"], ["0", "2"]]],
        "generators": [["1", "0"], ["0", "1"]]}),
    "sigma-cyclic-q-r2": ("sigma", cyclic(2, "Q", [((0, 0), 1), ((1, 0), 2),
                                                   ((0, 1), -3), ((1, 1), "1/2")])),
    "group-cyclic-q-r3": ("group", cyclic(3, "Q", [((0, 0, 0), 2), ((1, 0, 0), -1),
                                                   ((0, 1, 0), 1), ((0, 0, 1), 3)])),
    "sigma-cyclic-z-r2": ("sigma", cyclic(2, "Z", [((0, 0), 1), ((1, 0), -2),
                                                   ((0, 1), 3)])),
    "group-cyclic-z-r2": ("group", cyclic(2, "Z", [((0, 0), 2), ((1, 0), -1),
                                                   ((1, 1), 3)])),
    "sigma-cyclic-z-r3": ("sigma", cyclic(3, "Z", [((0, 0, 0), 1), ((1, 0, 0), 2),
                                                   ((0, 1, 0), -1), ((0, 0, 1), 3)])),
}

DIGESTS = {
    "sigma-scalar-r2": "0d9f97ed540ba9c4a92128ddea25ba250bfe69261ea09ad71996589ea8d4fdad",
    "group-scalar-r2": "de0f3264246e900a400878274ca83f6fa6ec218f1d12afab28446762dcc2c8dc",
    "sigma-scalar-r3": "c9697d8caedecc4364f3fa0892fefc3f80de0ddcf0a1f37dc3cd70c573907ebd",
    "group-scalar-r3": "bc35944d5ad952e3cc84b6a1c63d430f991b34a68a720940e8a191e0a6c446b8",
    "sigma-matrix-nondiag": "50c3cd11d845e05ffbdbe89474d37eceef0b645e274f5efca7b77228ff4fa72e",
    "group-matrix-nondiag": "8d25920549d4d3e9764ba40fe12f0973268b8c6c444fe372bca51585488f03c1",
    "sigma-cyclic-q-r2": "b102f05158dfff4880b2ca5b0160b770eedb665acccaaebb8ee016ded2dc901a",
    "group-cyclic-q-r3": "66841b743bbc192f06fd8580934d7108bea02f66e40d8cee2a4202ba7f9e29a3",
    "sigma-cyclic-z-r2": "1394d52089cdd71c7660ccbfc33381ed0688298018a89af0e15adc7e10c41731",
    "group-cyclic-z-r2": "02e8dd27745bcfbc578839415f58d726a737badaa0e9e719a2a5938f9d07350f",
    "sigma-cyclic-z-r3": "2b999725e6213efeb246d51584c74999f49c9718522a9083408e0acb61dc2efb",
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_output_bytes_are_pinned(name):
    command, module = JOBS[name]
    payload = {"module": module}
    if command == "group":
        payload["fpm"] = [2]
    doc = run({"version": 1, "command": command, "payload": payload})
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == DIGESTS[name]
