import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sigmatrop
from sigmatrop import cli, linalg
from sigmatrop.cli import canonical_json, main, run, SchemaError
from sigmatrop.tropical import AMOEBA_ROWS

from test_cone_kernels import counting

TROP_JOB = {
    "version": 1,
    "command": "trop",
    "payload": {
        "rank": 2,
        "generators": [{"terms": [{"exp": [1, 0], "coef": 1},
                                  {"exp": [0, 1], "coef": 1},
                                  {"exp": [0, 0], "coef": 1}]}],
        "valuation": {"kind": "trivial"},
    },
}

SIGMA_JOB = {
    "version": 1,
    "command": "sigma",
    "payload": {"module": {"mode": "scalar", "rhos": ["6"]}},
}

GROUP_JOB = {
    "version": 1,
    "command": "group",
    "payload": {"module": {"mode": "scalar", "rhos": ["6"]}, "fpm": [2, 3]},
}

DYN_JOB = {
    "version": 1,
    "command": "dyn",
    "payload": {
        "rank": 2,
        "matrix": [[{"terms": [{"exp": [1, 0], "coef": 1},
                               {"exp": [0, 1], "coef": 1}]}]],
        "chi": ["1", "1"],
        "iters": 6,
    },
}

H2_JOB = {
    "version": 1,
    "command": "h2",
    "payload": {
        "p": 2,
        "support_at_zero": {"k": 0, "j_max": 4},
        "push": {},
        "zero_obstruction": {"q": 4, "coeff_bound": 4, "size_bound": 2},
    },
}

AMOEBA_JOB = {
    "version": 1,
    "command": "amoeba",
    "payload": {
        "poly": {"terms": [{"exp": [0, 1], "coef": 1},
                           {"exp": [1, 0], "coef": -1}]},
        "s_grid": [-16.0, -8.0, 8.0, 16.0],
        "angles": 6,
        "min_radius": 10.0,
        "angle_bins": 36,
    },
}


def test_trop_job():
    doc = run(TROP_JOB)
    assert doc["result"]["fan"]["spherical_rays"] == [[-1, -1], [0, 1], [1, 0]]
    assert doc["result"]["kind"] == "hypersurface"
    assert not doc["undecided"]


def test_sigma_job():
    doc = run(SIGMA_JOB)
    res = doc["result"]
    assert res["proved_complement"]["directions"] == [[1]]
    assert res["certificates"], "expected at least one certificate"
    assert not doc["undecided"]


def test_group_job():
    doc = run(GROUP_JOB)
    res = doc["result"]
    assert res["finitely_presented"] is True
    assert res["fp_infinity"] is True
    assert res["fpm"]["2"] == {"value": True, "basis": "theorem"}
    assert res["fpm"]["3"]["basis"] == "conjecture"


def test_dyn_job():
    doc = run(DYN_JOB)
    res = doc["result"]
    assert res["gsh"] == "1"
    assert res["compose_check"]["passed"]
    assert res["angle_bound"]["passed"]


def test_dyn_angle_bound_takes_a_chi_past_the_float_range():
    # |chi|^2 = 10^400 + 1 has no float; the cosines came from float(|chi|^2)
    # and ended in an OverflowError (exit 1)
    xy = {"terms": [{"exp": [1, 0], "coef": 1}, {"exp": [1, 1], "coef": 1}]}
    doc = run({"version": 1, "command": "dyn", "payload": {
        "rank": 2, "matrix": [[xy]], "iters": 3, "chi": ["1" + "0" * 200, "1"]}})
    bound = doc["result"]["angle_bound"]
    assert bound["passed"] and bound["bound_degrees"] == 45.0
    assert [c["direction"] for c in bound["checks"]] == [[1, 0], [1, 1], [2, 1],
                                                         [3, 1], [3, 2]]


def test_h2_job():
    doc = run(H2_JOB)
    res = doc["result"]
    assert res["support_at_zero"]["passed"]
    assert res["push"]["passed"] and res["push"]["shift_arg_ratio"] == "4"
    assert res["zero_obstruction"]["passed"]


def test_amoeba_job_determinism():
    doc1 = run(AMOEBA_JOB)
    doc2 = run(AMOEBA_JOB)
    assert canonical_json(doc1) == canonical_json(doc2)
    dirs = doc1["result"]["limit_directions"]["directions"]
    assert dirs, "expected far directions for the diagonal curve"


@pytest.mark.parametrize("argv, message", [
    ([], "required: --job"),
    (["--job", "JOB", "--bogus"], "unrecognized arguments: --bogus"),
    (["--job", "JOB", "--threads", "1"], "unrecognized arguments: --threads 1"),
])
def test_usage_error_exits_1(tmp_path, capsys, argv, message):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(SIGMA_JOB))
    code = main([str(job_file) if a == "JOB" else a for a in argv])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1
    assert error["type"] == "usage" and message in error["message"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--job" in capsys.readouterr().out


def test_unknown_command_schema_error():
    bad = {"version": 1, "command": "mystery", "payload": {}}
    with pytest.raises(SchemaError):
        run(bad)


def test_unknown_field_rejected():
    bad = json.loads(json.dumps(TROP_JOB))
    bad["payload"]["surprise"] = 1
    with pytest.raises(SchemaError):
        run(bad)


def test_canonical_json_round_trip():
    doc = run(TROP_JOB)
    text = canonical_json(doc)
    assert text == canonical_json(json.loads(text))
    assert text.endswith("\n")


def test_main_end_to_end(tmp_path):
    job_file = tmp_path / "job.json"
    out_file = tmp_path / "out.json"
    plot_dir = tmp_path / "plots"
    job_file.write_text(json.dumps(TROP_JOB))
    code = main(["--job", str(job_file), "--out", str(out_file),
                 "--plot", str(plot_dir)])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["result"]["fan"]["spherical_rays"] == [[-1, -1], [0, 1], [1, 0]]
    rays_csv = (plot_dir / "rays.csv").read_text().splitlines()
    assert rays_csv[0] == "dir_x,dir_y"
    assert len(rays_csv) == 4


def test_bound_escalation_sets_a_missing_box(tmp_path):
    # A non-diagonalizable matrix module: its answer changes with the box,
    # which only the payload sets.
    module = {"mode": "matrix", "mats": [[[2, 1], [0, 2]]],
              "generators": [[1, 0], [0, 1]]}

    def answer(payload):
        job_file = tmp_path / "job.json"
        out_file = tmp_path / "out.json"
        job_file.write_text(json.dumps({"version": 1, "command": "sigma",
                                        "payload": payload}))
        code = main(["--job", str(job_file), "--out", str(out_file)])
        doc = json.loads(out_file.read_text())
        return code, doc["result"], doc["undecided"]

    box1 = answer({"module": module, "box": 1})
    assert answer({"module": module}) != box1
    assert answer({"module": module, "box": 2}) != box1


def test_bound_escalation_is_a_usage_error(tmp_path, capsys):
    # a second way to set the box, which the echoed job did not name
    job_file = tmp_path / "job.json"
    for job in (SIGMA_JOB, GROUP_JOB):
        job_file.write_text(json.dumps(job))
        for value in ("0", "1"):
            assert main(["--job", str(job_file), "--bound-escalation", value]) == 1
            error = json.loads(capsys.readouterr().out)["error"]
            assert error["type"] == "usage"
            assert "--bound-escalation" in error["message"]


def test_main_exit_codes(tmp_path):
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({"version": 1, "command": "nope",
                                    "payload": {}}))
    assert main(["--job", str(bad_file)]) == 3

    undecided_job = {
        "version": 1,
        "command": "sigma",
        "payload": {"module": {
            "mode": "matrix",
            "mats": [[["2", "1"], ["0", "2"]]],
            "generators": [["1", "0"], ["0", "1"]],
        }},
    }
    ufile = tmp_path / "u.json"
    ufile.write_text(json.dumps(undecided_job))
    assert main(["--job", str(ufile), "--out", str(tmp_path / "u_out.json")]) == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["--job", str(broken)]) == 1


# json.loads reads NaN, Infinity and -Infinity; before these were schema
# errors they failed deep in the sampler (LinAlgError, OverflowError, a float
# conversion) or, for an empty grid, with "empty cloud".
@pytest.mark.parametrize("field, value, message", [
    ("s_grid", [0.0, float("nan")], "nan is not of type 'number'"),
    ("s_grid", [float("inf")], "inf is not of type 'number'"),
    ("s_grid", [-1.0, float("-inf")], "-inf is not of type 'number'"),
    ("s_grid", [], "[] should be non-empty"),
    ("min_radius", float("nan"), "nan is not of type 'number'"),
    ("min_radius", float("inf"), "inf is not of type 'number'"),
    # past the float range: before these were schema errors the sampler
    # raised OverflowError (exit 1), or an int min_radius was compared as an
    # int (exit 0), or the bin width raised OverflowError (exit 1)
    ("s_grid", [0.0, 800.0], "the term 1*x^1 leaves the float range at s = 800.0"),
    ("s_grid", [-1.0, 10 ** 400], "an integer past the float range is not a float"),
    ("min_radius", 10 ** 400, "an integer past the float range is not a float"),
    # one bin is the whole circle, where far directions can cancel out
    ("angle_bins", 1, "1 is less than the minimum of 2"),
    ("angle_bins", 2 ** 53 + 1,
     "9007199254740993 is greater than the maximum of 9007199254740992"),
    ("angle_bins", 10 ** 400, f"{10 ** 400} is greater than the maximum of {2 ** 53}"),
    # one block of the sampler holds at most AMOEBA_ROWS rows: 2^62 angles
    # failed in numpy with "array is too big" (exit 1)
    ("angles", 2 ** 62, f"{2 ** 62} is greater than the maximum of {AMOEBA_ROWS}"),
    ("angles", AMOEBA_ROWS + 1,
     f"{AMOEBA_ROWS + 1} is greater than the maximum of {AMOEBA_ROWS}"),
])
def test_bad_amoeba_payload_is_a_schema_error(tmp_path, capsys, field, value, message):
    job = json.loads(json.dumps(AMOEBA_JOB))
    job["payload"][field] = value
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(job))  # writes the NaN and Infinity tokens
    assert main(["--job", str(job_file)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "schema", "message": message}


def test_amoeba_rows_angles_answer(tmp_path, capsys):
    job = json.loads(json.dumps(AMOEBA_JOB))
    job["payload"]["angles"] = AMOEBA_ROWS
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(job))
    assert main(["--job", str(job_file)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    # y = x has one root at each of the 4 s-values times AMOEBA_ROWS angles
    assert result["points"] + result["dropped"] == 4 * AMOEBA_ROWS


def test_a_non_finite_float_in_the_output_is_an_error(tmp_path, capsys, monkeypatch):
    # the canonical text may not hold NaN, which json.dumps would write
    monkeypatch.setitem(cli.COMMANDS, "sigma", (
        cli._read_sigma, lambda *inputs: ({"rank": float("nan")}, False, None)))
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(SIGMA_JOB))
    assert main(["--job", str(job_file)]) == 1
    out = capsys.readouterr().out
    assert "NaN" not in out and len(out.splitlines()) == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


def test_a_limit_direction_prints_no_negative_zero():
    """The far point (1e-13, 46.05) reflects to a direction whose x is
    -2e-15, which rounds to -0.0: its sign is rounding noise."""
    job = {"version": 1, "command": "amoeba", "payload": {
        "poly": {"terms": [{"exp": [0, 1], "coef": 1}, {"exp": [0, 0], "coef": -10 ** 20}]},
        "s_grid": [1e-13], "angles": 1, "min_radius": 10.0}}
    text = canonical_json(run(job))
    assert '"directions":[{"count":1,"dir":[0.0,-1.0]}]' in text
    assert "-0.0" not in text


# each of these failed inside a handler (KeyError, TypeError, ValueError) with
# exit 1 before the schema named the keys each module mode reads
_POLY = {"terms": [{"exp": [0], "coef": 2}, {"exp": [1], "coef": -1}]}
_SCALAR = {"mode": "scalar", "rhos": ["6"]}


@pytest.mark.parametrize("command, payload, message", [
    ("sigma", {"module": {"mode": "cyclic", "generators": [_POLY]}},
     "'rank' is a required property"),
    ("sigma", {"module": {"mode": "scalar"}}, "'rhos' is a required property"),
    ("sigma", {"module": {"mode": "matrix", "generators": [["1"]]}},
     "'mats' is a required property"),
    ("sigma", {"module": {"mode": "matrix", "mats": [[["2"]]]}},
     "'generators' is a required property"),
    ("sigma", {"module": {"mode": "matrix", "mats": [[["2"]]], "generators": [1]}},
     "1 is not of type 'array'"),
    ("group", {"module": {"mode": "cyclic", "rank": 1, "generators": [5]}},
     "5 is not of type 'object'"),
    ("group", {"module": _SCALAR, "fpm": [0]}, "0 is less than the minimum of 1"),
    ("group", {"module": _SCALAR, "fpm": [-1]}, "-1 is less than the minimum of 1"),
    # a rank below 1 used to answer, with a witness direction of length 1
    ("sigma", {"module": {"mode": "cyclic", "rank": 0, "generators": []}},
     "0 is less than the minimum of 1"),
    ("sigma", {"module": {"mode": "cyclic", "rank": -1, "generators": []}},
     "-1 is less than the minimum of 1"),
    # values the schema cannot express: a string that is not a rational
    # (ValueError), a zero denominator (ZeroDivisionError) and an exponent
    # whose length is not the rank (DimensionError), each exit 1 before
    ("sigma", {"module": {"mode": "scalar", "rhos": ["x"]}},
     "'x' is not a rational number"),
    ("sigma", {"module": {"mode": "cyclic", "rank": 1, "generators": [
        {"terms": [{"exp": [0], "coef": "x"}, {"exp": [1], "coef": 1}]}]}},
     "'x' is not a rational number"),
    ("group", {"module": {"mode": "cyclic", "rank": 1, "generators": [
        {"terms": [{"exp": [0], "coef": "1/0"}, {"exp": [1], "coef": 1}]}]}},
     "'1/0' is not a rational number"),
    ("sigma", {"module": {"mode": "cyclic", "rank": 2, "generators": [_POLY]}},
     "exponent [0] has length 1, not the rank 2"),
    ("trop", {"rank": 2, "valuation": {"kind": "trivial"}, "generators": [_POLY]},
     "exponent [0] has length 1, not the rank 2"),
    ("trop", {"rank": 1, "valuation": {"kind": "trivial"}, "generators": [
        {"terms": [{"exp": [0], "coef": "1/0"}, {"exp": [1], "coef": 1}]}]},
     "'1/0' is not a rational number"),
    ("dyn", {"rank": 1, "matrix": [[_POLY]], "chi": ["x"]},
     "'x' is not a rational number"),
    ("dyn", {"rank": 2, "matrix": [[_POLY]]},
     "exponent [0] has length 1, not the rank 2"),
    # a modulus or p that is not a prime and a table that is not a valuation
    # each ended in a ValueError with exit 1
    *[(command, payload, f"prime field modulus must be prime, got {m}")
      for m in (4, 0, 1, -3)
      for command, payload in (
          ("sigma", {"module": {"mode": "cyclic", "rank": 1, "domain": {"GF": m},
                                "generators": [_POLY]}}),
          ("trop", {"rank": 1, "domain": {"GF": m}, "valuation": {"kind": "trivial"},
                    "generators": [_POLY]}))],
    *[("trop", {"rank": 1, "valuation": {"kind": "p-adic", "p": q},
                "generators": [_POLY]}, f"{q} is not prime") for q in (4, 1, 0, -2)],
    *[("trop", {"rank": 1, "valuation": {"kind": "table", "entries": entries},
                "generators": [_POLY]}, message) for entries, message in (
        ([{"value": 2, "val": "inf"}], "only 0 may have value +inf"),
        ([{"value": 1, "val": 1}], "v(1) must be 0"),
        ([{"value": 2, "val": 1}, {"value": 4, "val": 3}],
         "table is not multiplicative at 2*2"))],
    # h2 searches with empty bounds reported passed after 0 candidates, or
    # ended with exit 1
    ("h2", {"p": 2, "infinity_obstruction": {"q": "2", "coeff_bound": -1, "k_max": 2}},
     "-1 is less than the minimum of 1"),
    ("h2", {"p": 2, "infinity_obstruction": {"q": "2", "coeff_bound": 2, "k_max": -2}},
     "-2 is less than the minimum of 1"),
    ("h2", {"p": 2, "zero_obstruction": {"q": 2, "coeff_bound": 2, "size_bound": 0}},
     "0 is less than the minimum of 1"),
    ("h2", {"p": 2, "zero_obstruction": {"q": 2, "coeff_bound": -1, "size_bound": 1}},
     "-1 is less than the minimum of 1"),
    ("h2", {"p": 2, "zero_obstruction": {"q": 2, "coeff_bound": 2, "size_bound": 1,
                                         "k_max": -1}},
     "-1 is less than the minimum of 0"),
    ("h2", {"p": 2, "support_at_zero": {"k": -2, "j_max": 3}},
     "-2 is less than the minimum of 0"),
    ("h2", {"p": 2, "support_at_zero": {"k": 3, "j_max": 2}},
     "j_max 2 is less than k 3"),
    # well-typed trop inputs that ended in exit 1: a table with no value for
    # the prime 2 of the coefficient 2, and a global-z valuation over Q or
    # with two generators
    ("trop", {"rank": 1, "valuation": {"kind": "table", "entries": []},
              "generators": [_POLY]}, "no table value for 2 (prime 2 missing)"),
    ("trop", {"rank": 1, "domain": "Q", "valuation": {"kind": "global-z"},
              "generators": [_POLY]}, "the global variety over Z needs the domain Z"),
    ("trop", {"rank": 1, "valuation": {"kind": "global-z"},
              "generators": [_POLY, _POLY]},
     "the global variety over Z takes one generator"),
    # values the constructors or the computation refused with exit 1: a zero
    # generator, a matrix generator or a start vector of the wrong length
    # (an IndexError from linalg.echelon for the first), a chi whose length
    # is not the rank, an amoeba polynomial with no roots in y, a table that
    # lists a value twice (the last entry won), a coefficient outside Z and
    # a zero ratio
    *[("trop", {"rank": 1, "valuation": {"kind": kind}, "generators": [{"terms": []}]},
       "the zero polynomial has no tropical variety") for kind in ("trivial", "global-z")],
    ("sigma", {"module": {"mode": "matrix", "mats": [[["2", "1"], ["0", "2"]]],
                          "generators": [["1", "0"], []]}},
     "generators must have length 2"),
    ("sigma", {"module": {"mode": "matrix", "mats": [[]], "generators": [[]]}},
     "acting matrices must have a size of at least 1"),
    ("dyn", {"rank": 1, "matrix": [[_POLY]], "chi": ["1", "1"]},
     "chi has length 2, not the rank 1"),
    ("dyn", {"rank": 1, "matrix": [[_POLY]], "start": [_POLY, _POLY]},
     "start has length 2, not the matrix size 1"),
    *[("amoeba", {"poly": {"terms": terms}, "s_grid": [0.0], "angles": 2},
       "the polynomial has no roots in y to follow")
      for terms in ([], [{"exp": [0, 0], "coef": 1}, {"exp": [1, 0], "coef": -1}])],
    ("trop", {"rank": 1, "valuation": {"kind": "table", "entries": [
        {"value": 2, "val": 1}, {"value": "2", "val": 2}]}, "generators": [_POLY]},
     "the table lists 2 twice"),
    ("trop", {"rank": 1, "valuation": {"kind": "trivial"}, "generators": [
        {"terms": [{"exp": [0], "coef": "2/3"}, {"exp": [1], "coef": 1}]}]},
     "2/3 is not integral over ZZ"),
    ("sigma", {"module": {"mode": "scalar", "rhos": ["6", 0]}},
     "scalar actions need nonzero ratios"),
    # JSON Schema's integers: a bool is none, an integral float is one
    ("trop", {"rank": True, "valuation": {"kind": "trivial"}, "generators": [_POLY]},
     "True is not of type 'integer'"),
    ("sigma", {"module": _SCALAR, "box": 0.0}, "0.0 is less than the minimum of 1"),
    # a key of another module mode was echoed into "job" unread; a NaN there
    # ended in exit 1 when the output was written, naming no key
    ("sigma", {"module": {"mode": "scalar", "rhos": ["2", "3"], "rank": float("nan")}},
     "Additional properties are not allowed ('rank' was unexpected)"),
    ("sigma", {"module": {"mode": "matrix", "mats": [[["2"]]], "generators": [["1"]],
                          "domain": "Q"}},
     "Additional properties are not allowed ('domain' was unexpected)"),
    ("group", {"module": {"mode": "cyclic", "rank": 1, "rhos": ["2"]}},
     "Additional properties are not allowed ('rhos' was unexpected)"),
    # h2 maxima: past them a printed count of the family an obstruction's
    # certificate covers could grow past the 4,300 digits str() prints
    ("h2", {"p": 2, "infinity_obstruction": {"q": "2", "coeff_bound": 5, "k_max": 2}},
     "5 is greater than the maximum of 4"),
    ("h2", {"p": 2, "infinity_obstruction": {"q": "2", "coeff_bound": 2, "k_max": 7}},
     "7 is greater than the maximum of 6"),
    ("h2", {"p": 2, "zero_obstruction": {"q": 2, "coeff_bound": 5, "size_bound": 1}},
     "5 is greater than the maximum of 4"),
    ("h2", {"p": 2, "zero_obstruction": {"q": 2, "coeff_bound": 2, "size_bound": 3}},
     "3 is greater than the maximum of 2"),
    ("h2", {"p": 2, "zero_obstruction": {"q": 2, "coeff_bound": 2, "size_bound": 1,
                                         "k_max": 5}},
     "5 is greater than the maximum of 4"),
    # j_max 1000 at p 1000 printed an integer past str()'s 4,300 digits (exit
    # 1); a p of 1000 digits, iters 50 and powers 30 each ran for seconds
    ("h2", {"p": 10 ** 6 + 1, "push": {}},
     "1000001 is greater than the maximum of 1000000"),
    ("h2", {"p": 2, "support_at_zero": {"k": 0, "j_max": 301}},
     "301 is greater than the maximum of 300"),
    ("dyn", {"rank": 1, "matrix": [[_POLY]], "iters": 33},
     "33 is greater than the maximum of 32"),
    ("dyn", {"rank": 1, "matrix": [[_POLY]], "powers": 21},
     "21 is greater than the maximum of 20"),
    # module A's zero-obstruction search is gone: the support at zero shows
    # its witnesses
    ("h2", {"p": 2, "zero_obstruction": {"q": 2, "coeff_bound": 2, "size_bound": 1,
                                         "module": "A"}},
     "Additional properties are not allowed ('module' was unexpected)"),
    # a dyn monomial whose squared length no float holds ended in an
    # OverflowError of the norm's square root (exit 1)
    *[("dyn", {"rank": len(exp), "matrix": [[{"terms": [{"exp": exp, "coef": 1}]}]],
               "iters": 2, "chi": ["1"] * len(exp)},
       "matrix has a monomial whose squared length is past the float range")
      for exp in ([10 ** 200], [10 ** 154, -10 ** 154])],
])
def test_module_gaps_are_schema_errors(tmp_path, capsys, command, payload, message):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"version": 1, "command": command,
                                    "payload": payload}))
    assert main(["--job", str(job_file)]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"type": "schema", "message": message}


def test_integral_floats_are_integers():
    # "rank": 2.0 and "box": 2.0 ended in a TypeError (exit 1)
    trop = {**TROP_JOB, "payload": {**TROP_JOB["payload"], "rank": 2.0}}
    assert run(trop)["result"] == run(TROP_JOB)["result"]
    boxed = {**SIGMA_JOB, "payload": {**SIGMA_JOB["payload"], "box": 2}}
    floated = {**SIGMA_JOB, "payload": {**SIGMA_JOB["payload"], "box": 2.0}}
    assert run(floated)["result"] == run(boxed)["result"]
    padic = {**TROP_JOB, "payload": {**TROP_JOB["payload"],
                                     "valuation": {"kind": "p-adic", "p": 2.0}}}
    assert run(padic)["result"]["fan"]["spherical_rays"] == [[-1, -1], [0, 1], [1, 0]]


CYCLIC_Q_JOB = {
    "version": 1,
    "command": "sigma",
    "payload": {"module": {"mode": "cyclic", "rank": 2, "domain": "Q", "generators": [
        {"terms": [{"exp": [1, 0], "coef": 1}, {"exp": [0, 1], "coef": "2/3"},
                   {"exp": [0, 0], "coef": -1}]}]}},
}

JORDAN_JOB = {
    "version": 1,
    "command": "sigma",
    "payload": {"module": {"mode": "matrix", "mats": [[["2", "1"], ["0", "2"]]],
                           "generators": [["1", "0"], ["0", "1"]]},
                "box": 1},
}

TABLE_JOB = {
    "version": 1,
    "command": "trop",
    "payload": {
        "rank": 1,
        "generators": [{"terms": [{"exp": [1], "coef": 1}, {"exp": [0], "coef": -6}]}],
        "valuation": {"kind": "table", "entries": [{"value": "2", "val": "1"},
                                                   {"value": "3", "val": "0"},
                                                   {"value": "0", "val": "inf"}]},
    },
}

MUTANT_VALUES = [0, -1, 1, 2, 3, "x", "1/0", "2/3", [], {}, None, True, 2.5, "inf",
                 [0], [[]]]


def _paths(doc, path=()):
    """The path of every value inside doc, containers included."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


@pytest.mark.parametrize("job", [TROP_JOB, SIGMA_JOB, GROUP_JOB, DYN_JOB, H2_JOB,
                                 AMOEBA_JOB, CYCLIC_Q_JOB, JORDAN_JOB, TABLE_JOB],
                         ids=["trop", "sigma", "group", "dyn", "h2", "amoeba",
                              "cyclic-q", "jordan", "table"])
def test_one_value_mutants_answer_or_are_schema_errors(job):
    # every input the tool cannot take is a schema error (exit 3), never an
    # exception from the computation (exit 1)
    failures = []
    for path in _paths(job):
        for value in MUTANT_VALUES:
            mutant = json.loads(json.dumps(job))
            node = mutant
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            try:
                run(mutant)
            except SchemaError:
                pass
            except Exception as exc:  # noqa: BLE001 - collected and reported
                failures.append(f"{list(path)} = {value!r}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)


def child_env():
    """The environment for a child process that imports the package this
    process imported, installed or not."""
    src = str(Path(sigmatrop.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_light_jobs_import_neither_sympy_nor_numpy():
    code = ("import json, sys\n"
            "from sigmatrop.cli import run\n"
            "for job in json.loads(sys.argv[1]):\n"
            "    run(job)\n"
            "print(sorted({'sympy', 'numpy', 'jsonschema', 'sigmatrop.integers'}\n"
            "             & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps([TROP_JOB, CYCLIC_Q_JOB])],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _module_job(command, module):
    return {"version": 1, "command": command, "payload": {"module": module}}


def _trop_job(rank, terms, valuation, domain="Z"):
    return {"version": 1, "command": "trop", "payload": {
        "rank": rank, "domain": domain, "valuation": valuation,
        "generators": [{"terms": [{"exp": list(e), "coef": c} for e, c in terms]}]}}


# one job of each kind whose answer needs primes or eigenvalues
DECISION_JOBS = {
    "scalar": _module_job("group", {"mode": "scalar", "rhos": ["6", "10/3"]}),
    "matrix-diag": _module_job("sigma", {
        "mode": "matrix", "mats": [[["2", "1"], ["0", "1/3"]], [["5", "0"], ["0", "5"]]],
        "generators": [["1", "0"], ["0", "1"]]}),
    "matrix-nondiag": {**JORDAN_JOB, "payload": {**JORDAN_JOB["payload"], "box": 2}},
    "cyclic-z": _module_job("sigma", {"mode": "cyclic", "rank": 2, "domain": "Z",
                                      "generators": [{"terms": [
                                          {"exp": [1, 0], "coef": 6},
                                          {"exp": [0, 1], "coef": -1},
                                          {"exp": [0, 0], "coef": 1}]}]}),
    "cyclic-gf": _module_job("sigma", {"mode": "cyclic", "rank": 2, "domain": {"GF": 7},
                                       "generators": [{"terms": [
                                           {"exp": [1, 0], "coef": 3},
                                           {"exp": [0, 1], "coef": 1},
                                           {"exp": [0, 0], "coef": 1}]}]}),
    "p-adic": _trop_job(2, [((1, 0), 4), ((0, 1), 9), ((0, 0), 1)],
                        {"kind": "p-adic", "p": 3}),
    "global-z": _trop_job(2, [((1, 0), 12), ((0, 1), -5), ((0, 0), 1)],
                          {"kind": "global-z"}),
    "table": {**TABLE_JOB, "payload": {**TABLE_JOB["payload"], "domain": "Q", "generators": [
        {"terms": [{"exp": [1], "coef": 1}, {"exp": [0], "coef": "-12/9"}]}]}},
}


@pytest.mark.parametrize("kind", sorted(DECISION_JOBS))
def test_decision_jobs_do_not_import_sympy(kind):
    """Primes, prime tests and eigenvalues come from stdlib integers: a
    fresh process runs each job kind without loading sympy."""
    code = ("import json, sys\n"
            "from sigmatrop.cli import run\n"
            "doc = run(json.loads(sys.argv[1]))\n"
            "print(json.dumps(['sympy' in sys.modules, doc['undecided']]))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(DECISION_JOBS[kind])],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    imported, undecided = json.loads(proc.stdout)
    assert not imported
    assert undecided is (kind == "matrix-nondiag")


SEMIPRIME = (10 ** 24 + 7) * (3 * 10 ** 24 + 7)


def test_semiprime_scalar_job_answers_over_a_composite_base(tmp_path, capsys):
    # 49 digits, two 25-digit primes: rho does not split it, and the
    # complement is exact over the base {N}; the sigma side's certificate
    # 1 - N x^-1 needs a coefficient bound of N
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"version": 1, "command": "sigma", "payload": {
        "module": {"mode": "scalar", "rhos": [str(SEMIPRIME)]}, "coeff_bound": SEMIPRIME}}))
    start = time.perf_counter()
    assert main(["--job", str(job_file)]) == 0
    elapsed = time.perf_counter() - start
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["proved_complement"]["directions"] == [[1]]
    assert res["witnesses"] == [{"direction": [1], "kind": "coprime-base",
                                 "prime": SEMIPRIME, "vector": ["1"]}]
    assert any("composite" in note for note in res["notes"])
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    # beside primes, in the base's order
    res = run(_module_job("sigma", {"mode": "scalar",
                                    "rhos": [f"1/{SEMIPRIME}", "6"]}))["result"]
    assert res["proved_complement"]["directions"] == [[-1, 0], [0, 1]]
    assert res["witnesses"] == [
        {"direction": [0, 1], "kind": "p-adic", "prime": 2, "vector": ["0", "1"]},
        {"direction": [0, 1], "kind": "p-adic", "prime": 3, "vector": ["0", "1"]},
        {"direction": [-1, 0], "kind": "coprime-base", "prime": SEMIPRIME,
         "vector": ["-1", "0"]}]


def test_unsplit_coefficient_exits_one_with_a_structured_error(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(_trop_job(1, [((0,), 1), ((1,), SEMIPRIME)],
                                             {"kind": "global-z"})))
    start = time.perf_counter()
    assert main(["--job", str(job_file)]) == 1
    elapsed = time.perf_counter() - start
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "FactorizationBudgetError"
    assert str(SEMIPRIME) in error["message"]
    assert elapsed < 2.0, f"{elapsed:.2f}s"


BIG_PRIME = 10 ** 12 + 39


def test_square_of_a_prime_past_rho_names_the_prime():
    # rho does not find 10^12 + 39 within the budget; the exact-power test does
    square = [((0,), 1), ((1,), BIG_PRIME ** 2)]
    res = run(_trop_job(1, square, {"kind": "global-z"}))["result"]
    assert res == run(_trop_job(1, [((0,), 1), ((1,), 49)], {"kind": "global-z"}))["result"]
    assert [p["eq"] for p in res["fan"]["pieces"]] == [[{"normal": [1], "rhs": 0}],
                                                       [{"normal": [1], "rhs": -2}]]
    job = _module_job("sigma", {"mode": "scalar", "rhos": [str(BIG_PRIME ** 2)]})
    job["payload"]["coeff_bound"] = BIG_PRIME ** 2
    res = run(job)["result"]
    assert res["proved_complement"]["directions"] == [[1]] and res["notes"] == []
    assert res["witnesses"] == [{"direction": [1], "kind": "p-adic",
                                 "prime": BIG_PRIME, "vector": ["2"]}]


def test_h2_obstructions_at_their_maxima_answer(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"version": 1, "command": "h2", "payload": {
        "p": 2,
        "infinity_obstruction": {"q": "2", "coeff_bound": 4, "k_max": 6},
        "zero_obstruction": {"q": 4, "coeff_bound": 4, "size_bound": 2, "k_max": 4}}}))
    assert main(["--job", str(job_file)]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["infinity_obstruction"]["candidates_checked"] == 9 ** 6
    # 34 elements qualify: 34 singles and C(34, 2) = 561 pairs, 8 coefficients each
    assert res["zero_obstruction"]["combinations_checked"] == 34 * 8 + 561 * 64
    assert res["infinity_obstruction"]["passed"] and res["zero_obstruction"]["passed"]


def test_support_at_zero_at_its_maxima_answers(tmp_path, capsys):
    # the last row prints p^600, 3,601 digits
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"version": 1, "command": "h2", "payload": {
        "p": 10 ** 6, "support_at_zero": {"k": 0, "j_max": 300}}}))
    assert main(["--job", str(job_file)]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["support_at_zero"]["rows"]
    assert len(rows) == 301 and rows[-1]["busemann_arg"] == str(10 ** 3600)


def test_h2_job_with_composite_p(tmp_path, capsys):
    # Z[1/4] = Z[1/2]: 1/2 is an element, which ended in exit 1 for p = 4
    payload = dict(H2_JOB["payload"], p=4)
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(dict(H2_JOB, payload=payload)))
    assert main(["--job", str(job_file)]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert all(res[check]["passed"] for check in res)


def test_amoeba_plot_csv(tmp_path):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(AMOEBA_JOB))
    code = main(["--job", str(job_file), "--out", str(tmp_path / "o.json"),
                 "--plot", str(tmp_path / "plots")])
    assert code == 0
    data = (tmp_path / "plots" / "cloud.csv").read_bytes()
    lines = data.decode().splitlines()
    assert lines[0] == "s,ln_abs_y"
    assert len(lines) == 1 + 4 * 6
    # 12 decimals a value: the roots of y = x are e^s up to the last bits
    assert hashlib.sha256(data).hexdigest() == (
        "138e0b92762f57f9dd8c628aad50bff7ee41b4819ae9cb0c24e90670ab1ea1c7")


def test_console_script_runs(tmp_path):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(SIGMA_JOB))
    proc = subprocess.run(
        [sys.executable, "-m", "sigmatrop.cli", "--job", str(job_file)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["proved_complement"]["directions"] == [[1]]


def test_byte_identical_reruns():
    jobs = [TROP_JOB, SIGMA_JOB, GROUP_JOB, DYN_JOB, H2_JOB, AMOEBA_JOB]
    first = [canonical_json(run(j)) for j in jobs]
    second = [canonical_json(run(j)) for j in jobs]
    assert first == second


def test_plot_rank_guard(tmp_path):
    from sigmatrop.cli import emit_plot_data
    from sigmatrop.polyhedra import Polyhedron, PolyhedralSet

    fan4 = PolyhedralSet(4, [Polyhedron.cone(4, ge=[(1, 0, 0, 0)])])
    with pytest.raises(ValueError):
        emit_plot_data("fan", fan4, tmp_path / "plots")


@pytest.mark.parametrize("job, plot, kind, message", [
    # a rank-4 fan has no plot form
    ({**TROP_JOB, "payload": {
        "rank": 4, "valuation": {"kind": "trivial"},
        "generators": [{"terms": [{"exp": [0, 0, 0, 0], "coef": 1},
                                  {"exp": [1, 1, 0, 0], "coef": 1},
                                  {"exp": [0, 0, 1, 1], "coef": 1}]}]}},
     "plots", "ValueError", "rank <= 3"),
    # the plot directory path is a file
    (TROP_JOB, "taken", "FileExistsError", "taken"),
])
def test_plot_failure_is_a_structured_error(tmp_path, capsys, job, plot, kind, message):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(job))
    (tmp_path / "taken").write_text("")
    code = main(["--job", str(job_file), "--plot", str(tmp_path / plot)])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1
    assert error["type"] == kind and message in error["message"]


def test_out_write_failure_is_a_structured_error(tmp_path, capsys):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(SIGMA_JOB))
    code = main(["--job", str(job_file),
                 "--out", str(tmp_path / "missing" / "x.json")])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1
    assert error["type"] == "FileNotFoundError" and "x.json" in error["message"]


def test_trop_padic_and_table_valuations():
    padic_job = {
        "version": 1,
        "command": "trop",
        "payload": {
            "rank": 1,
            "generators": [{"terms": [{"exp": [1], "coef": 1},
                                      {"exp": [0], "coef": -6}]}],
            "valuation": {"kind": "p-adic", "p": 2},
        },
    }
    doc = run(padic_job)
    pieces = doc["result"]["fan"]["pieces"]
    assert pieces == [{"eq": [{"normal": [1], "rhs": 1}], "ge": [], "gt": [],
                       "empty": False}]

    table_job = json.loads(json.dumps(padic_job))
    table_job["payload"]["valuation"] = {
        "kind": "table",
        "entries": [{"value": "2", "val": "1"}, {"value": "3", "val": "0"},
                    {"value": "0", "val": "inf"}],
    }
    doc2 = run(table_job)
    assert doc2["result"]["fan"]["pieces"] == pieces

    global_job = json.loads(json.dumps(padic_job))
    global_job["payload"]["valuation"] = {"kind": "global-z"}
    doc3 = run(global_job)
    assert len(doc3["result"]["fan"]["pieces"]) == 2  # the origin and the shift


def _cyclic(rank, domain, terms):
    return {"mode": "cyclic", "rank": rank, "domain": domain,
            "generators": [{"terms": [{"exp": list(e), "coef": c} for e, c in terms]}]}


FRONTIER_BUDGET_S = 5.0


@pytest.mark.parametrize("rhos", [["6", "10/3"], ["2", "3", "5"], ["2", "3", "7"]])
def test_frontier_group_jobs_answer(rhos):
    job = {"version": 1, "command": "group",
           "payload": {"module": {"mode": "scalar", "rhos": rhos}, "fpm": [1, 2]}}
    start = time.perf_counter()
    doc = run(job)
    elapsed = time.perf_counter() - start
    result = doc["result"]
    assert result["finitely_presented"] is True
    assert result["fp_infinity"] is True
    assert result["sigma"]["undecided"]["empty"] is True
    assert doc["undecided"] is False
    assert elapsed < FRONTIER_BUDGET_S, f"{rhos}: {elapsed:.2f}s"


def test_large_eigenvalue_matrix_group_job_answers():
    # diag(n, 1/n), n = 12252240 = 2^4 3^2 5 7 11 13 17: the eigenvalues come
    # from factoring the characteristic polynomial, not from n's divisors
    module = {"mode": "matrix", "mats": [[["12252240", "0"], ["0", "1/12252240"]]],
              "generators": [["1", "0"], ["0", "1"]]}
    start = time.perf_counter()
    doc = run({"version": 1, "command": "group", "payload": {"module": module}})
    elapsed = time.perf_counter() - start
    assert doc["result"]["finitely_presented"] is False
    assert doc["undecided"] is False
    assert elapsed < 2.0, f"{elapsed:.2f}s"


def test_frontier_eight_term_cyclic_over_q_answers():
    module = _cyclic(2, "Q", [((-1, -1), 2), ((-1, 1), 1), ((0, 0), 1),
                              ((0, 1), -1), ((1, 0), 2), ((1, 2), "1/2"),
                              ((2, -1), -3), ((2, 1), 3)])
    start = time.perf_counter()
    doc = run({"version": 1, "command": "sigma", "payload": {"module": module}})
    elapsed = time.perf_counter() - start
    assert doc["result"]["undecided"]["empty"] is True
    assert doc["undecided"] is False
    assert elapsed < FRONTIER_BUDGET_S, f"{elapsed:.2f}s"


def test_frontier_rank_four_cyclic_over_q_answers():
    # over a field one generator leaves nothing undecided: every direction is
    # in a vertex cone or on the hypersurface, and no set complement is taken
    module = _cyclic(4, "Q", [((-2, -2, 2, -2), 5), ((-2, 1, 0, -1), -4),
                              ((-2, 1, 1, 1), 5), ((-2, 1, 1, 2), 3),
                              ((-1, 2, -2, 0), -2), ((1, -1, -2, 1), 3),
                              ((1, -1, 1, -2), 4), ((2, -2, 0, -2), -2)])
    start = time.perf_counter()
    doc = run({"version": 1, "command": "sigma", "payload": {"module": module}})
    elapsed = time.perf_counter() - start
    assert doc["result"]["undecided"]["empty"] is True
    assert doc["undecided"] is False
    assert elapsed < FRONTIER_BUDGET_S, f"{elapsed:.2f}s"


def test_frontier_cyclic_over_z_answers_undecided(monkeypatch):
    # every coefficient of f is even, so every f*h has even coefficients and
    # no certificate with constant term 1 exists: no coefficient is +-1,
    # nothing is proved in sigma, and no integer system is built
    solves = counting(monkeypatch, linalg, "solve_integer")
    module = _cyclic(2, "Z", [((0, 0), 2), ((1, 0), -2), ((1, 2), -2),
                              ((2, 1), -2)])
    start = time.perf_counter()
    doc = run({"version": 1, "command": "sigma", "payload": {"module": module}})
    elapsed = time.perf_counter() - start
    result = doc["result"]
    assert result["proved_sigma"]["empty"] is True
    assert len(result["undecided"]["pieces"]) == 12
    assert result["notes"][0] == (
        "12 pieces lie in no open vertex cone of a monomial with coefficient +-1, "
        "so no multiple of the generator has initial part 1 on a whole piece")
    assert doc["undecided"] is True
    assert solves == []
    assert elapsed < FRONTIER_BUDGET_S, f"{elapsed:.2f}s"


def _main_on(tmp_path, command, module):
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"version": 1, "command": command,
                                    "payload": {"module": module}}))
    return main(["--job", str(job_file), "--out", str(tmp_path / "out.json")])


def test_only_a_unit_of_the_domain_makes_the_module_zero(tmp_path, capsys):
    # 2x is not a unit over Z: ZG/(2x) = ZG/(2) is F_2 G, free, with empty
    # sigma.  Its sigma job exited 0 with the whole sphere as sigma.
    two_x = _cyclic(2, "Z", [((1, 0), 2)])
    assert _main_on(tmp_path, "sigma", two_x) == 2
    result = json.loads((tmp_path / "out.json").read_text())["result"]
    assert result["proved_sigma"]["empty"] is True
    assert result["certificates"] == []
    # rank-1 ZG/(2) gives the lamplighter Z/2 wr Z, which is not finitely
    # presented; it was answered true, and the content rule leaves it undecided
    doc = run({"version": 1, "command": "group",
               "payload": {"module": _cyclic(1, "Z", [((0,), 2)])}})
    assert doc["result"]["finitely_presented"] == "undecided"
    # a unit makes the module zero, with one certificate, 1, for the sphere
    for module in (_cyclic(2, "Z", [((1, 0), -1)]), _cyclic(1, "Q", [((1,), 2)])):
        result = run({"version": 1, "command": "sigma",
                      "payload": {"module": module}})["result"]
        assert result["undecided"]["empty"] is True
        assert [c["poly"]["terms"] for c in result["certificates"]] == [
            [{"exp": [0] * module["rank"], "coef": "1"}]]
    # several generators over Z are not supported, 2 among them; this exited 0
    capsys.readouterr()
    two_gens = _cyclic(1, "Z", [((0,), 2)])
    two_gens["generators"].append({"terms": [{"exp": [0], "coef": 1},
                                             {"exp": [1], "coef": 1}]})
    assert _main_on(tmp_path, "sigma", two_gens) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "UnsupportedModeError"


def test_amoeba_min_radius_zero_skips_points_at_the_origin(tmp_path, capsys):
    # at s = 0 the curve y = x passes through (0, 0), which has no direction;
    # binning it divided by zero (exit 1)
    job = json.loads(json.dumps(AMOEBA_JOB))
    job["payload"].update(s_grid=[0.0, 1.0], angles=4, min_radius=0)
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps(job))
    assert main(["--job", str(job_file)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["limit_directions"]["directions"]


def test_rank_seven_sigma_job_stops_at_the_ray_rank_guard(tmp_path, capsys):
    job = {"version": 1, "command": "sigma",
           "payload": {"module": {"mode": "scalar",
                                  "rhos": ["2", "3", "5", "7", "11", "13", "17"]}}}
    job_file = tmp_path / "rank7.json"
    job_file.write_text(json.dumps(job))
    start = time.perf_counter()
    code = main(["--job", str(job_file)])
    elapsed = time.perf_counter() - start
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 1
    assert error["type"] == "ValueError" and "rank <= 6" in error["message"]
    assert elapsed < 10.0, f"{elapsed:.2f}s"


def test_h2_infinity_obstruction_at_q_at_most_one():
    # Im i = 1 >= 1/3: the identity lies over the horoball and maps to 1 in A
    res = run({"version": 1, "command": "h2", "payload": {
        "p": 3, "infinity_obstruction": {"q": "1/3", "coeff_bound": 2, "k_max": 2}}})
    inf = res["result"]["infinity_obstruction"]
    assert not inf["passed"] and inf["witness"] == [[0, 1]]
    assert inf["candidates_checked"] == 1 and not inf["symbolic_applies"]


def test_fpm_of_sixteen_complement_directions_answers(tmp_path, capsys):
    # coefficient 1 on the 16 lattice points of x^2 + y^2 = 65: the
    # complement is the 16 normal rays of a 16-gon, more than the 12 the
    # subset loop takes.  m = 1 and m = 3 > rank need no subsets; they
    # exited 1 with "combinatorial guard: complement size <= 12".
    points = sorted({(s * a, t * b) for a, b in ((1, 8), (8, 1), (4, 7), (7, 4))
                     for s in (1, -1) for t in (1, -1)})
    module = _cyclic(2, "Q", [(g, 1) for g in points])
    job_file = tmp_path / "job.json"
    job_file.write_text(json.dumps({"version": 1, "command": "group", "payload": {
        "module": module, "fpm": [1, 2, 3, 4]}}))
    out_file = tmp_path / "out.json"
    assert main(["--job", str(job_file), "--out", str(out_file)]) == 0
    result = json.loads(out_file.read_text())["result"]
    assert len(result["sigma"]["proved_complement"]["directions"]) == 16
    assert {m: v["value"] for m, v in result["fpm"].items()} == {
        "1": True, "2": False, "3": False, "4": False}
    assert result["finitely_presented"] is False
