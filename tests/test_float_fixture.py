"""A fresh run against the recorded float fixture in tests/golden/.

Exact fields must be byte-identical and float fields inside a budget of
BUDGET times their own check's tolerance; see float_fixture.py for the
rule, the before/after table and re-recording.
"""

import json

import pytest

from float_fixture import (BUDGET, FLOW_TOL, GOLDEN, compare, compare_all,
                           table)


def test_fresh_run_matches_the_float_fixture():
    rows = compare_all()
    bad = [r for r in rows if not r["ok"]]
    assert not bad, "\n" + table(bad)


def _verify_record():
    return (GOLDEN / "verify_irregular_seed11.json").read_text()


def _with_check(text, name, key, value):
    doc = json.loads(text)
    for c in doc["checks"]:
        if c["name"] == name:
            c[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize("factor, ok", [(0.5, True), (2.0, False)])
def test_a_float_observation_is_held_to_its_own_tolerance(factor, ok):
    before = _verify_record()
    check = next(c for c in json.loads(before)["checks"]
                 if c["name"] == "moment_bracket_closure")
    moved = float(check["observed"]) + factor * BUDGET * float(
        check["tolerance"])
    after = _with_check(before, "moment_bracket_closure", "observed",
                        repr(moved))
    rows = compare("verify_irregular_seed11.json", before, after)
    assert len(rows) == 1 and rows[0]["ok"] is ok


@pytest.mark.parametrize("name, key, value", [
    ("pi1_rank", "observed", "[6]"),
    ("moment_bracket_closure", "pass", False),
    ("moment_bracket_closure", "expected", "0"),
])
def test_an_exact_field_must_be_byte_identical(name, key, value):
    before = _verify_record()
    rows = compare("verify_irregular_seed11.json", before,
                   _with_check(before, name, key, value))
    assert [r["ok"] for r in rows] == [False]


def test_config_and_csv_are_compared():
    before = _verify_record()
    doc = json.loads(before)
    doc["config"]["samples"] = 21
    assert not compare("verify_irregular_seed11.json", before,
                       json.dumps(doc))[0]["ok"]
    csv = (GOLDEN / "trajectory_irregular.csv").read_text()
    header, first, rest = csv.split("\n", 2)
    cells = first.split(",")
    cells[1] = repr(float(cells[1]) + 2 * BUDGET * FLOW_TOL)
    rows = compare("trajectory_irregular.csv", csv,
                   "\n".join([header, ",".join(cells), rest]))
    assert [r["ok"] for r in rows] == [False]
    rows = compare("trajectory_irregular.csv", csv,
                   csv.replace("t,", "time,", 1))
    assert [r["ok"] for r in rows] == [False]
