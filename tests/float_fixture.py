"""The float fixture: recorded `verify` and `flow` outputs, and the rule
that compares a fresh run against them.

`tests/golden/` holds
  * the `verify` JSON of both cases at seeds 11 and 12 (samples=20,
    rank_samples=5, t_end=1);
  * the `su3mag flow` CSV and conservation JSON of both cases (seed 5,
    t_end=0.5).

A fresh run matches the records when
  * every exact field is byte-identical: names, expected values, exact
    observations, `config`, `known_deviations`, `nsteps`, the CSV header
    and every pass flag;
  * every float observation of a check is within BUDGET times that
    check's own tolerance;
  * every CSV float and every `initial`/`max_drift` of the conservation
    report is within BUDGET times the conservation tolerance.

Run from the repository root:

    PYTHONPATH=src python tests/float_fixture.py            # the table
    PYTHONPATH=src python tests/float_fixture.py --record   # re-record

The first form prints the fields that moved, before and after, as a
table for the change log; re-recording is a separate, deliberate run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = ("regular", "irregular")
VERIFY_SEEDS = (11, 12)
VERIFY_ARGS = ("--samples", "20", "--rank-samples", "5", "--t-end", "1")
FLOW_ARGS = ("--seed", "5", "--t-end", "0.5")
# the budget, as a fraction of a check's own tolerance
BUDGET = 1e-3
# the tolerance of the conservation report and its CSV floats
FLOW_TOL = 1e-8


def fresh_outputs():
    """{record file name: text} of a fresh run of every recorded output."""
    from su3mag.cli import main
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for case in CASES:
            for seed in VERIFY_SEEDS:
                _quiet(main, ["verify", "--case", case, "--seed", str(seed),
                              *VERIFY_ARGS, "--out", str(tmp)])
                out[f"verify_{case}_seed{seed}.json"] = \
                    (tmp / f"verify_{case}.json").read_text()
            _quiet(main, ["flow", "--case", case, *FLOW_ARGS,
                          "--out", str(tmp)])
            for name in (f"trajectory_{case}.csv",
                         f"conservation_{case}.json"):
                out[name] = (tmp / name).read_text()
    return out


def _quiet(main, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)


# ---------------------------------------------------------------------------
# comparison: one row per field that is not byte-identical
# ---------------------------------------------------------------------------

def _row(field, before, after, tol=None):
    """A moved field; a float field with its |delta| / tol and budget."""
    if tol is None:
        return {"field": field, "before": before, "after": after,
                "ratio": None, "ok": False}
    try:
        delta = abs(float(after) - float(before))
    except ValueError:
        delta = math.nan
    ratio = delta / tol
    return {"field": field, "before": before, "after": after,
            "ratio": ratio, "ok": ratio <= BUDGET}


def compare_verify(name, before, after):
    b, a = json.loads(before), json.loads(after)
    rows = [_row(f"{name} {key}", json.dumps(b.get(key)),
                 json.dumps(a.get(key)))
            for key in sorted(set(b) | set(a))
            if key != "checks" and b.get(key) != a.get(key)]
    if [c["name"] for c in b["checks"]] != [c["name"] for c in a["checks"]]:
        return rows + [_row(f"{name} check names",
                            [c["name"] for c in b["checks"]],
                            [c["name"] for c in a["checks"]])]
    for cb, ca in zip(b["checks"], a["checks"]):
        for key in ("expected", "tolerance", "pass"):
            if cb[key] != ca[key]:
                rows.append(_row(f"{name} {cb['name']}.{key}", cb[key],
                                 ca[key]))
        if cb["observed"] != ca["observed"]:
            tol = None if cb["tolerance"] == "'exact'" \
                else float(cb["tolerance"])
            rows.append(_row(f"{name} {cb['name']}.observed",
                             cb["observed"], ca["observed"], tol))
    return rows


def compare_conservation(name, before, after):
    b, a = json.loads(before), json.loads(after)
    rows = [_row(f"{name} {key}", b.get(key), a.get(key))
            for key in sorted(set(b) | set(a))
            if key != "functions" and b.get(key) != a.get(key)]
    fb, fa = b["functions"], a["functions"]
    if [f["function"] for f in fb] != [f["function"] for f in fa]:
        return rows + [_row(f"{name} functions", fb, fa)]
    for eb, ea in zip(fb, fa):
        for key in sorted(set(eb) | set(ea)):
            if eb.get(key) == ea.get(key):
                continue
            tol = FLOW_TOL if key in ("initial", "max_drift") else None
            rows.append(_row(f"{name} {eb['function']}.{key}",
                             eb.get(key), ea.get(key), tol))
    return rows


def compare_csv(name, before, after):
    b = list(csv.reader(io.StringIO(before)))
    a = list(csv.reader(io.StringIO(after)))
    if b[0] != a[0] or len(b) != len(a):
        return [_row(f"{name} header/rows", (b[0], len(b)),
                     (a[0], len(a)))]
    rows = []
    for r, (rb, ra) in enumerate(zip(b[1:], a[1:]), start=1):
        for col, vb, va in zip(b[0], rb, ra):
            if vb != va:
                rows.append(_row(f"{name} row {r} {col}", vb, va, FLOW_TOL))
    return rows


def compare(name, before, after):
    if name.startswith("verify_"):
        return compare_verify(name, before, after)
    if name.startswith("conservation_"):
        return compare_conservation(name, before, after)
    return compare_csv(name, before, after)


def compare_all(fresh=None):
    """Rows of every field of a fresh run that differs from its record."""
    fresh = fresh_outputs() if fresh is None else fresh
    rows = []
    for name, text in sorted(fresh.items()):
        path = GOLDEN / name
        if not path.exists():
            rows.append(_row(f"{name}", "(no record)", "(fresh output)"))
            continue
        rows += compare(name, path.read_text(), text)
    return rows


def table(rows):
    lines = ["| field | before | after | abs(delta)/tol |",
             "|---|---|---|---|"]
    for r in rows:
        ratio = "exact" if r["ratio"] is None else f"{r['ratio']:.1e}"
        flag = "" if r["ok"] else " (over budget)"
        lines.append(f"| {r['field']} | {r['before']} | {r['after']} "
                     f"| {ratio}{flag} |")
    return "\n".join(lines)


def main(argv):
    fresh = fresh_outputs()
    if "--record" in argv:
        GOLDEN.mkdir(exist_ok=True)
        for name, text in sorted(fresh.items()):
            (GOLDEN / name).write_text(text)
        print(f"recorded {len(fresh)} files in {GOLDEN}")
        return 0
    rows = compare_all(fresh)
    print(table(rows) if rows else "every recorded field is byte-identical")
    return 0 if all(r["ok"] for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
