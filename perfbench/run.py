"""The su3mag benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``certify``, ``flow`` and ``exact``.  Each
run starts a fresh Python process, so it pays the cold start every
``su3mag`` command pays: that process imports su3mag, constructs the
workload's algebras and systems (``setup_s``, one cold set-up per run),
then runs checked passes of the workload, one at a time, for about
``--seconds`` seconds.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of ``layers.py``, taken from
pairs of an untraced and a traced pass on the same seed, and the tracing
overhead.  Every line before
the last is for people; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
provenance goes to ``perfbench/results/``.

End-to-end metrics (the two times are normalized to a fixed host speed
by ``hostspeed.py``; the times as measured are printed beside them and
kept in the result file):

* ``setup_s``: cold import plus construction of every algebra or
  ``MagneticSystem`` the workload uses.
* ``pass_s``: median time of one pass: ``run_verification`` for the
  irregular case (``certify``); one ``su3mag flow`` run of 10k RK4 steps
  with its exports for both cases (``flow``); every exact output
  (``exact``).
* ``peak_rss_mb``: peak resident memory of the measuring process.

Failed operations are counted in ``failed`` against ``attempted``.  The
per-workload times (``verify_irregular_s``, ``flow_s_per_10k_steps``,
``exact_s``, as measured) and ``fail_ratio`` are printed and kept in the
result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_worker(spec, deadline):
    """Run one worker process to completion; returns its JSON result."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("no time left for another process")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    env["PYTHONHASHSEED"] = "0"
    out = Path(spec["out"])
    out.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def tail_percentile(values, tail=10):
    """The highest percentile with at least ``tail`` samples beyond it.

    Returns (percent, value), or None with fewer than tail + 1 samples.
    """
    n = len(values)
    if n <= tail:
        return None
    k = n - tail - 1
    return 100.0 * (k + 1) / n, sorted(values)[k]


def describe(values):
    n = len(values)
    pct = tail_percentile(values)
    hi = (f"p{pct[0]:.0f} {pct[1]:.4f}" if pct else
          "no percentile: needs 11 samples")
    return f"median of {n}; {hi}"


def workload_times(workload, passes):
    """Per-workload times, as medians over the run's passes."""
    med = statistics.median
    if workload == "certify":
        return {f"verify_{case}_s": med(p["parts"][f"verify_{case}_s"]
                                        for p in passes)
                for case in workloads.CERTIFY_CASES}
    if workload == "flow":
        per_10k = [p["wall_s"] * 1e4 / max(1, sum(
            p["parts"].get(f"steps_{c}", 0) for c in workloads.CASES))
            for p in passes]
        return {"flow_s_per_10k_steps": med(per_10k)}
    return {"exact_s": med(p["parts"]["exact_s"] for p in passes)}


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args):
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timer": "time.perf_counter",
        "host_probe": {"period_s": hostspeed.PERIOD_S,
                       "reference_probe_s": hostspeed.REFERENCE_PROBE_S},
        "sizes": {
            "certify": dict(workloads.CERTIFY_CONFIG,
                            cases=workloads.CERTIFY_CASES),
            "flow": {"eps": workloads.FLOW_EPS, "t_end": workloads.FLOW_T_END,
                     "dt": workloads.FLOW_DT,
                     "max_rows": workloads.FLOW_MAX_ROWS},
            "exact": {"eps_choices": workloads.EXACT_EPS,
                      "centralizers": workloads.CENTRALIZERS},
        },
    }


def measure(args):
    """Run the workers of one benchmark run; returns the result document."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.perf_counter() + RUN_LIMIT_S
    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "out": str(RESULTS / f"{stem}.worker.json"),
            "spans": str(RESULTS / f"{args.workload}-seed{args.seed}"
                                   ".spans.npz")}
    raw = run_worker(spec, deadline)
    Path(spec["out"]).unlink(missing_ok=True)

    passes = raw["passes"] + raw.get("traced_passes", [])
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [p["error"] for p in passes if p["error"]]
    walls = [p["wall_s"] for p in raw["passes"]]
    norms = [p.get("norm_s") for p in raw["passes"]]  # untraced runs only
    doc = {
        "provenance": provenance(args),
        "setup_wall_s": raw["setup_s"],
        "setup_norm_s": raw.get("setup_norm_s"),
        "pass_wall_s": walls,
        "pass_norm_s": norms,
        "workload_times": workload_times(args.workload, raw["passes"]),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": [f for p in passes for f in p["failures"]][:50],
        "errors": errors[:5],
        "worker": raw,
    }
    if args.trace:
        doc["metrics"] = raw["per_layer"]
        doc["spans_file"] = Path(spec["spans"]).name
    else:
        values = {"setup_s": raw["setup_norm_s"],
                  "pass_s": statistics.median(norms),
                  "peak_rss_mb": raw["peak_rss_mb"]}
        doc["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END}
    (RESULTS / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n",
                                          encoding="utf-8")
    return doc


def print_report(args, doc):
    print(f"su3mag benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    if args.trace:
        for name, m in doc["metrics"].items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        overhead = doc["metrics"]["trace.overhead_ratio"]["value"]
        print(f"tracing overhead: {overhead:+.1%} of the untraced passes' "
              "wall time; waiting time is zero (one thread, nothing to wait "
              "for)")
    else:
        m = doc["metrics"]
        print(f"  setup_s      {m['setup_s']['value']:.4f} s  "
              f"(one cold set-up; {doc['setup_wall_s']:.4f} s as measured)")
        print(f"  pass_s       {m['pass_s']['value']:.4f} s  "
              f"({describe(doc['pass_norm_s'])}; "
              f"{statistics.median(doc['pass_wall_s']):.4f} s as measured)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']['value']:.1f} MB")
        for name, value in doc["workload_times"].items():
            print(f"  {name:20s} {value:.4f} s  (median over passes)")
    print(f"  fail_ratio   {doc['fail_ratio']:.4g}  ({doc['failed']} of "
          f"{doc['attempted']} ops failed)")
    for f in doc["failures"][:10]:
        print(f"  FAILED {f['name']}: {f['detail']}")
    for e in doc["errors"][:1]:
        print("  a pass raised:\n" + e.rstrip())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "su3mag" / "__init__.py").is_file():
        print(f"error: no su3mag sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        doc = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(args, doc)
    print(json.dumps({"correct": doc["failed"] == 0 and doc["attempted"] > 0,
                      "attempted": doc["attempted"], "failed": doc["failed"],
                      "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
