"""One benchmark process: cold set-up, then the measured passes.

Started by ``run.py`` as ``python3 perfbench/worker.py '<json spec>'`` with
``src`` on ``PYTHONPATH``; writes its raw results as JSON to the spec's
``out`` path.  Spec keys: ``workload``, ``seed``, ``seconds``, ``trace``
(0 or 1), ``out`` and, for a traced run, ``spans`` (where the spans are
written).

Untraced, the process runs passes until the next one would end more than
half a pass past ``seconds``, with the host-speed probe of ``hostspeed.py``
running from before set-up to the last pass; set-up and every pass are
recorded both as measured and normalized to a fixed host speed.  Traced,
it spends ``seconds`` on pairs of passes, one untraced and one with every
layer wrapped, on the same seed; the traced passes' extra wall time is the
tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
import traceback

import hostspeed
import layers
import workloads
from tracer import Tracer


def set_up(workload, tracer):
    """Import the workload's modules and construct its algebras and systems.

    With a tracer, each module is wrapped as soon as it is imported, so a
    build run at import time (``su3mag.angles``) is traced as well.
    """
    done = set()
    for name in workloads.IMPORTS[workload]:
        importlib.import_module(name)
        if tracer is not None:
            layers.install(tracer, _su3mag_modules(), done)
    return workloads.setup(workload)


def _su3mag_modules():
    return {k: v for k, v in sys.modules.items()
            if k == "su3mag" or k.startswith("su3mag.")}


def run_passes(workload, state, seeds, reference, budget_s=None, host=None):
    """Run passes over ``seeds``; with a budget, stop when it is used up.

    With a running ``HostSpeed``, each pass also gets its normalized time.
    """
    run_pass = workloads.PASSES[workload]
    passes = []
    t_start = time.perf_counter()
    for seed in seeds:
        if budget_s is not None and passes:
            typical = statistics.median(p["wall_s"] for p in passes)
            if time.perf_counter() - t_start + 0.5 * typical > budget_s:
                break
        mark = len(host.durations) if host is not None else 0
        t0 = time.perf_counter()
        try:
            ops, parts = run_pass(state, seed, reference)
            error = None
        except Exception:  # a pass that raises fails all of its ops
            error = traceback.format_exc()
            ops = [workloads.Op(name, False, "the pass raised") for name in
                   workloads.op_names(workload, reference, seed)]
            parts = {}
        wall = time.perf_counter() - t0
        failures = [op.as_dict() for op in ops if not op.ok]
        passes.append({"seed": seed, "wall_s": wall, "parts": parts,
                       "ops": len(ops), "failed": len(failures),
                       "failures": failures[:20], "error": error})
        if host is not None:
            passes[-1]["norm_s"] = hostspeed.normalize(
                wall, host.durations[mark:])
    return passes


def run_traced(workload, state, seeds, reference, budget_s, tracer):
    """Pairs of one untraced and one traced pass of the same seed.

    The two passes of a pair run back to back, in alternating order, so
    that a drift in host speed or a first-pass cost does not land on one
    side only.  Traced pass i carries run id i.
    """
    plain, traced = [], []
    t_start = time.perf_counter()
    for i, seed in enumerate(seeds, start=1):
        if traced:
            pair = statistics.median(
                a["wall_s"] + b["wall_s"] for a, b in zip(plain, traced))
            if time.perf_counter() - t_start + 0.5 * pair > budget_s:
                break
        for on in ((False, True) if i % 2 else (True, False)):
            if on:
                layers.install(tracer, _su3mag_modules(), set())
                tracer.current_run = i
                traced += run_passes(workload, state, [seed], reference)
                tracer.uninstall()
            else:
                plain += run_passes(workload, state, [seed], reference)
    return plain, traced


def main(spec):
    workload = spec["workload"]
    tracer = Tracer() if spec.get("trace") else None
    host = hostspeed.HostSpeed() if tracer is None else None
    if host is not None:
        host.start()
    t0 = time.perf_counter()
    state = set_up(workload, tracer)
    result = {"setup_s": time.perf_counter() - t0}
    if host is not None:
        result["setup_norm_s"] = hostspeed.normalize(result["setup_s"],
                                                     host.durations)
    reference = workloads.load_reference()
    seconds = float(spec["seconds"])
    seeds = workloads.pass_seeds(int(spec["seed"]), 10_000)
    if tracer is None:
        result["passes"] = run_passes(workload, state, seeds, reference,
                                      seconds, host)
        host.stop()
    else:
        counters_setup = dict(tracer.counters)
        tracer.uninstall()
        plain, traced = run_traced(workload, state, seeds, reference,
                                   seconds, tracer)
        overhead = (sum(p["wall_s"] for p in traced)
                    / sum(p["wall_s"] for p in plain) - 1.0)
        result["passes"] = plain
        result["traced_passes"] = traced
        result["per_layer"] = layers.compute(
            tracer, len(traced), counters_setup,
            layers.scalar_mul_ns(_algebras()), overhead)
        tracer.dump(spec["spans"])
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _algebras():
    from su3mag.algebra import build_su2, build_su3_chevalley, \
        build_su3_gellmann
    return [build_su3_gellmann(), build_su3_chevalley(), build_su2()]


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
