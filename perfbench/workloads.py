"""The benchmark's workloads: set-up, one pass of work, and output checks.

Each workload is a closed loop: one pass at a time, in one process, with
nothing running beside it.  A pass takes a seed, so the benchmark's own
``--seed`` fixes every input.  Every pass is checked, and an operation
counts as failed when its output is wrong or when the call raises.

* ``certify``: ``reports.run_verification`` for the irregular case, the
  paper's headline artefact, at the reduced size of ``CERTIFY_CONFIG``.
  A traced run (two passes, seed 11) puts 58% of a pass in the numeric
  HVF layer (``center_check`` 45%, the bracket samples, ranks and the
  dimension ledger, through ``differential``, ``np_bracket``,
  ``coords_of_matrix`` and ``Polynomial.evaluate``), 14% in ``angles``,
  16% in the RK4 flow and its drift and Lax checks, and 9% in exact work
  (the invariant solver and polynomial products), with 3% in
  ``run_verification`` itself, part of it exact.  The regular case is
  left out: its ``angle_action_pairing`` check fails on about 3% of the
  chart points it draws (residual up to 4e-4 against 1e-5, where the
  frequency matrix is near singular), so a run of it fails operations on
  a defect of the program, whatever the change under test.
* ``flow``: the ``su3mag flow`` path for both cases from a seeded regular
  point: ``integrate_flow`` then the CSV and conservation exports.  One
  long sequential loop of 3x3 work and per-step objects, with no HVF
  solves and no invariant solver; memory grows with the step count.
* ``exact``: every exact output: bracket tables, centralizer reports,
  shift restrictions of the Casimirs and ``serialize()`` of the three
  algebras.  Exact scalars, exact linear algebra, polynomials and the
  invariant solver, with no floating-point numerics.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CASES = ("regular", "irregular")

# certify: the irregular case (see the module docstring) at a reduced
# run_verification config, so that several passes fit a run
CERTIFY_CASES = ("irregular",)
CERTIFY_CONFIG = {"eps": 0.1, "samples": 20, "rank_samples": 5,
                  "t_end": 1.0, "dt": 1e-3}

# flow: the su3mag flow defaults (10k RK4 steps per case, 2000 CSV rows)
FLOW_EPS = 0.1
FLOW_T_END = 10.0
FLOW_DT = 1e-3
FLOW_MAX_ROWS = 2000
LAX_TOL = 1e-8

# exact: bracket tables are made at an eps drawn from this set; every
# other exact output does not depend on eps
EXACT_EPS = (0.1, 0.2, 0.25, 0.5)
CENTRALIZERS = (("su3", "torus", True, 6), ("su3", "irregular-A", True, 6),
                ("su3", "torus", False, 4), ("su2", "torus", False, 4))

IMPORTS = {
    "certify": ("su3mag", "su3mag.reports", "su3mag.angles"),
    "flow": ("su3mag", "su3mag.reports"),
    "exact": ("su3mag", "su3mag.reports"),
}

WORKLOADS = tuple(IMPORTS)


def pass_seeds(seed, count):
    """The per-pass seeds a run draws from its own seed."""
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(count)]


def load_reference():
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Op:
    """One checked operation: a certificate check, a monitored integral,
    a trajectory, or one exact output."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail

    def as_dict(self):
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload):
    """Construct every algebra and system the workload uses."""
    from su3mag import algebra, reports
    state = {}
    if workload == "exact":
        for name, build in (("gellmann", algebra.build_su3_gellmann),
                            ("chevalley", algebra.build_su3_chevalley),
                            ("su2", algebra.build_su2)):
            state[name] = build()
        return state
    if workload == "certify":
        cases, eps = CERTIFY_CASES, CERTIFY_CONFIG["eps"]
    else:
        cases, eps = CASES, FLOW_EPS
    for case in cases:
        state[case] = reports.make_system(case, eps)
    if workload == "certify":
        algebra.build_su2()
    return state


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def check_certificate(report, expected_exact):
    """One op per certificate check the reference lists for the case.

    An exact check must pass and observe the reference value; a numeric
    check must pass and keep its residual under its own tolerance.  A check
    the reference lists but the report lacks is a failed op.
    """
    ops = []
    seen = set()
    for c in report.checks:
        seen.add(c.name)
        name = f"{report.case_tag}/{c.name}"
        if c.name not in expected_exact["checks"]:
            ops.append(Op(name, False, "check not in the reference"))
        elif c.tolerance == "exact":
            want = expected_exact["checks"][c.name]
            ok = c.passed and repr(c.observed) == want
            ops.append(Op(name, ok, "" if ok else
                          f"observed {c.observed!r}, reference {want}"))
        else:
            ok = c.passed and isinstance(c.observed, float) \
                and c.observed < float(c.tolerance)
            ops.append(Op(name, ok, "" if ok else
                          f"residual {c.observed!r} >= tol {c.tolerance!r}"))
    for missing in sorted(set(expected_exact["checks"]) - seen):
        ops.append(Op(f"{report.case_tag}/{missing}", False,
                      "check missing from the report"))
    return ops


def certify_pass(state, seed, reference):
    from su3mag import reports
    ops, parts = [], {}
    for case in CERTIFY_CASES:
        config = reports.default_config(case)
        config.update(CERTIFY_CONFIG, seed=seed)
        t0 = time.perf_counter()
        try:
            report = reports.run_verification(config)
        except Exception as exc:  # a raising case fails all of its ops
            parts[f"verify_{case}_s"] = time.perf_counter() - t0
            ops += [Op(f"{case}/{name}", False, f"raised {exc!r}")
                    for name in reference["certify"][case]["checks"]]
            continue
        parts[f"verify_{case}_s"] = time.perf_counter() - t0
        ops += check_certificate(report, reference["certify"][case])
    return ops, parts


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------

def flow_steps_ok(traj, t_end, dt):
    """Guard against a vacuous flow: the trajectory must hold every step.

    Returns (ok, detail).  Zero steps, or fewer than round(t_end/dt), fail.
    """
    want = int(round(t_end / dt))
    steps = len(traj.points) - 1
    if steps <= 0:
        return False, f"trajectory has {steps} steps"
    if steps < want or len(traj.times) != len(traj.points):
        return False, f"trajectory has {steps} steps, expected {want}"
    return True, ""


def check_flow(sys_, traj, fns, csv_text, cons_text, stride, t_end, dt):
    """Ops for one exported flow: the trajectory, then each integral."""
    import numpy as np
    from su3mag import phase
    case = sys_.case_tag
    ok, detail = flow_steps_ok(traj, t_end, dt)
    if ok:
        lax = float(np.abs(traj.points[-1].X - phase.closed_form_fiber(
            sys_, traj.points[0], traj.times[-1])).max())
        rows = len(csv_text.splitlines()) - 1
        want_rows = math.ceil(len(traj.points) / stride)
        if not lax < LAX_TOL:
            ok, detail = False, f"final X off the Lax closed form by {lax:.3e}"
        elif rows != want_rows:
            ok, detail = False, f"CSV has {rows} rows, expected {want_rows}"
    ops = [Op(f"{case}/trajectory", ok, detail)]
    doc = json.loads(cons_text)
    entries = {e["function"]: e for e in doc["functions"]}
    for fn in fns:
        e = entries.get(fn.name)
        good = ok and e is not None and e["pass"] \
            and e["max_drift"] < doc["tol"]
        ops.append(Op(f"{case}/{fn.name}", good,
                      "" if good else f"conservation entry {e!r}"))
    return ops


def flow_pass(state, seed, reference):
    import numpy as np
    from su3mag import phase, reports
    ops, parts = [], {}
    for case in CASES:
        sys_ = state[case]
        t0 = time.perf_counter()
        try:
            rng = np.random.default_rng(seed)
            pt = sys_.random_regular_point(rng)
            traj = phase.integrate_flow(sys_, pt, t_end=FLOW_T_END,
                                        dt=FLOW_DT)
            fns = reports.monitored_functions(sys_)
            stride = max(1, len(traj.points) // FLOW_MAX_ROWS)
            csv_text = reports.trajectory_csv(sys_, traj, fns, stride)
            cons_text = reports.conservation_json(sys_, traj, fns,
                                                  stride=stride)
        except Exception as exc:
            parts[f"flow_{case}_s"] = time.perf_counter() - t0
            ops += [Op(name, False, f"raised {exc!r}")
                    for name in reference["flow"][case]]
            continue
        parts[f"flow_{case}_s"] = time.perf_counter() - t0
        parts[f"steps_{case}"] = len(traj.points) - 1
        ops += check_flow(sys_, traj, fns, csv_text, cons_text, stride,
                          FLOW_T_END, FLOW_DT)
        del traj, csv_text, cons_text
    return ops, parts


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def exact_plan(seed, eps=None):
    """The exact outputs of one pass, in a seeded order: (key, thunk).

    The seed also draws the bracket tables' eps, unless ``eps`` is given.
    """
    from su3mag import reports
    from su3mag.algebra import build_su2, build_su3_chevalley, \
        build_su3_gellmann
    from su3mag.invariants import restrict_shift

    rng = random.Random(seed)
    drawn = rng.choice(EXACT_EPS)
    eps = drawn if eps is None else eps
    systems = {}

    def system(case):
        if case not in systems:
            systems[case] = reports.make_system(case, eps)
        return systems[case]

    plan = []
    for case in CASES:
        plan.append((f"brackets_text/{case}/{eps}",
                     lambda c=case: reports.bracket_table_text(system(c))))
        plan.append((f"brackets_json/{case}/{eps}",
                     lambda c=case: reports.bracket_table_json(system(c))))
        for k in (0, 1):
            plan.append((f"restrict_shift/C{k + 2}/{case}",
                         lambda c=case, k=k: restrict_shift(
                             system(c).casimirs()[k], system(c)).text()))
    for alg, sub, m_only, deg in CENTRALIZERS:
        scope = "m" if m_only else "full"
        plan.append((f"centralizer/{alg}/{sub}/{scope}/{deg}",
                     lambda a=(alg, sub, m_only, deg):
                     reports.centralizer_report(*a)))
    for name, build in (("gellmann", build_su3_gellmann),
                        ("chevalley", build_su3_chevalley),
                        ("su2", build_su2)):
        plan.append((f"serialize/{name}", lambda b=build: b().serialize()))
    rng.shuffle(plan)
    return plan


def check_exact(key, text, digests):
    """An exact output is correct only if its bytes hash to the reference."""
    want = digests.get(key)
    got = sha256(text)
    if want is None:
        return Op(key, False, "no reference digest")
    return Op(key, got == want, "" if got == want else
              f"sha256 {got[:16]} != reference {want[:16]}")


def exact_pass(state, seed, reference):
    ops, parts = [], {"exact_s": 0.0}
    for key, make in exact_plan(seed):
        t0 = time.perf_counter()
        try:
            text = make()
        except Exception as exc:
            ops.append(Op(key, False, f"raised {exc!r}"))
            continue
        finally:
            parts["exact_s"] += time.perf_counter() - t0
        ops.append(check_exact(key, text, reference["exact"]))
    return ops, parts


PASSES = {"certify": certify_pass, "flow": flow_pass, "exact": exact_pass}


def op_names(workload, reference, seed):
    """The operations one pass attempts, for failing a pass that raised."""
    if workload == "certify":
        return [f"{case}/{name}" for case in CERTIFY_CASES
                for name in reference["certify"][case]["checks"]]
    if workload == "flow":
        return [name for case in CASES for name in reference["flow"][case]]
    return [key for key, _ in exact_plan(seed)]
