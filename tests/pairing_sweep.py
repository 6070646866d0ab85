"""The angle-action pairing sweep: `angle_action_pairing` at seeded chart
points, against the certificate's 1e-5 tolerance.

Each point is `chart_point(sys, np.random.default_rng(seed))`; its residual
is max |pairing - target|, the target the identity (regular) or 1.0
(irregular).  A point whose pairing raises (a chart or drift failure)
counts as a fail.  For each case, eps and seed range the sweep prints the
fail count, the worst residual with its seed, and the median residual,
and exits 1 if any point fails.

Run from the repository root:

    PYTHONPATH=src python tests/pairing_sweep.py

The ranges (SWEEP) are regular eps 0.1 over seeds 10000-10599, regular eps
0.25 and 0.5 over 10000-10299, irregular eps 0.1 over 10000-10299, and
regular eps 5 over 10000-10099: near the largest eps at which the partner
flows still keep inside the integrator's drift guard at the pairing step.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-5
SWEEP = (("regular", 0.1, 10000, 10600),
         ("regular", 0.25, 10000, 10300),
         ("regular", 0.5, 10000, 10300),
         ("irregular", 0.1, 10000, 10300),
         ("regular", 5.0, 10000, 10100))


def residuals(case, eps, seeds):
    """{seed: residual}, with inf for a point whose pairing raises."""
    from su3mag.angles import angle_action_pairing, chart_point
    from su3mag.reports import make_system
    sys_ = make_system(case, eps)
    target = np.eye(2) if case == "regular" else np.array([1.0])
    out = {}
    for seed in seeds:
        pt = chart_point(sys_, np.random.default_rng(seed))
        try:
            pair = angle_action_pairing(sys_, pt)
        except (ValueError, RuntimeError) as exc:
            print(f"  {case} eps {eps} seed {seed}: {exc}")
            out[seed] = np.inf
            continue
        out[seed] = float(np.abs(pair - target).max())
    return out


def summary(case, eps, lo, hi, res):
    worst = max(res, key=res.get)
    fails = sum(r >= TOL for r in res.values())
    return (f"{case} eps {eps} seeds {lo}-{hi - 1}: {fails} of {len(res)} "
            f"fail; worst {res[worst]:.2e} (seed {worst}); median "
            f"{float(np.median(list(res.values()))):.1e}")


def main():
    fails = 0
    for case, eps, lo, hi in SWEEP:
        res = residuals(case, eps, range(lo, hi))
        fails += sum(r >= TOL for r in res.values())
        print(summary(case, eps, lo, hi, res), flush=True)
    return 1 if fails else 0


if __name__ == "__main__":
    raise SystemExit(main())
