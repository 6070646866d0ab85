"""Rank bookkeeping behind the two superintegrability chains.

The joint family Phi = (P1..P8, slice generators) has generic Jacobian
rank 10 over the twelve-dimensional regular phase space and 7 over the
eight-dimensional irregular one; the central subalgebra contributes the
complementary 2 and 1, closing the ledgers 10 + 2 = 12 and 7 + 1 = 8.
The irregular image cone carries the single cubic relation
Phi(P) = C3(P) + 3 eps C2(P) - 3 eps^3 = 0.
"""

import numpy as np

from su3mag import su3_regular_system, su3_irregular_system, PhasePoint
from su3mag.algebra import identity_element
from su3mag.certify import (jacobian_rank_pi1, dimension_report,
                            phi_relation_irregular, a_matrix_minors,
                            center_check, _worst)
from su3mag.invariants import radial_generator
from su3mag.poly import Polynomial

rng = np.random.default_rng(2)

for make in (su3_regular_system, su3_irregular_system):
    sys = make(0.1)
    print("=" * 70)
    print(f"case: {sys.case_tag}")
    print("=" * 70)
    ranks = [jacobian_rank_pi1(sys, sys.random_regular_point(rng))
             for _ in range(10)]
    print(f"pi1 Jacobian rank at 10 random regular points: {sorted(set(ranks))}")
    if sys.case_tag == "irregular":
        pt0 = PhasePoint(sys, identity_element(), np.zeros(8))
        print(f"rank at the exceptional fiber X = 0: "
              f"{jacobian_rank_pi1(sys, pt0)}")
        phi = phi_relation_irregular(sys, rng)
        print(f"moment-cone relation residual over 100 points: "
              f"{phi['max_residual']:.2e}")
        minors = a_matrix_minors(sys)
        m = sys.m_names()
        R = radial_generator(sys)
        pats = [("x7", 1), ("x6", -1), ("x5", 1), ("x4", -1)]
        ok = all((mi - s * Polynomial.var(m, v) * R).is_zero()
                 for mi, (v, s) in zip(minors, pats))
        print(f"exact 3x3 minor identities of A(X): {ok}")
    rep = dimension_report(sys, rng, samples=10)
    for c in rep.checks:
        print(" ", c.line())
    cc = center_check(sys, rng, samples=10)
    # _worst keeps a NaN residual, which a Python max may skip
    worst = _worst([c.observed for c in cc.checks])
    print(f"centrality of the pulled-back Casimirs: worst bracket "
          f"{worst:.2e} over {len(cc.checks)} pairings")
    print()
