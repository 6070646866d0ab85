"""The exact Poisson structure of the two first-integral families.

Computes the full torus-invariant bracket table symbolically (eps kept as
a formal parameter), shows the couplings c_k = eps B(W, H_alpha_k), and
verifies the closed forms against pointwise evaluations of the twisted
symplectic form.
"""

import numpy as np

from su3mag import su3_regular_system, su3_irregular_system, twisted_bracket
from su3mag.phase import moment_coordinate, SlicePullback
from su3mag.certify import bracket_table_regular, couplings
from su3mag.invariants import torus_generators, radial_generator

sys = su3_regular_system(0.1)

print("couplings for W = (H1 + H2)/2:")
for k, c in enumerate(couplings(sys)):
    print(f"  c{k + 1} = eps * ({c.text()})")

print()
print("slice bracket table (exact; entries rewritten in the generators):")
table = bracket_table_regular(sys)
for (a, b), poly in sorted(table.entries.items()):
    note = "" if table.matches_reference[(a, b)] else "   <- c3 sign corrected"
    print(f"  {{{a},{b}}}_2 = {poly.text()}{note}")

print()
print("pointwise cross-check through the magnetic symplectic form:")
rng = np.random.default_rng(0)
u, v, w = torus_generators(sys.alg)
fns = {"u1": SlicePullback(u[0], name="u1"),
       "v": SlicePullback(v, name="v")}
pt = sys.random_regular_point(rng)
vals = {"u1": fns["u1"].values(pt), "v": fns["v"].values(pt)}
omega_val = twisted_bracket(sys, fns["u1"], fns["v"], pt)
gen_point = [float(q.evaluate(pt.xi[sys.m])) for q in (u[0], u[1], u[2], v, w)]
closed = float(table.entries[("u1", "v")].evaluate(gen_point + [sys.eps]))
print(f"  {{u1,v}} via omega: {omega_val:+.12f}")
print(f"  closed form value: {closed:+.12f}")

print()
print("moment family closes on the structure constants in both cases:")
for system in (sys, su3_irregular_system(0.1)):
    pt = system.random_regular_point(rng)
    P = [moment_coordinate(system, i) for i in range(8)]
    worst = 0.0
    for i in range(8):
        for j in range(8):
            br = twisted_bracket(system, P[i], P[j], pt)
            expect = sum(float(c) * pt.moment_coords[k]
                         for (a, b, k), c in system.alg.structure.items()
                         if a == i and b == j)
            worst = max(worst, abs(br - expect))
    print(f"  {system.case_tag}: max closure residual {worst:.2e}")

print()
print("mixed brackets vanish (the two families commute):")
sysI = su3_irregular_system(0.1)
R = SlicePullback(radial_generator(sysI), name="R")
pt = sysI.random_regular_point(rng)
worst = max(abs(twisted_bracket(sysI, moment_coordinate(sysI, i), R, pt))
            for i in range(8))
print(f"  irregular: max |{{P_i, pi*R}}| = {worst:.2e}")
