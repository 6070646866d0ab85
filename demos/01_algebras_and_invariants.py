"""Walk through the Lie-algebra substrate and the invariant solver.

Builds the two su(3) presentations and su(2), checks the exact structure,
then computes torus and stabilizer commutants degree by degree: the five
generators u1, u2, u3, v, w with their single cubic relation on the
regular side, and the lone radial invariant R on the irregular side.
"""

import numpy as np

from su3mag import (build_su3_gellmann, build_su3_chevalley, build_su2,
                    centralizer_of, regularity)
from su3mag.scalars import Scalar
from su3mag.invariants import (invariant_space, indecomposable_generators,
                               casimirs_su3, torus_generators)

print("=" * 70)
print("1. the three algebra builds")
print("=" * 70)
for alg in (build_su3_gellmann(), build_su3_chevalley(), build_su2()):
    alg.verify()
    print(f"{alg.name}: dim {alg.dim}, labels {', '.join(alg.labels)}")
    print(f"  orthonormal B, {len(alg.structure)} nonzero structure entries,"
          " antisymmetry/Jacobi/invariance verified exactly")

print()
print("=" * 70)
print("2. centralizers and regularity")
print("=" * 70)
ch = build_su3_chevalley()
from fractions import Fraction
W_reg = [Scalar(Fraction(1, 2)), Scalar(Fraction(1, 2))] + [Scalar(0)] * 6
sub = centralizer_of(ch, W_reg)
print(f"W = (H1+H2)/2: centralizer indices {sub.a_indices} "
      f"-> {regularity(ch, W_reg)}")

gm = build_su3_gellmann()
W_irr = [Scalar(0)] * 7 + [Scalar.sqrt3(-1)]
subA = centralizer_of(gm, W_irr)
print(f"W = hypercharge direction: centralizer indices {subA.a_indices} "
      f"-> {regularity(gm, W_irr)}")

print()
print("=" * 70)
print("3. torus commutant on the slice: generators and the cubic relation")
print("=" * 70)
gens = indecomposable_generators(ch, sub, 6)
for name, poly, deg in gens.generators:
    print(f"  {name} (degree {deg}): {poly.text()}")
for rel in gens.relations:
    print(f"  relation: {rel.text()} = 0")

u, v, w = torus_generators(ch)
residual = u[0] * u[1] * u[2] - v * v - w * w
print(f"  named generators satisfy u1 u2 u3 - v^2 - w^2 == 0: "
      f"{residual.is_zero()}")

print()
print("=" * 70)
print("4. stabilizer commutant on the irregular slice")
print("=" * 70)
for d in (2, 3, 4):
    print(f"  degree {d}: dimension {len(invariant_space(gm, subA, d))}")
gensA = indecomposable_generators(gm, subA, 4)
for name, poly, deg in gensA.generators:
    print(f"  single generator {name}: {poly.text()}")

print()
print("=" * 70)
print("5. Casimirs")
print("=" * 70)
c2, c3 = casimirs_su3(gm)
print(f"  C2 = {c2.text()}")
print(f"  C3 has {len(c3.terms)} terms of degree {c3.degree()}; "
      "both Poisson-commute with every coordinate exactly")
