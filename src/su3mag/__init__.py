"""Superintegrable magnetic geodesic systems on SU(3) homogeneous spaces.

Exact Lie-algebra and invariant-theory machinery plus numeric certificates
for the two commuting families of first integrals of the magnetic geodesic
flow on T*(SU(3)/T) and T*(SU(3)/S(U(2)xU(1))).
"""

from .scalars import Scalar, CScalar, parse_scalar
from .poly import (Polynomial, lie_poisson_bracket, b_gradient,
                   parse_polynomial, DEGREE_CAP, DegreeCapError)
from .algebra import (LieAlgebraSpec, SubalgebraSpec, GroupElement,
                      build_su3_gellmann, build_su3_chevalley, build_su2,
                      centralizer_of, regularity, exp_map,
                      identity_element, polar_project)
from .phase import (MagneticSystem, PhasePoint, su3_regular_system,
                    su3_irregular_system, MomentPullback, SlicePullback,
                    twisted_bracket, integrate_flow, conservation_report)

__all__ = [
    "Scalar", "CScalar", "parse_scalar",
    "Polynomial", "lie_poisson_bracket", "b_gradient",
    "parse_polynomial", "DEGREE_CAP", "DegreeCapError",
    "LieAlgebraSpec", "SubalgebraSpec", "GroupElement",
    "build_su3_gellmann", "build_su3_chevalley", "build_su2",
    "centralizer_of", "regularity", "exp_map",
    "identity_element", "polar_project",
    "MagneticSystem", "PhasePoint", "su3_regular_system",
    "su3_irregular_system", "MomentPullback", "SlicePullback",
    "twisted_bracket", "integrate_flow", "conservation_report",
]
