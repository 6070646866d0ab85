"""Action-angle coordinates on the invariant tori.

The slice phases theta_k = arg z_k(X - eps W) advance affinely along every
flow generated by a pulled-back Casimir, with frequencies constant on each
joint level set.  Rescaling the geometric torus angles by the inverse
frequency matrix produces canonical pairs {phi~_i, J_j} = delta_ij; in
the irregular case a single angle pairs with the radial action through
the normalized frequency covector.
"""

import numpy as np

from su3mag import su3_regular_system, su3_irregular_system, integrate_flow
from su3mag.angles import (chart_point, root_phases, torus_action,
                           frequency_matrix, angle_action_pairing,
                           angle_angle_bracket, angle_map_matrix, _rescale,
                           THETA_MATRIX, _nearest_branch)

rng = np.random.default_rng(3)
sys = su3_regular_system(0.1)
pt = chart_point(sys, rng)

print("phase equivariance under the right torus gauge action:")
sig = np.array([0.4, -0.3])
th0 = root_phases(sys, pt)
th1 = _nearest_branch(root_phases(sys, torus_action(sys, pt, sig)), th0)
print(f"  measured shift {np.round(th1 - th0, 6)}")
print(f"  -Theta sigma   {np.round(-THETA_MATRIX @ sig, 6)}")

print()
Om = frequency_matrix(sys, pt)
print(f"frequency matrix Omega = {{phi_a, J_k}}:\n{np.round(Om, 8)}")
pair = angle_action_pairing(sys, pt)
print(f"canonical pairing {{phi~_i, J_j}} (expect identity):\n"
      f"{np.round(pair, 8)}")
print(f"{{phi~1, phi~2}} = {angle_angle_bracket(sys, pt):+.6f} "
      "(constant on the torus; see the notes on the vanishing claim)")

print()
print("affine advance of the canonical angles along the physical flow:")
traj = integrate_flow(sys, pt, t_end=5.0, dt=2e-3)
pts = traj.points[::250]
ts = np.array(traj.times[::250])
# the root phases unwrapped along the flow before the angles are formed,
# so that a single phase's wrap adds no lattice jump
phis = np.unwrap(root_phases(sys, pts), axis=0) @ angle_map_matrix(sys).T
tilde = np.array([_rescale(frequency_matrix(sys, p), ph)
                  for p, ph in zip(pts, phis)])
for c in range(2):
    coef = np.polyfit(ts, tilde[:, c], 1)
    resid = np.abs(np.polyval(coef, ts) - tilde[:, c]).max()
    print(f"  phi~_{c + 1}(t) ~ {coef[0]:+.6f} t + {coef[1]:+.6f}   "
          f"(fit residual {resid:.2e})")

print()
sysI = su3_irregular_system(0.1)
ptI = chart_point(sysI, rng)
OmI = frequency_matrix(sysI, ptI)
u = OmI / float(OmI @ OmI)
print(f"irregular case: Omega = {np.round(OmI, 8)}, "
      f"u . Omega = {float(u @ OmI):.12f}")
print(f"single-angle pairing {{phi~, J}} = "
      f"{float(np.asarray(angle_action_pairing(sysI, ptI)).ravel()[0]):.8f}")
