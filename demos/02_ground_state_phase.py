"""Ground-state loop phase of the rotated chain, checked against brute force.

Each (k, -k) momentum pair of the chain is a Bloch vector whose azimuth
winds once during a rotation circuit, so the ground-state phase is a sum of
per-pair solid-angle halves.  At N = 6 we can afford the 64 x 64 dense
matrix and verify the closed form three independent ways: the discrete loop
phase, the ground energy, and the magnetization identity, whose closed-form
M_z predicts the oracle's loop phase within its discretization bound.
"""

import numpy as np

from xyberry import (
    XYParams,
    circular_distance,
    discrete_loop_phase,
    ed_ground_energy,
    ground_energy,
    ground_phase,
    magnetization_analytic,
    magnetization_ed,
    phase_magnetization_identity,
    relative_phase_finite,
    wrap_angle,
)

p = XYParams(lam=0.5, gamma=0.5, n_sites=6)
print(f"control point: lam = {p.lam}, gamma = {p.gamma}, N = {p.n_sites}")

g = ground_phase(p)
print(f"\nclosed-form ground phase: raw = {g.value:.9f}, wrapped = {g.wrapped:.9f}")

d = discrete_loop_phase(p, "ground", 2000)
print(f"discrete loop phase (m = 2000): {d.wrapped:.9f}")
print(f"circular mismatch: {circular_distance(d.wrapped, g.wrapped):.2e}")

print(f"\nground energy, momentum modes: {ground_energy(p):+.12f}")
print(f"ground energy, dense matrix:   {ed_ground_energy(p):+.12f}")

mz_a = magnetization_analytic(p)
mz_e = magnetization_ed(p)
print(f"\nmagnetization, momentum modes: {mz_a:+.12f}")
print(f"magnetization, dense matrix:   {mz_e:+.12f}")

predicted, bound = phase_magnetization_identity(p, 2000, mz_a)
print("\nthe loop phase doubles as an order-parameter readout,")
print("phi_g = pi (N + M_z) / 2 - pi^3 kappa_3 / (48 m^2), from the closed-form M_z:")
print(f"  oracle loop phase (m = 2000): {d.wrapped:.12f}")
print(f"  predicted, wrapped:           {wrap_angle(predicted):.12f}")
print(f"  circular mismatch: {circular_distance(d.wrapped, predicted):.2e} (bound {bound:.2e})")

print("\nrelative phase of the lowest excitation (freezes the minimum-gap pair):")
r = relative_phase_finite(p)
print(f"  phi_eg = {r.value:+.9f}  (topological {r.topological_part:+.4f} "
      f"+ geometric {r.geometric_part:+.9f})")

print("\nthe phase depends on the loop, not its starting angle:")
for phi0 in (0.0, 0.4, 1.2):
    shifted = XYParams(lam=0.5, gamma=0.5, n_sites=6, phi=phi0)
    print(f"  start phi = {phi0:.1f}: raw phase = {ground_phase(shifted).value:.12f}")
