"""A single spin-1/2 dragged around the field axis.

The reference case for everything else in the package: a two-level system
whose field direction sweeps a horizontal circle on the Bloch sphere picks
up half the enclosed solid angle as a geometric phase.  We evaluate the
closed form and confirm it with the discrete overlap-product phase, which
needs no gauge smoothing at all.
"""

import numpy as np

from xyberry import (
    circular_distance,
    spin_half_connection,
    spin_half_phase,
    spin_half_loop_phase,
)

print("Berry connection of the upper level, A_phi = (1 - cos theta) / 2:")
for theta in (0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi):
    _, a_phi = spin_half_connection(theta)
    print(f"  theta = {theta:5.3f}:  A_phi = {a_phi:.6f}")

print("\nLoop phase (half the solid angle) vs the discrete overlap product:")
print(f"{'theta':>8} {'closed form':>14} {'discrete':>14} {'mismatch':>12}")
for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2.2):
    closed = spin_half_phase(theta, branch="lower")
    discrete = spin_half_loop_phase(theta, steps=2000, branch="lower")
    err = circular_distance(closed.wrapped, discrete.wrapped)
    print(f"{theta:8.3f} {closed.wrapped:14.8f} {discrete.wrapped:14.8f} {err:12.2e}")

print("\nThe equatorial loop encircles the degeneracy of a real Hamiltonian")
print("family, so the state comes back with a sign flip: phase pi.")
eq = spin_half_phase(np.pi / 2)
print(f"  phase at theta = pi/2: {eq.value:.12f}")
