"""Detecting the critical field without crossing it.

Rotation loops at fixed (lam, gamma) enclose the gamma = 0 critical segment
exactly when |lam| < 1.  The relative phase between the lowest excitation
and the ground state feels that: for narrow anisotropy it sits near -pi
inside and at exactly 0 outside, a step that locates the phase boundary
while the system keeps a finite gap the whole way around the loop.
"""

import numpy as np

from xyberry import relative_phase_thermo_arrays, step_detect

gamma = 0.05
lams = 0.005 * np.arange(401)  # field values 0 .. 2
trace = relative_phase_thermo_arrays(lams, gamma)

print(f"relative phase phi_eg(lam) at gamma = {gamma}:")
for lam in (0.0, 0.5, 0.9, 0.98, 0.995, 1.0, 1.05, 1.5):
    i = int(round(lam / 0.005))
    print(f"  lam = {lams[i]:6.3f}:  phi_eg = {trace[i]:+9.5f}")

lam_star = step_detect(lams, trace)
print(f"\nstep located at lam* = {lam_star:.4f}")
print(f"branch boundary 1 - gamma^2 = {1 - gamma**2:.4f}")

print("\nthe pi/2-crossing detector tracks the boundary best at small anisotropy:")
print(f"{'gamma':>7} {'lam*':>9} {'1-gamma^2':>11} {'drift':>8}")
for g in (0.05, 0.2, 0.5):
    tr = relative_phase_thermo_arrays(lams, g)
    star = step_detect(lams, tr)
    print(f"{g:7.2f} {star:9.4f} {1 - g * g:11.4f} {1 - g * g - star:8.4f}")

print("\n(the drift is a property of the exact phase surface: the geometric")
print("term grows near the branch edge, so the trace leaves the -pi plateau")
print("before the boundary unless gamma is small)")
