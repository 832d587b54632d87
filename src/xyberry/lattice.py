"""Optical-lattice controls mapped to effective chain couplings.

Two bosonic species in a one-dimensional optical lattice, deep in the
one-atom-per-site Mott regime, realize the rotated XY chain: species
tunnelling drives the isotropic exchange, a Raman-assisted channel with
laser phase difference ``phase`` drives the rotated anisotropic part, and a
detuned radiation field supplies the transverse field.  This module is just
the resulting coupling algebra and its inversion; no band-structure input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleTargetError

__all__ = [
    "LatticeParams",
    "EffectiveParams",
    "MottCheck",
    "effective_xy",
    "solve_for_targets",
    "mott_regime_check",
]


@dataclass(frozen=True)
class LatticeParams:
    """Controls of the two-species lattice, all in common energy units."""

    j_a: float
    j_b: float
    j_c: float
    u_ab: float
    omega: float
    delta: float
    phase: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(self.j_a, self.j_b, self.j_c) < 0:
            raise ValueError("tunnelling couplings must be nonnegative")
        if self.u_ab <= 0:
            raise ValueError(f"u_ab must be positive, got {self.u_ab}")
        if self.omega < 0:
            raise ValueError(f"omega must be nonnegative, got {self.omega}")
        if self.delta == 0:
            raise ValueError("delta must be nonzero")


@dataclass(frozen=True)
class EffectiveParams:
    """Effective chain couplings produced by a lattice configuration.

    ``lam`` is reported in units of ``energy_scale`` so the result plugs
    directly into XYParams; ``lam_raw`` keeps the bare omega^2 / delta.
    """

    gamma: float
    lam: float
    phi: float
    energy_scale: float
    lam_raw: float


@dataclass(frozen=True)
class MottCheck:
    ok: bool
    margin: float
    threshold: float


def effective_xy(lp: LatticeParams) -> EffectiveParams:
    """Map lattice controls to (gamma, lam, phi, energy_scale).

    energy_scale = (2 j_a j_b + j_c^2 / 2) / u_ab multiplies the whole chain
    Hamiltonian; gamma = j_c^2 / (2 energy_scale u_ab) lies in [0, 1] with
    gamma = 0 for a switched-off Raman channel and gamma = 1 for pure Raman
    tunnelling.  The laser phase difference passes through as phi mod pi.
    """
    scale = (2.0 * lp.j_a * lp.j_b + 0.5 * lp.j_c**2) / lp.u_ab
    if scale == 0.0:
        raise ValueError("all tunnelling switched off: no effective chain")
    gamma = lp.j_c**2 / (2.0 * scale * lp.u_ab)
    lam_raw = lp.omega**2 / lp.delta
    return EffectiveParams(
        gamma=float(gamma),
        lam=float(lam_raw / scale),
        phi=float(lp.phase % math.pi),
        energy_scale=float(scale),
        lam_raw=float(lam_raw),
    )


def solve_for_targets(
    target_gamma: float,
    target_lam: float,
    u_ab: float,
    delta: float,
    phase: float = 0.0,
) -> LatticeParams:
    """Invert the coupling algebra for symmetric tunnelling j_a = j_b.

    The spare overall tunnelling scale is spent normalizing
    energy_scale = 1, after which gamma fixes j_c^2 / j^2 = 4 gamma /
    (1 - gamma) and the field needs omega^2 = target_lam * delta (so the
    target and the detuning must share a sign).  Round-trips through
    effective_xy are exact to rounding.
    """
    if not 0.0 < target_gamma <= 1.0:
        raise InfeasibleTargetError(
            f"target_gamma must lie in (0, 1], got {target_gamma}"
        )
    if u_ab <= 0:
        raise ValueError(f"u_ab must be positive, got {u_ab}")
    if delta == 0:
        raise ValueError("delta must be nonzero")
    omega_sq = target_lam * delta
    if omega_sq < 0:
        raise InfeasibleTargetError(
            f"target_lam={target_lam} and delta={delta} have incompatible signs"
        )
    j = math.sqrt(0.5 * u_ab * (1.0 - target_gamma))
    j_c = math.sqrt(2.0 * target_gamma * u_ab)
    return LatticeParams(
        j_a=j,
        j_b=j,
        j_c=j_c,
        u_ab=u_ab,
        omega=math.sqrt(omega_sq),
        delta=delta,
        phase=phase,
    )


def mott_regime_check(lp: LatticeParams, threshold: float = 0.1) -> MottCheck:
    """Check max(J)/U against a Mott-insulator safety threshold.

    Passes only strictly below the threshold (the boundary fails); the
    ratio itself is returned as the margin.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    margin = max(lp.j_a, lp.j_b, lp.j_c) / lp.u_ab
    return MottCheck(ok=margin < threshold, margin=float(margin), threshold=threshold)
