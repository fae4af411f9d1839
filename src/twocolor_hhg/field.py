"""Bichromatic driving field: E(t), A(t), closed-form integrals, unit helpers.

Everything is in atomic units (hbar = m_e = e = 1). The field is the
orthogonally polarized two-colour combination

    E(t) = (E1 sin(w t), E2 sin(2 w t + phi)),

and the vector potential follows the convention E = -dA/dt, so that A is the
exact antiderivative entering the stationary-momentum average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Atomic-unit constants
SPEED_OF_LIGHT = 137.035999        # a.u.
ATOMIC_INTENSITY = 3.50945e16      # W/cm^2 corresponding to E = 1 a.u.
NM_TO_OMEGA = 45.5633              # omega[a.u.] = 45.5633 / lambda[nm]

TWO_PI = 2.0 * np.pi


class SamplingError(ValueError):
    """A sampler was asked for a number of points it cannot use."""


def _check_samples(n_samples, least, what="samples"):
    if n_samples < least:
        raise SamplingError(f"need at least {least} {what}, got {n_samples}")


@dataclass(frozen=True)
class FieldParams:
    """Two-colour field amplitudes (a.u.), fundamental frequency and phase.

    ``phi`` is wrapped into [0, 2pi) on construction.  The intensity ratio
    R = (E2/E1)^2 is available as a property; use :meth:`from_ratio` to build
    the field from (E1, R) directly.
    """

    E1: float
    E2: float
    omega: float
    phi: float = 0.0

    def __post_init__(self):
        if self.E1 <= 0:
            raise ValueError(f"E1 must be positive, got {self.E1}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.E2 < 0:
            raise ValueError(f"E2 must be nonnegative, got {self.E2}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)

    @classmethod
    def from_ratio(cls, E1, omega, R, phi=0.0):
        """Build with the 2w amplitude set from the intensity ratio R = I2/I1."""
        if R < 0:
            raise ValueError(f"intensity ratio must be nonnegative, got {R}")
        return cls(E1=E1, E2=E1 * np.sqrt(R), omega=omega, phi=phi)

    @property
    def R(self):
        """Intensity ratio I_2w / I_w."""
        return (self.E2 / self.E1) ** 2

    @property
    def period(self):
        """Fundamental optical period T = 2 pi / omega."""
        return TWO_PI / self.omega

    def with_phi(self, phi):
        return FieldParams(self.E1, self.E2, self.omega, phi)

    def with_ratio(self, R):
        return FieldParams.from_ratio(self.E1, self.omega, R, self.phi)


@dataclass(frozen=True)
class TargetParams:
    """Target atom: ionisation potential (a.u.)."""

    Ip: float

    def __post_init__(self):
        if self.Ip <= 0:
            raise ValueError(f"Ip must be positive, got {self.Ip}")


def _phases(p: FieldParams, t, phi=None):
    """The two field phases w t and 2 w t + phi at (possibly complex) t.

    ``phi`` is the field's own unless given; the saddle kernel gives one per
    point, since the fields of one Newton run differ only in their phase.
    """
    t = np.asarray(t)
    return p.omega * t, 2.0 * p.omega * t + (p.phi if phi is None else phi)


# The field components (x, y) from the sines/cosines of the two phases.  The
# public functions below stack them; the saddle kernel (which shares one trig
# evaluation between all of them) writes them into its own state rows.  Either
# way the coefficients live here only.

def _efield(p: FieldParams, s1, s2):
    """E from sin(w t) and sin(2 w t + phi)."""
    return p.E1 * s1, p.E2 * s2


def _apot(p: FieldParams, c1, c2):
    """A from cos(w t) and cos(2 w t + phi)."""
    return (p.E1 / p.omega) * c1, (p.E2 / (2.0 * p.omega)) * c2


def _apot_integral(p: FieldParams, sa1, sa2, sb1, sb2):
    """Integral of A from ta to tb, from the sines of both phases at ta and tb."""
    w = p.omega
    return ((p.E1 / w ** 2) * (sb1 - sa1),
            (p.E2 / (4.0 * w ** 2)) * (sb2 - sa2))


def efield(p: FieldParams, t):
    """Electric field at (possibly complex) time t.

    Returns an array of shape (2,) + shape(t); real t gives real output.
    """
    x1, x2 = _phases(p, t)
    return np.stack(_efield(p, np.sin(x1), np.sin(x2)))


def apot(p: FieldParams, t):
    """Vector potential A(t) with E = -dA/dt; analytic for complex t."""
    x1, x2 = _phases(p, t)
    return np.stack(_apot(p, np.cos(x1), np.cos(x2)))


def apot_integral(p: FieldParams, ta, tb):
    """Closed-form integral of A(t) from ta to tb (path-independent)."""
    (xa1, xa2), (xb1, xb2) = _phases(p, ta), _phases(p, tb)
    return np.stack(_apot_integral(p, np.sin(xa1), np.sin(xa2),
                                   np.sin(xb1), np.sin(xb2)))


def _apot_sq_antideriv(p: FieldParams, t):
    """Antiderivative of A(t).A(t) (unconjugated), entire in t."""
    w = p.omega
    cx = (p.E1 / w) ** 2
    cy = (p.E2 / (2.0 * w)) ** 2
    fx = cx * (t / 2.0 + np.sin(2.0 * w * t) / (4.0 * w))
    fy = cy * (t / 2.0 + np.sin(4.0 * w * t + 2.0 * p.phi) / (8.0 * w))
    return fx + fy


def apot_sq_integral(p: FieldParams, ta, tb):
    """Closed-form integral of A.A from ta to tb."""
    return _apot_sq_antideriv(p, np.asarray(tb)) - _apot_sq_antideriv(p, np.asarray(ta))


def convert_units(lambda_nm, intensity_Wcm2):
    """Convert (wavelength nm, intensity W/cm^2) to (omega, E) in a.u."""
    if lambda_nm <= 0:
        raise ValueError(f"wavelength must be positive, got {lambda_nm}")
    if intensity_Wcm2 <= 0:
        raise ValueError(f"intensity must be positive, got {intensity_Wcm2}")
    omega = NM_TO_OMEGA / lambda_nm
    e0 = np.sqrt(intensity_Wcm2 / ATOMIC_INTENSITY)
    return omega, e0


def lissajous(p: FieldParams, n_samples):
    """Sample the field curve (Ex, Ey) over one fundamental period.

    Returns an array of shape (n_samples, 2); the curve closes because the
    field is T-periodic.
    """
    _check_samples(n_samples, 8)
    ts = np.linspace(0.0, p.period, n_samples, endpoint=False)
    return efield(p, ts).real.T.copy()
