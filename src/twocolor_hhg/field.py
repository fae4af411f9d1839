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
DME_FORMS = ("paper", "hydrogenic")    # TargetParams.dme_form values


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
        # each check is written so that NaN fails it
        if not 0 < self.E1 < np.inf:
            raise ValueError(f"E1 must be positive and finite, got {self.E1}")
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not 0 <= self.E2 < np.inf:
            raise ValueError(f"E2 must be nonnegative and finite, got {self.E2}")
        if not np.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
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
    """Target atom: ionisation potential (a.u.) and the DME_FORMS entry that
    both the saddle sum and the oracle evaluate (:func:`.dipole.dme`)."""

    Ip: float
    dme_form: str = "paper"

    def __post_init__(self):
        if not 0 < self.Ip < np.inf:
            raise ValueError(f"Ip must be positive and finite, got {self.Ip}")
        if self.dme_form not in DME_FORMS:
            raise ValueError(f"dme_form: unknown form {self.dme_form!r}; known: "
                             + ", ".join(DME_FORMS))


def _phases(p: FieldParams, t, phi=None):
    """The two field phases w t and 2 w t + phi at (possibly complex) t.

    ``phi`` is the field's own unless given; the saddle kernel gives one per
    point, since the fields of one Newton run differ only in their phase.
    """
    t = np.asarray(t)
    return p.omega * t, 2.0 * p.omega * t + (p.phi if phi is None else phi)


def _sincos(p: FieldParams, t, phi=None):
    """(sin, cos) of w t, then of 2 w t + phi: (s1, c1, s2, c2).

    Real t takes numpy's sin and cos of :func:`_phases`.  Complex
    t = (x + iy)/w takes sin x, cos x, cosh y and sinh y once and builds both
    phases from them in real arithmetic only (double angle, then rotation by
    phi), so a time gives the same bits as a numpy scalar and inside an
    array: numpy's complex multiply does not (see README).
    """
    t = np.asarray(t)
    phi = p.phi if phi is None else phi
    if not np.iscomplexobj(t):
        x1, x2 = _phases(p, t, phi)
        return np.sin(x1), np.cos(x1), np.sin(x2), np.cos(x2)
    x, y = p.omega * t.real, p.omega * t.imag
    sx, cx, ch, sh = np.sin(x), np.cos(x), np.cosh(y), np.sinh(y)
    s2x, c2x, ch2, sh2 = 2.0 * sx * cx, cx * cx - sx * sx, ch * ch + sh * sh, 2.0 * sh * ch
    sp, cp = np.sin(phi), np.cos(phi)
    s, c = s2x * cp + c2x * sp, c2x * cp - s2x * sp      # of 2x + phi
    # re + i im of the four results, written into the real and imaginary
    # views of one array without complex arithmetic
    out = np.empty((4,) + t.shape, dtype=complex)
    re, im = out.real, out.imag
    for k, (r1, r2, i1, i2) in enumerate(((sx, ch, cx, sh), (cx, ch, sx, sh),
                                           (s, ch2, c, sh2), (c, ch2, s, sh2))):
        np.multiply(r1, r2, out=re[k, ...])
        np.multiply(i1, i2, out=im[k, ...])
    np.negative(im[1::2], out=im[1::2])    # the cosines' -sin x sinh y
    return tuple(out)


# The field components (x, y) from the sines/cosines of the two phases, which
# :func:`_sincos` provides.  The public functions below stack them; the saddle
# kernel (which shares one trig evaluation between all of them) writes them
# into its own state rows.  Either way the coefficients live here only.

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
    s1, _, s2, _ = _sincos(p, t)
    return np.stack(_efield(p, s1, s2))


def apot(p: FieldParams, t):
    """Vector potential A(t) with E = -dA/dt; analytic for complex t."""
    _, c1, _, c2 = _sincos(p, t)
    return np.stack(_apot(p, c1, c2))


def apot_integral(p: FieldParams, ta, tb):
    """Closed-form integral of A(t) from ta to tb (path-independent)."""
    (sa1, _, sa2, _), (sb1, _, sb2, _) = _sincos(p, ta), _sincos(p, tb)
    return np.stack(_apot_integral(p, sa1, sa2, sb1, sb2))


def _apot_sq_antideriv(p: FieldParams, t, phi=None):
    """Antiderivative of A(t).A(t) (unconjugated), entire in t; ``phi`` as in _phases."""
    w, phi = p.omega, p.phi if phi is None else phi
    cx = (p.E1 / w) ** 2
    cy = (p.E2 / (2.0 * w)) ** 2
    fx = cx * (t / 2.0 + np.sin(2.0 * w * t) / (4.0 * w))
    fy = cy * (t / 2.0 + np.sin(4.0 * w * t + 2.0 * phi) / (8.0 * w))
    return fx + fy


def apot_sq_integral(p: FieldParams, ta, tb):
    """Closed-form integral of A.A from ta to tb."""
    return _apot_sq_antideriv(p, np.asarray(tb)) - _apot_sq_antideriv(p, np.asarray(ta))


def convert_units(lambda_nm, intensity_Wcm2):
    """Convert (wavelength nm, intensity W/cm^2) to (omega, E) in a.u."""
    # each check is written so that NaN fails it
    if not 0 < lambda_nm < np.inf:
        raise ValueError(f"wavelength must be positive and finite, got {lambda_nm}")
    if not 0 < intensity_Wcm2 < np.inf:
        raise ValueError(f"intensity must be positive and finite, got {intensity_Wcm2}")
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
