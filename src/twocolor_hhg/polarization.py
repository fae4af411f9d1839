"""Polarization-ellipse decomposition of complex dipole 2-vectors.

A complex vector D factorizes as D = e^{i gamma} (M + i N) with real,
orthogonal major/minor axes M, N and the rectifying phase gamma.  gamma is
half the argument of the unconjugated self-product D.D; the principal branch
keeps half-cycle partner relations intact, and sign continuity along scans
is restored separately (:func:`signed_axis_series`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UndefinedEllipseError(ValueError):
    """Zero dipole has no polarization ellipse."""


@dataclass(frozen=True)
class EllipseDecomposition:
    M: np.ndarray          # real (2,) major axis
    N: np.ndarray          # real (2,) minor axis
    gamma: float
    ellipticity: float


def decompose(D):
    """Split a complex 2-vector into major/minor axes and rectifying phase.

    Perfectly circular input (D.D = 0) is valid: the axes are degenerate and
    the tie is broken with gamma = 0, swapping M and N if needed so that M
    carries the larger real component.
    """
    D = np.asarray(D, dtype=complex)
    if np.linalg.norm(D) == 0.0:
        raise UndefinedEllipseError("zero dipole")
    self_product = (D * D).sum()
    if abs(self_product) == 0.0:
        gamma = 0.0
    else:
        gamma = 0.5 * np.angle(self_product)
    rot = np.exp(-1j * gamma) * D
    M = rot.real.copy()
    N = rot.imag.copy()
    if np.linalg.norm(M) < np.linalg.norm(N):
        # circular tie-break: rotate by pi/2 so M is the (weakly) larger axis
        gamma = gamma + np.pi / 2.0 if gamma < np.pi / 2.0 else gamma - np.pi / 2.0
        rot = np.exp(-1j * gamma) * D
        M, N = rot.real.copy(), rot.imag.copy()
    nm = np.linalg.norm(M)
    return EllipseDecomposition(M=M, N=N, gamma=float(gamma),
                                ellipticity=float(np.linalg.norm(N) / nm))


def signed_axis_series(ms):
    """Fix the +-M representative continuously along a 1D scan.

    ``ms``: array of shape (n, 2) of major axes sampled along a scan.  The
    first sample is flipped to Mx > 0 (or My > 0 when Mx == 0); each later
    sample keeps the sign closest to its predecessor.  Returns the signed
    array and the flip applied to the first sample (so partner orbits can be
    given the same starting flip).
    """
    ms = np.array(ms, dtype=float)
    if ms.shape[0] == 0:
        return ms, 1.0
    first = ms[0]
    lead = first[0] if first[0] != 0.0 else first[1]
    start_flip = -1.0 if lead < 0 else 1.0
    ms[0] *= start_flip
    return _continue_signs(ms), start_flip


def signed_axes(pair_series):
    """Signed per-orbit (Mx, My) for a half-cycle partner pair along a scan.

    ``pair_series`` is a sequence of two arrays of major axes (each (n, 2)),
    the first being the leading orbit.  The leading orbit anchors the sign
    convention; its starting flip is applied to the partner as well, so the
    physical partner symmetry of the axes survives the convention.
    """
    lead, partner = (np.array(s, dtype=float) for s in pair_series)
    lead_signed, flip = signed_axis_series(lead)
    return lead_signed, _continue_signs(partner * flip)


def _continue_signs(ms):
    """Flip each sample after the first, in place, to the sign closer to its
    predecessor; returns ``ms``."""
    for n in range(1, ms.shape[0]):
        if np.linalg.norm(ms[n] - ms[n - 1]) > np.linalg.norm(ms[n] + ms[n - 1]):
            ms[n] *= -1.0
    return ms
