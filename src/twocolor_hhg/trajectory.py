"""Real-space electron displacement orbits between ionisation and return.

The displacement is s(t) = Re[ integral_{ti}^{t} (p_s + A(t')) dt' ] with the
integral taken in closed form; the standard contour (vertical leg from the
complex ti down to Re(ti), then along the real axis) is implied by taking the
real part at real sample times.  s(Re ti) therefore carries the tunnel-exit
offset of the vertical leg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import FieldParams, _check_samples, apot_integral
from .saddle import SaddlePoint
from .taxonomy import OrbitLabel

MIN_SAMPLES = 16


@dataclass(frozen=True)
class Orbit:
    label: OrbitLabel
    t: np.ndarray      # real sample times, Re(ti) .. Re(tr)
    sx: np.ndarray
    sy: np.ndarray


def displacement(p: FieldParams, sp: SaddlePoint, n_samples=256, label=None):
    """Sample the orbit of one saddle at real times in [Re(ti), Re(tr)]."""
    _check_samples(n_samples, MIN_SAMPLES)
    ts = np.linspace(sp.ti.real, sp.tr.real, n_samples)
    disp = sp.ps[:, None] * (ts - sp.ti) + apot_integral(p, sp.ti, ts)
    return Orbit(label=label, t=ts, sx=disp[0].real.copy(), sy=disp[1].real.copy())


def closure_defect(p: FieldParams, sp: SaddlePoint):
    """|p_s (tr - ti) + integral(A)|: zero by the stationary-momentum definition."""
    res = sp.ps * (sp.tr - sp.ti) + apot_integral(p, sp.ti, sp.tr)
    return float(np.linalg.norm(res))
