"""Per-orbit dipole contributions, the harmonic dipole sum, and intensities.

Each saddle contributes

    D_s = [2 pi / sqrt(-det S'')] * d(p_s + A(tr)) * Y * (2 pi / (i tau))^{3/2} * e^{iS}

where d is the bound-continuum dipole matrix element, Y the (constant)
ionisation amplitude and tau = tr - ti.  The Hessian square root is taken as
the product of the two per-eigenvalue Gaussian factors sqrt(2 pi / (-i l_k)),
which fixes the branch smoothly away from coalescences; only the
positive-frequency part is kept, so intensities absorb the "+ c.c.".  The
D_s of one period approximate the integral over t in [0, T); the harmonic
dipole is the Fourier coefficient, their sum divided by T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import SPEED_OF_LIGHT, FieldParams, TargetParams, _check_samples
from .saddle import CoalescenceError, SaddlePoint, solve_cycles
from .taxonomy import (MIN_BRANCH_SUPPORT, OrbitLabel, classify, relevance_mask,
                       track_branches)

POLE_TOL = 1e-12
COALESCENCE_DET = 1e-18


class PoleError(ValueError):
    """Dipole matrix element evaluated too close to its pole."""


@dataclass(frozen=True)
class DipoleContribution:
    """One orbit's complex 2-vector dipole with its factor breakdown."""

    label: OrbitLabel
    d_rec: np.ndarray       # recombination matrix element, complex (2,)
    ion_amp: complex
    spread: complex         # wavepacket spreading (2 pi / (i tau))^{3/2}
    hess_factor: complex    # stationary-phase prefactor 2 pi / sqrt(-det S'')
    phase: complex          # e^{iS}
    total: np.ndarray       # complex (2,)


@dataclass(frozen=True)
class HarmonicDipole:
    """The harmonic dipole of order q and the contributions it sums."""

    q: float
    Dx: complex
    Dy: complex
    contributions: tuple    # the relevant orbits' DipoleContributions, in sum order


@dataclass(frozen=True)
class HarmonicSpectrum:
    qs: np.ndarray
    Ix: np.ndarray
    Iy: np.ndarray
    Itotal: np.ndarray
    dipoles: tuple
    audit: tuple = ()
    method: str = "saddle"


def dme(k, tgt: TargetParams):
    """Bound-continuum dipole matrix element d(k) of the target ``tgt``.

    Its ``dme_form`` "paper" uses the denominator (k^2 + sqrt(2 Ip))^2;
    "hydrogenic" substitutes the standard (k^2 + 2 Ip)^2.  k^2 is the
    unconjugated self-product, so complex momenta are continued
    analytically; real momenta keep k^2 and the denominator real.
    """
    k = np.asarray(k)
    k = k.astype(np.result_type(k, float), copy=False)
    k2 = (k * k).sum(axis=0)
    shift = np.sqrt(2.0 * tgt.Ip) if tgt.dme_form == "paper" else 2.0 * tgt.Ip
    den = (k2 + shift) ** 2
    if np.any(np.abs(den) < POLE_TOL):
        raise PoleError(f"dme pole: |k^2 + {shift:.4f}|^2 = {np.min(np.abs(den)):.3e}")
    return 1j * np.sqrt(2.0) * k / (np.pi * np.sqrt(2.0 * tgt.Ip) * den)


def ionisation_amplitude(tgt: TargetParams):
    """Constant ionisation amplitude 1 / (2 pi sqrt(Ip))."""
    return 1.0 / (2.0 * np.pi * np.sqrt(tgt.Ip))


def _hess_prefactor(hess):
    """2 pi / sqrt(-det S'') with the branch fixed per eigenvalue.

    The complex symmetric 2x2 Hessian is diagonalized and each Gaussian
    direction contributes its principal sqrt(2 pi / (-i lambda)); the product
    has modulus 2 pi / |det|^(1/2) and a phase that varies continuously with
    the saddle except at eigenvalue branch crossings.
    """
    a, c = hess[0, 0], hess[1, 1]
    b = hess[0, 1]
    mean = 0.5 * (a + c)
    disc = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    lam1, lam2 = mean + disc, mean - disc
    det = lam1 * lam2
    if abs(det) < COALESCENCE_DET:
        raise CoalescenceError(f"det S'' = {det:.3e}; saddles coalesced")
    return np.sqrt(2.0 * np.pi / (-1j * lam1)) * np.sqrt(2.0 * np.pi / (-1j * lam2))


def contribution(tgt: TargetParams, sp: SaddlePoint, label: OrbitLabel):
    """Assemble the factorized dipole contribution of one saddle."""
    tau = sp.tr - sp.ti
    hess_factor = _hess_prefactor(sp.hess)
    d_rec = dme(sp.k_rec, tgt)
    ion_amp = ionisation_amplitude(tgt)
    spread = (2.0 * np.pi / (1j * tau)) ** 1.5
    phase = np.exp(1j * sp.action)
    total = hess_factor * d_rec * ion_amp * spread * phase
    return DipoleContribution(label=label, d_rec=d_rec, ion_amp=ion_amp,
                              spread=spread, hess_factor=hess_factor,
                              phase=phase, total=total)


def harmonic_dipole(p: FieldParams, tgt: TargetParams, q, labelled):
    """Sum the contributions of the relevant orbits of ``labelled``, in their
    order, into the harmonic dipole divided by the period T (a Fourier
    coefficient over one period).  The orbits outside the sum are not
    evaluated, so none of them can fail it."""
    contribs = tuple(contribution(tgt, sp, label)
                     for sp, label in labelled if label.relevant)
    total = sum((c.total for c in contribs), np.zeros(2, dtype=complex)) / p.period
    return HarmonicDipole(q=float(q), Dx=complex(total[0]), Dy=complex(total[1]),
                          contributions=contribs)


def intensity(hd: HarmonicDipole, omega):
    """(Ix, Iy, Itotal) from the harmonic dipole, I = (qw)^4 |D|^2 / (2 pi c^3)."""
    pref = (hd.q * omega) ** 4 / (2.0 * np.pi * SPEED_OF_LIGHT ** 3)
    ix = pref * abs(hd.Dx) ** 2
    iy = pref * abs(hd.Dy) ** 2
    return ix, iy, ix + iy


def build_history(p: FieldParams, tgt: TargetParams, qs):
    """Solve the orders and track branches across orders by continuity.

    Returns (per_q, history): ``per_q[q]`` holds the representatives of
    order q, from one :func:`.saddle.solve_cycles` call, and ``history`` the
    :func:`.taxonomy.track_branches` value over them.
    """
    per_q = dict(zip(qs, solve_cycles(tgt, [(p, q) for q in qs])))
    return per_q, track_branches(per_q, p.period)


def history_orders(qs):
    """The orders whose branch histories judge relevance over ``qs``: unit
    steps from min(qs) to MIN_BRANCH_SUPPORT - 1 orders beyond max(qs), as
    far as the rules of :func:`.taxonomy.relevance_mask` look past the range.
    A branch born at max(qs) needs that many more orders to show its support.
    The pair rule drops a saddle only at q > q_c, so only a q_c <= max(qs) - 1
    matters, and that closest approach is interior once both branches reach
    max(qs); a further order could only move a pair's global minimum beyond
    the range, which removes a drop within it and never adds one.  An order
    of ``qs`` off that grid raises ValueError, and an empty ``qs`` SamplingError.
    """
    qs = np.asarray(sorted(qs), dtype=float)
    _check_samples(qs.size, 1, "orders")
    orders = np.arange(qs[0], qs[-1] + MIN_BRANCH_SUPPORT)
    off = qs[~np.isin(qs, orders)]
    if off.size:
        raise ValueError(f"orders {off.tolist()} are off the unit grid "
                         f"from q = {qs[0]:g}")
    return orders


def labelled_orbits(p: FieldParams, tgt: TargetParams, qs, audit=None):
    """Yield (q, labelled saddles) for every order in sorted ``qs``.

    Branches are tracked over :func:`history_orders` on the representatives,
    and relevance is judged on them; :func:`classify` builds the partners and
    copies each representative's flag to its partner.  ``labelled`` is
    :func:`classify`'s list, empty when the order has no saddles.  The
    relevance discards of an order are appended to ``audit`` before that
    order is yielded.
    """
    qs = np.asarray(sorted(qs), dtype=float)
    per_q, history = build_history(p, tgt, history_orders(qs))
    for q in qs:
        mask = relevance_mask(p, tgt, q, per_q[q], history=history, audit=audit)
        yield q, classify(p, per_q[q], relevant_mask=mask)


def spectrum(p: FieldParams, tgt: TargetParams, qs):
    """Saddle-point harmonic spectrum over the orders ``qs``.

    The orbits of each order come from :func:`labelled_orbits`.  Per-order
    failures become audit entries, never aborts.
    """
    qs = np.asarray(sorted(qs), dtype=float)
    audit = []
    dipoles = []
    ix = np.zeros(qs.size)
    iy = np.zeros(qs.size)
    for n, (q, labelled) in enumerate(labelled_orbits(p, tgt, qs, audit=audit)):
        hd = HarmonicDipole(q=q, Dx=0j, Dy=0j, contributions=())
        if not labelled:
            audit.append(f"q={q}: no saddles (below threshold or none converged)")
        else:
            try:
                hd = harmonic_dipole(p, tgt, q, labelled)
            except (PoleError, CoalescenceError) as exc:
                audit.append(f"q={q}: skipped ({exc})")
        dipoles.append(hd)
        ix[n], iy[n], _ = intensity(hd, p.omega)
    return HarmonicSpectrum(qs=qs, Ix=ix, Iy=iy, Itotal=ix + iy,
                            dipoles=tuple(dipoles), audit=tuple(audit))
