"""Per-orbit dipole contributions, the harmonic dipole sum, and intensities.

Each saddle contributes

    D_s = [2 pi / sqrt(-det S'')] * d(p_s + A(tr)) * Y * (2 pi / (i tau))^{3/2} * e^{iS}

where d is the bound-continuum dipole matrix element, Y the (constant)
ionisation amplitude and tau = tr - ti.  The Hessian square root is taken as
the product of the two per-eigenvalue Gaussian factors sqrt(2 pi / (-i l_k)),
which fixes the branch smoothly away from coalescences; only the
positive-frequency part is kept, so intensities absorb the "+ c.c.".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import SPEED_OF_LIGHT, FieldParams, TargetParams, apot
from .saddle import CoalescenceError, SaddlePoint, hessian, solve_cycle
from .taxonomy import OrbitLabel, classify, relevance_mask, track_branches

DME_FORMS = ("paper", "hydrogenic")
POLE_TOL = 1e-12
COALESCENCE_DET = 1e-18
HISTORY_PAD = 3


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
    q: float
    Dx: complex
    Dy: complex
    contributions: tuple
    below_threshold: bool = False


@dataclass(frozen=True)
class HarmonicSpectrum:
    qs: np.ndarray
    Ix: np.ndarray
    Iy: np.ndarray
    Itotal: np.ndarray
    dipoles: tuple
    audit: tuple = ()
    method: str = "saddle"


def dme(k, Ip, form="paper"):
    """Bound-continuum dipole matrix element d(k) for a hydrogenic target.

    ``form="paper"`` uses the denominator (k^2 + sqrt(2 Ip))^2; the
    ``"hydrogenic"`` switch substitutes the standard (k^2 + 2 Ip)^2.  k^2 is
    the unconjugated self-product, so complex momenta are continued
    analytically.
    """
    if form not in DME_FORMS:
        raise ValueError(f"unknown dme form {form!r}")
    k = np.asarray(k, dtype=complex)
    k2 = (k * k).sum(axis=0)
    shift = np.sqrt(2.0 * Ip) if form == "paper" else 2.0 * Ip
    den = (k2 + shift) ** 2
    if np.any(np.abs(den) < POLE_TOL):
        raise PoleError(f"dme pole: |k^2 + {shift:.4f}|^2 = {np.min(np.abs(den)):.3e}")
    return 1j * np.sqrt(2.0) * k / (np.pi * np.sqrt(2.0 * Ip) * den)


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


def contribution(p: FieldParams, tgt: TargetParams, q, sp: SaddlePoint,
                 label: OrbitLabel, dme_form="paper"):
    """Assemble the factorized dipole contribution of one saddle."""
    tau = sp.tr - sp.ti
    if sp.hess is None:     # a point built by hand, not by the solver
        hess, k_rec = hessian(p, tgt, q, sp)[0], sp.ps + apot(p, sp.tr)
    else:
        hess, k_rec = sp.hess, sp.k_rec
    hess_factor = _hess_prefactor(hess)
    d_rec = dme(k_rec, tgt.Ip, form=dme_form)
    ion_amp = ionisation_amplitude(tgt)
    spread = (2.0 * np.pi / (1j * tau)) ** 1.5
    phase = np.exp(1j * sp.action)
    total = hess_factor * d_rec * ion_amp * spread * phase
    return DipoleContribution(label=label, d_rec=d_rec, ion_amp=ion_amp,
                              spread=spread, hess_factor=hess_factor,
                              phase=phase, total=total)


def harmonic_dipole(p: FieldParams, tgt: TargetParams, q, labelled,
                    dme_form="paper"):
    """Sum relevant per-orbit contributions into the harmonic dipole."""
    contribs = []
    total = np.zeros(2, dtype=complex)
    for sp, label in labelled:
        c = contribution(p, tgt, q, sp, label, dme_form=dme_form)
        contribs.append(c)
        if label.relevant:
            total = total + c.total
    empty = not any(label.relevant for _, label in labelled)
    return HarmonicDipole(q=float(q), Dx=complex(total[0]), Dy=complex(total[1]),
                          contributions=tuple(contribs), below_threshold=empty)


def intensity(hd: HarmonicDipole, omega):
    """(Ix, Iy, Itotal) from the harmonic dipole, I = (qw)^4 |D|^2 / (2 pi c^3)."""
    pref = (hd.q * omega) ** 4 / (2.0 * np.pi * SPEED_OF_LIGHT ** 3)
    ix = pref * abs(hd.Dx) ** 2
    iy = pref * abs(hd.Dy) ** 2
    return ix, iy, ix + iy


def build_history(p: FieldParams, tgt: TargetParams, qs, solver=None):
    """Solve each order and track branches across orders by continuity.

    Returns (per_q, assignment, history): ``per_q[q]`` is the raw saddle
    list, ``assignment[q]`` the parallel branch keys, ``history[key]`` the
    q-sorted (q, SaddlePoint) series of one branch.
    """
    if solver is None:
        solver = solve_cycle
    per_q = {q: solver(p, tgt, q) for q in qs}
    assignment, history = track_branches(per_q, p.period)
    return per_q, assignment, history


def history_orders(qs, pad=HISTORY_PAD):
    """The orders whose branch histories judge relevance over ``qs``.

    They run from min(qs) to ``pad`` orders beyond max(qs), so the cutoff
    closest approach is visible from inside the range.
    """
    qs = np.asarray(sorted(qs), dtype=float)
    return np.arange(qs[0], qs[-1] + pad + 1.0)


def spectrum(p: FieldParams, tgt: TargetParams, qs, dme_form="paper",
             history_pad=HISTORY_PAD, solver=None):
    """Saddle-point harmonic spectrum over the orders ``qs``.

    Relevance is judged on the branch histories over
    :func:`history_orders` (``history_pad`` orders beyond the range).
    Per-order failures become audit entries, never aborts.
    """
    qs = np.asarray(sorted(qs), dtype=float)
    per_q, assignment, history = build_history(
        p, tgt, history_orders(qs, history_pad), solver=solver)
    audit = []
    dipoles = []
    ix = np.zeros(qs.size)
    iy = np.zeros(qs.size)
    for n, q in enumerate(qs):
        saddles = per_q.get(q, [])
        if not saddles:
            audit.append(f"q={q}: no saddles (below threshold or none converged)")
            dipoles.append(HarmonicDipole(q=q, Dx=0j, Dy=0j, contributions=(),
                                          below_threshold=True))
            continue
        try:
            mask = relevance_mask(p, tgt, q, saddles, history=history,
                                  keys=assignment[q], audit=audit)
            labelled = classify(p, saddles, relevant_mask=mask)
            hd = harmonic_dipole(p, tgt, q, labelled, dme_form=dme_form)
        except (PoleError, CoalescenceError) as exc:
            audit.append(f"q={q}: skipped ({exc})")
            hd = HarmonicDipole(q=q, Dx=0j, Dy=0j, contributions=(),
                                below_threshold=True)
        dipoles.append(hd)
        ix[n], iy[n], _ = intensity(hd, p.omega)
    return HarmonicSpectrum(qs=qs, Ix=ix, Iy=iy, Itotal=ix + iy,
                            dipoles=tuple(dipoles), audit=tuple(audit))
