"""Brute-force evaluation of the harmonic dipole by direct 2D integration.

This is the verification oracle for the saddle-point pipeline: the double
integral over real recombination time and excursion tau is discretized with
plain rectangle rules (tau on midpoints, tr commensurate with the period, so
exact field symmetries survive discretization and disjoint tau bands add
exactly).  The tau -> 0 spreading singularity is regularized by the complex
shift tau -> tau + i*eps.  The tau integral is done once for all orders, a
block of tr rows at a time, and each order is then a Fourier coefficient
over the n_cycles periods of tr.  No saddle-point approximation is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (FieldParams, TargetParams, apot, apot_integral,
                    apot_sq_integral)
from .dipole import HarmonicSpectrum, dme, ionisation_amplitude
from .field import SPEED_OF_LIGHT

BLOCK_POINTS = 1 << 15     # (tr, tau) grid points built at a time


class ResolutionError(ValueError):
    """Step too coarse for the requested harmonic order."""


@dataclass(frozen=True)
class OracleConfig:
    """Discretization of the direct dipole integral.

    ``n_cycles`` fundamental periods of recombination time, excursions up to
    ``tau_max_periods`` * T, step T / ``steps_per_period``.
    """

    n_cycles: int = 1
    tau_max_periods: float = 1.5
    steps_per_period: int = 512
    eps: float = 1e-2

    def validate(self, p: FieldParams, q_max=0.0):
        """ValueError for a bad configuration, ResolutionError when the step
        does not resolve order ``q_max`` (q w dt > 0.5)."""
        if self.steps_per_period < 400:
            raise ValueError("dt must be at most T/400")
        if self.tau_max_periods < 1.2:
            raise ValueError("tau_max must be at least 1.2 T")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.n_cycles < 1:
            raise ValueError("need at least one cycle")
        if q_max * p.omega * self.dt(p) > 0.5:
            raise ResolutionError(f"step {self.dt(p):.3f} too coarse for "
                                  f"q={q_max:g} (q w dt > 0.5)")

    def dt(self, p: FieldParams):
        return p.period / self.steps_per_period


def _grid(p, cfg):
    """The recombination times tr and the tau midpoints of the grid."""
    dt = cfg.dt(p)
    n_tau = int(round(cfg.tau_max_periods * cfg.steps_per_period))
    tr = dt * np.arange(cfg.n_cycles * cfg.steps_per_period)
    return tr, dt * (np.arange(n_tau) + 0.5)


def _tau_sums(p, tgt, cfg, dme_form="paper", weight=None):
    """(tr, g): the tau integral of the q-independent integrand at each tr.

    g has shape (2, n_tr): the tau sum of d(p_s + A(tr)) * Y * spread *
    e^{i S0} * dt, each term times ``weight`` (one per tau) when given, with
    S0 the action without the q w tr term.  The grid is built BLOCK_POINTS
    points (whole tr rows) at a time; every term is elementwise and each row
    sums the same contiguous tau terms, so g does not depend on the block.
    """
    dt = cfg.dt(p)
    tr, tau = _grid(p, cfg)
    taug = tau[None, :]
    spread = (2.0 * np.pi / (1j * (taug + 1j * cfg.eps))) ** 1.5
    g = np.empty((2, tr.size), dtype=complex)
    n_rows = max(1, BLOCK_POINTS // tau.size)
    for start in range(0, tr.size, n_rows):
        trg = tr[start:start + n_rows, None]
        tig = trg - taug
        ps = -apot_integral(p, tig, trg) / taug
        d_rec = dme(ps + apot(p, trg), tgt.Ip, form=dme_form)
        ps2 = (ps * ps).sum(axis=0)
        s0 = -tgt.Ip * taug + 0.5 * ps2 * taug - 0.5 * apot_sq_integral(p, tig, trg)
        terms = d_rec * (ionisation_amplitude(tgt) * spread * np.exp(1j * s0)) * dt
        if weight is not None:
            terms = terms * weight
        g[:, start:start + n_rows] = terms.sum(axis=-1)
    return tr, g


def _project(p, cfg, tr, rows_tau_summed, q):
    dt = cfg.dt(p)
    phase = np.exp(1j * q * p.omega * tr)
    return (rows_tau_summed * phase).sum(axis=-1) * dt / (cfg.n_cycles * p.period)


def direct_dipole(p: FieldParams, tgt: TargetParams, cfg: OracleConfig, qs,
                  dme_form="paper"):
    """Direct-integration harmonic spectrum over the orders ``qs``."""
    qs = np.asarray(sorted(qs), dtype=float)
    cfg.validate(p, qs[-1])
    tr, g = _tau_sums(p, tgt, cfg, dme_form=dme_form)
    ix = np.zeros(qs.size)
    iy = np.zeros(qs.size)
    dips = []
    pref = 1.0 / (2.0 * np.pi * SPEED_OF_LIGHT ** 3)
    for n, q in enumerate(qs):
        d = _project(p, cfg, tr, g, q)
        dips.append(d)
        w4 = (q * p.omega) ** 4 * pref
        ix[n] = w4 * abs(d[0]) ** 2
        iy[n] = w4 * abs(d[1]) ** 2
    return HarmonicSpectrum(qs=qs, Ix=ix, Iy=iy, Itotal=ix + iy,
                            dipoles=tuple(dips), method="direct")


def windowed_dipole(p: FieldParams, tgt: TargetParams, cfg: OracleConfig, q,
                    tau_band, dme_form="paper", taper=0.0):
    """Direct dipole with the excursion restricted to (tau_min, tau_max].

    With ``taper = 0`` bands are sharp and half-open over the midpoint grid,
    so a union of disjoint bands reproduces the unrestricted integral
    exactly.  A nonzero ``taper`` replaces each interior band edge with a
    raised-cosine transition of that width, which suppresses the spurious
    non-stationary boundary contribution a sharp cut introduces; bands that
    share an edge (and taper) still sum exactly to the unrestricted result.
    """
    cfg.validate(p, q)
    lo, hi = tau_band
    if not (0.0 <= lo < hi <= cfg.tau_max_periods * p.period + 1e-12):
        raise ValueError(f"invalid tau band ({lo}, {hi})")
    if taper < 0:
        raise ValueError(f"taper width must be nonnegative, got {taper}")
    _, tau = _grid(p, cfg)
    tau_top = cfg.tau_max_periods * p.period
    if taper == 0.0:
        weight = ((tau > lo) & (tau <= hi)).astype(float)
    else:
        def rise(edge):
            t = np.clip((tau - (edge - 0.5 * taper)) / taper, 0.0, 1.0)
            return 0.5 * (1.0 - np.cos(np.pi * t))
        weight = np.ones_like(tau)
        if lo > 0.0:
            weight = weight * rise(lo)
        if hi < tau_top - 1e-12:
            weight = weight * (1.0 - rise(hi))
    tr, g = _tau_sums(p, tgt, cfg, dme_form=dme_form, weight=weight)
    return _project(p, cfg, tr, g, q)
