"""Brute-force evaluation of the harmonic dipole by direct 2D integration.

This is the verification oracle for the saddle-point pipeline: the double
integral over real recombination time and excursion tau is discretized with
plain rectangle rules (tau on midpoints, tr commensurate with the period, so
exact field symmetries survive discretization and disjoint tau bands add
exactly).  The tau -> 0 spreading singularity is regularized by the complex
shift tau -> tau + i*eps.  No saddle-point approximation is made.  The
matrix element is the target's, as in the saddle sum (:func:`.dipole.dme`).

The grid covers tr in the first half period only.  t -> t + T/2 maps
(Ex, Ey) to (-Ex, Ey), so the integrand at tr + T/2 is diag(-1, 1) times
that at tr, and the second half period is added back exactly: odd orders
are purely x-polarized and even orders purely y-polarized, with the
forbidden component exactly 0.  Further periods only multiply each order by
a cycle sum.  On the grid ti = tr - tau takes few distinct values, so the
trigonometry at ti is tabulated once and read as windows of the tables.
The tau integral is done once for all orders, a block of tr rows at a time,
and each order is then a Fourier coefficient over tr.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import (SPEED_OF_LIGHT, FieldParams, TargetParams, _apot,
                    _apot_integral, _apot_sq_antideriv, _check_samples, _phases)
from .dipole import HarmonicSpectrum, dme, ionisation_amplitude

BLOCK_POINTS = 1 << 14     # (tr, tau) grid points in flight at a time


class ResolutionError(ValueError):
    """Step too coarse for the requested harmonic order."""


@dataclass(frozen=True)
class OracleConfig:
    """Discretization of the direct dipole integral.

    ``n_cycles`` fundamental periods of recombination time, excursions up to
    ``tau_max_periods`` * T, step T / ``steps_per_period`` (even, so that
    T/2 is a whole number of steps).  The integrand is T-periodic, so the
    grid covers half a period whatever ``n_cycles``; the cycles enter the
    projection in closed form and matter only for non-integer orders.
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
        if self.steps_per_period % 2:
            raise ValueError("steps_per_period must be even, so that T/2 "
                             "is a grid step")
        # each check is written so that NaN fails it
        if not 1.2 <= self.tau_max_periods < np.inf:
            raise ValueError("tau_max must be at least 1.2 T and finite")
        if not 0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")
        if self.n_cycles < 1:
            raise ValueError("need at least one cycle")
        if q_max * p.omega * self.dt(p) > 0.5:
            raise ResolutionError(f"step {self.dt(p):.3f} too coarse for "
                                  f"q={q_max:g} (q w dt > 0.5)")

    def dt(self, p: FieldParams):
        return p.period / self.steps_per_period


def _grid(p, cfg):
    """The recombination times tr in [0, T/2) and the tau midpoints."""
    dt = cfg.dt(p)
    n_tau = int(round(cfg.tau_max_periods * cfg.steps_per_period))
    tr = dt * np.arange(cfg.steps_per_period // 2)
    return tr, dt * (np.arange(n_tau) + 0.5)


def _ti_windows(p, dt, n_tr, n_tau):
    """sin(w ti), sin(2 w ti + phi) and the A.A antiderivative at every
    (tr, tau) grid point, as zero-copy (n_tr, n_tau) views.

    On the grid ti = tr_j - tau_k = dt (j - k - 1/2) takes only
    n_tr + n_tau - 1 values.  Each quantity is tabulated once, in descending
    ti, and row j reads window n_tr - 1 - j of its table.
    """
    ti = dt * (n_tr - 1.5 - np.arange(n_tr + n_tau - 1))
    x1, x2 = _phases(p, ti)
    return tuple(sliding_window_view(table, n_tau)[::-1]
                 for table in (np.sin(x1), np.sin(x2),
                               _apot_sq_antideriv(p, ti)))


def _tau_sums(p, tgt, cfg, weight=None):
    """(tr, g): the tau integral of the q-independent integrand at each tr
    of the first half period.

    g has shape (2, n_tr): the tau sum of d(p_s + A(tr)) * Y * spread *
    e^{i S0} * dt, each term times ``weight`` (one per tau) when given, with
    S0 the action without the q w tr term.  The tr rows are split into
    k = min(usable CPUs, rows) contiguous ranges; an executor's k - 1 worker
    threads sum ranges 1..k-1, which run together since numpy's ufuncs
    release the interpreter lock, and this thread range 0, each building
    whole rows in blocks that together hold at most BLOCK_POINTS points.
    Every term is elementwise and each row sums the same contiguous tau
    terms, so g depends on neither the block nor k.  Leaving the executor
    joins every worker; the ranges' errors are then raised in range order,
    so the lowest range that raised wins.  With one range no thread starts.
    """
    dt = cfg.dt(p)
    tr, tau = _grid(p, cfg)
    si1, si2, fi = _ti_windows(p, dt, tr.size, tau.size)
    x1, x2 = _phases(p, tr[:, None])
    sr1, sr2 = np.sin(x1), np.sin(x2)
    a_tr = np.stack(_apot(p, np.cos(x1), np.cos(x2)))
    fr = _apot_sq_antideriv(p, tr[:, None])
    y_spread = (ionisation_amplitude(tgt)
                * (2.0 * np.pi / (1j * (tau + 1j * cfg.eps))) ** 1.5)
    g = np.empty((2, tr.size), dtype=complex)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    k = min(cpus, tr.size)
    n_rows = max(1, BLOCK_POINTS // (k * tau.size))
    edges = [tr.size * w // k for w in range(k + 1)]

    def sum_rows(w):
        for start in range(edges[w], edges[w + 1], n_rows):
            b = slice(start, min(start + n_rows, edges[w + 1]))
            ps = np.stack(_apot_integral(p, si1[b], si2[b], sr1[b], sr2[b])) / -tau
            d_rec = dme(ps + a_tr[:, b], tgt)
            ps2 = (ps * ps).sum(axis=0)
            s0 = -tgt.Ip * tau + 0.5 * ps2 * tau - 0.5 * (fr[b] - fi[b])
            terms = d_rec * (y_spread * np.exp(1j * s0)) * dt
            if weight is not None:
                terms = terms * weight
            g[:, b] = terms.sum(axis=-1)

    with ThreadPoolExecutor(max(1, k - 1)) as pool:
        ranges = [pool.submit(sum_rows, w) for w in range(1, k)]
        sum_rows(0)
    for r in ranges:
        r.result()
    return tr, g


def _project(p, cfg, tr, g, q):
    """The order-q Fourier coefficient, over n_cycles periods, of the tau
    sums ``g`` on the first half period.

    The second half period adds diag(-1, 1) g(tr) e^{i pi q}, and each
    further cycle the first one's sum times e^{2 pi i q}.  For integer q both
    factors are exact: the forbidden component is 0 and the cycles cancel
    the 1 / n_cycles.
    """
    half = (g * np.exp(1j * q * p.omega * tr)).sum(axis=-1) * cfg.dt(p) / p.period
    if q == round(q):
        d = np.zeros(2, dtype=complex)
        allowed = 1 - int(round(q)) % 2          # x for odd q, y for even q
        d[allowed] = 2.0 * half[allowed]
        return d
    flip = np.exp(1j * np.pi * q)
    n = cfg.n_cycles
    cycles = (1.0 - flip ** (2 * n)) / (n * (1.0 - flip ** 2))
    return half * np.array([1.0 - flip, 1.0 + flip]) * cycles


def direct_dipole(p: FieldParams, tgt: TargetParams, cfg: OracleConfig, qs):
    """Direct-integration harmonic spectrum of ``tgt`` over the orders ``qs``."""
    qs = np.asarray(sorted(qs), dtype=float)
    _check_samples(qs.size, 1, "orders")
    cfg.validate(p, qs[-1])
    tr, g = _tau_sums(p, tgt, cfg)
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
                    tau_band, taper=0.0):
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
    if not 0 <= taper < np.inf:
        raise ValueError(f"taper width must be nonnegative and finite, got {taper}")
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
    tr, g = _tau_sums(p, tgt, cfg, weight=weight)
    return _project(p, cfg, tr, g, q)
