"""Relative-phase scans: per-harmonic modulation, Fourier fits, modality.

The scan sweeps the two-colour phase phi over a uniform grid on [0, 2pi),
carrying the quantum orbits from cell to cell by continuation (one call
per phi step for the orbits of every order, each keeping its identity) and
re-solving them from dense seeds at every REFRESH_EVERY-th cell (all of
those in one batched solve), and records intensities and one table of
polarization axes per orbit.  The modulation model is the five-term series

    f(phi) = a0 + a1 cos(phi) + b1 sin(phi) + a2 cos(2 phi) + b2 sin(2 phi)

optionally extended by cos(4 phi) / sin(4 phi) terms when the five-term
residual exceeds 5% of the series peak-to-peak (a bimodal shape within one
pi period cannot be represented otherwise).  Single-atom intensities are
exactly pi-periodic in phi, so the fitted a1, b1 vanish for simulated
series; they are kept in the model for experimental data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .field import FieldParams, SamplingError, TargetParams, _check_samples
from .saddle import (BranchLostError, CoalescenceError, continue_branches,
                     solve_cycles)
from .taxonomy import amplitude, classify, match_branches, relevance_mask
from .dipole import PoleError, harmonic_dipole, intensity
from .polarization import UndefinedEllipseError, decompose, signed_axes

REFRESH_EVERY = 8          # dense re-solve cadence along the phi grid
RMS_EXTEND_FRACTION = 0.05
TAU_GRID_STEP = 1e-3
PERIODICITY_TOL = 1e-6
PHI_GROWTH_FACTOR = 5.0    # max amplitude growth per phi step for a branch
# the columns of each orbit's axis table in PhaseScan.orbit_axes
AXES_COLUMNS = ("Mx", "My", "Nx", "Ny", "gamma", "ellipticity")


class IllConditionedFitError(ValueError):
    """Fit grid cannot resolve the model coefficients."""


class ClassificationRefusedError(ValueError):
    """Series is constant or not pi-periodic; modality undefined."""


class NonFiniteSampleError(ValueError):
    """A phase series or its phase grid holds a NaN or infinite sample."""


@dataclass(frozen=True)
class ModulationFit:
    """Least-squares coefficients of the phase-modulation model."""

    a0: float
    a1: float
    b1: float
    a2: float
    b2: float
    rms: float
    a4: float = 0.0
    b4: float = 0.0
    extended: bool = False
    tau: float = 0.0

    def evaluate(self, phi):
        """Model value at phi (the stored alignment shift tau is applied)."""
        x = np.asarray(phi, dtype=float) - self.tau
        return (self.a0 + self.a1 * np.cos(x) + self.b1 * np.sin(x)
                + self.a2 * np.cos(2 * x) + self.b2 * np.sin(2 * x)
                + self.a4 * np.cos(4 * x) + self.b4 * np.sin(4 * x))


@dataclass(frozen=True)
class PhaseScan:
    """Phase-resolved intensities and per-orbit axes on a uniform phi grid."""

    phis: np.ndarray       # (n,), uniform on [0, 2pi)
    qs: np.ndarray         # (m,)
    Ix: np.ndarray         # (m, n)
    Iy: np.ndarray
    Itotal: np.ndarray
    orbit_axes: dict       # (q, branch_id) -> (n, 6) table, AXES_COLUMNS
    gaps: tuple            # (q, phi, reason) for failed cells/branches

    def series(self, q):
        """The Itotal modulation of one harmonic order."""
        idx = int(np.argmin(np.abs(self.qs - q)))
        if abs(self.qs[idx] - q) > 1e-9:
            raise KeyError(f"order {q} not in scan")
        return self.Itotal[idx]


def _scan_cell(p, tgt, q, reps, match, gaps, prev_reps=None, prev_banned=None):
    """Relevance + classification + dipole sum for the cell (q, p.phi).

    Relevance is judged on the representatives ``reps``, and
    :func:`.taxonomy.classify` copies it to their partners.  ``match`` holds
    each representative's predecessor, an index into the previous cell's
    ``prev_reps`` (-1 if new).  Returns the cell's
    intensities, each relevant orbit's axis row (AXES_COLUMNS) and the
    `banned` flags to carry to the next cell: a branch whose amplitude
    explodes between neighbouring phi cells is an anti-Stokes partner
    crossing in phi — invisible to the per-order growth test — and stays
    excluded for as long as it is tracked.  A dipole that
    fails (a coalescence or a pole) makes the cell a gap: NaN intensities
    and no axis rows, with the flags still returned.
    """
    mask = relevance_mask(p, tgt, q, reps)
    banned = np.zeros(len(reps), dtype=bool)
    for i, (sp, k) in enumerate(zip(reps, match)):
        if k < 0:
            continue
        if prev_banned is not None and prev_banned[k]:
            banned[i] = True
        elif amplitude(sp) > PHI_GROWTH_FACTOR * amplitude(prev_reps[k]):
            banned[i] = True
            gaps.append((q, p.phi, f"branch at ti={sp.ti:.2f} grows with phi "
                                   "(anti-Stokes crossing)"))
    mask &= ~banned
    labelled = classify(p, reps, relevant_mask=mask)
    try:
        hd = harmonic_dipole(p, tgt, q, labelled)
    except (CoalescenceError, PoleError) as exc:
        gaps.append((q, p.phi, str(exc)))
        return np.nan, np.nan, np.nan, {}, banned
    ix, iy, itot = intensity(hd, p.omega)
    rows = {}
    for c in hd.contributions:
        try:
            dec = decompose(c.total)
        except UndefinedEllipseError:
            gaps.append((q, p.phi, f"{c.label.branch_id}: zero contribution"))
            continue
        rows[c.label.branch_id] = (*dec.M, *dec.N, dec.gamma, dec.ellipticity)
    return ix, iy, itot, rows, banned


def run_scan(p: FieldParams, tgt: TargetParams, q_list, n_phi):
    """Sweep phi over ``n_phi`` uniform points for each order in ``q_list``.

    The representative saddles are carried from cell to cell by
    continuation, and each cell's :func:`.taxonomy.classify` builds their
    exact partners; every REFRESH_EVERY-th cell re-solves from a dense seed
    grid so branches born mid-scan are picked up.  Every other cell is a continuation, also
    after a failed cell, so the solves do not depend on the cells' results
    and run first, step-major: the refreshes of all orders in one
    :func:`.saddle.solve_cycles` call, then for each of the REFRESH_EVERY - 1
    steps after a refresh one :func:`.saddle.continue_branches` call that
    carries the branches of every order and refresh segment one phi step
    on.  The cells (relevance, phi-bans, dipoles) then follow in sweep
    order.  Failed cells or lost branches become gap records, never aborts;
    a lost branch is named by its index in the cell it left.  The dipoles
    use the matrix element form of ``tgt`` (:func:`.dipole.dme`).

    Shifting phi by pi reflects the driving field in y exactly, so only the
    half grid [0, pi) is computed and the second half is tiled from it after
    the sweep: intensities repeat unchanged and the per-orbit ellipse axes
    flip their y components.  This keeps the exact pi-periodicity of the
    single-atom response free of path-dependent branch-tracking hysteresis
    (the underlying symmetry is verified independently at the spectrum
    level).  Each orbit's axes are one (n_phi, 6) table in
    ``PhaseScan.orbit_axes``, its columns AXES_COLUMNS; a row the scan did
    not fill (a gap, or the orbit absent or irrelevant there) is NaN.
    """
    qs = np.asarray(sorted(q_list), dtype=float)
    _check_samples(qs.size, 1, "orders")
    _check_samples(n_phi, 32, "phase points")
    if n_phi % 2:
        raise SamplingError(f"need an even number of phase points, got {n_phi}")
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    half = n_phi // 2
    ix = np.full((qs.size, n_phi), np.nan)
    iy = np.full_like(ix, np.nan)
    itot = np.full_like(ix, np.nan)
    tables = {}
    gaps = []
    # solve phase: the dense refreshes of every order in one batched solve,
    # then one continuation per phi step over every order and segment
    refreshes = [(m, j) for m in range(qs.size) for j in range(0, half, REFRESH_EVERY)]
    reps = dict(zip(refreshes, solve_cycles(
        tgt, [(p.with_phi(phis[j]), qs[m]) for m, j in refreshes])))
    carried = {}    # continued cell -> (predecessor of each branch, losses)
    for s in range(1, REFRESH_EVERY):
        cells = [(m, j + s) for m, j in refreshes if j + s < half]
        # (cell, index of the branch in the cell before it)
        branches = [(m, j, k) for m, j in cells for k in range(len(reps[m, j - 1]))]
        out = continue_branches(
            p, tgt, [qs[m] for m, _, _ in branches],
            [reps[m, j - 1][k] for m, j, k in branches], "phi",
            [phis[j] for _, j, _ in branches], start=[phis[j - 1] for _, j, _ in branches])
        for cell in cells:
            reps[cell], carried[cell] = [], ([], [])
        for (m, j, k), res in zip(branches, out):
            if isinstance(res, BranchLostError):
                carried[m, j][1].append(f"branch {k} {res}")
            else:
                reps[m, j].append(res)
                carried[m, j][0].append(k)
    # cell phase, in the order of the sweep
    for m, q in enumerate(qs):
        prev_reps, prev_banned = None, None
        for j in range(half):
            phi = phis[j]
            if j % REFRESH_EVERY == 0:
                match = match_branches(prev_reps or [], reps[m, j], p.period)
            else:
                # each surviving branch is matched to the one it continues
                match, lost = carried[m, j]
                gaps.extend((q, phi, reason) for reason in lost)
            ix[m, j], iy[m, j], itot[m, j], rows, banned = _scan_cell(
                p.with_phi(phi), tgt, q, reps[m, j], match, gaps,
                prev_reps=prev_reps, prev_banned=prev_banned)
            for bid, row in rows.items():
                tables.setdefault((q, bid), np.full((n_phi, 6), np.nan))[j] = row
            prev_reps, prev_banned = reps[m, j], banned
    for a in (ix, iy, itot):
        a[:, half:] = a[:, :half]
    for table in tables.values():
        table[half:] = table[:half] * [1.0, -1.0, 1.0, -1.0, 1.0, 1.0]
    _pair_signs(tables)
    return PhaseScan(phis=phis, qs=qs, Ix=ix, Iy=iy, Itotal=itot,
                     orbit_axes=tables, gaps=tuple(gaps))


def _pair_signs(tables):
    """Make the major axes (the M columns) of each h0/h1 pair of one family
    sign-continuous together."""
    for (q, bid), lead in tables.items():
        part = tables.get((q, "h1-" + bid[3:])) if bid.startswith("h0-") else None
        if part is None:
            continue
        good = np.isfinite(lead[:, :2]).all(axis=1) & np.isfinite(part[:, :2]).all(axis=1)
        if good.any():
            lead[good, :2], part[good, :2] = signed_axes([lead[good, :2],
                                                          part[good, :2]])


def _design_matrix(phis, extended):
    cols = [np.ones_like(phis), np.cos(phis), np.sin(phis),
            np.cos(2 * phis), np.sin(2 * phis)]
    if extended:
        cols += [np.cos(4 * phis), np.sin(4 * phis)]
    return np.column_stack(cols)


def _lstsq_scaled(a, y):
    scale = np.linalg.norm(a, axis=0)
    if np.any(scale == 0):
        raise IllConditionedFitError("degenerate design matrix column")
    coef, _, rank, sv = np.linalg.lstsq(a / scale, y, rcond=None)
    if rank < a.shape[1] or sv[0] / sv[-1] > 1e10:
        raise IllConditionedFitError(
            f"fit grid cannot resolve the model (rank {rank}/{a.shape[1]})")
    return coef / scale


def _samples(series, phase_grid):
    """The series and its phase grid as float arrays; NonFiniteSampleError
    if either holds a NaN or infinity (a failed scan cell is NaN), and
    ValueError if they differ in length."""
    y = np.asarray(series, dtype=float)
    phis = np.asarray(phase_grid, dtype=float)
    for what, v in (("series", y), ("phase grid", phis)):
        bad = np.count_nonzero(~np.isfinite(v))
        if bad:
            raise NonFiniteSampleError(f"{bad} of {v.size} {what} samples "
                                       "are not finite")
    if y.shape != phis.shape:
        raise ValueError("series and phase grid differ in length")
    return y, phis


def fourier_fit(series, phase_grid, extended=None):
    """Least-squares modulation fit of a phase series.

    ``extended=None`` fits the five-term model first and adds the 4 phi
    terms automatically when the residual rms exceeds 5% of the series
    peak-to-peak; pass True/False to force either model.  Non-finite
    samples raise NonFiniteSampleError.
    """
    y, phis = _samples(series, phase_grid)
    _check_samples(y.size, 8, "points")

    def solve(ext):
        a = _design_matrix(phis, ext)
        coef = _lstsq_scaled(a, y)
        rms = float(np.sqrt(np.mean((a @ coef - y) ** 2)))
        full = np.zeros(7)
        full[:coef.size] = coef
        return ModulationFit(a0=full[0], a1=full[1], b1=full[2], a2=full[3],
                             b2=full[4], a4=full[5], b4=full[6],
                             rms=rms, extended=bool(ext))

    if extended is not None:
        return solve(extended)
    fit = solve(False)
    ptp = float(np.ptp(y))
    if ptp > 0 and fit.rms > RMS_EXTEND_FRACTION * ptp:
        fit = solve(True)
    return fit


def _best_shift(taus, ks, coef, y):
    """The shift of ``taus`` whose model, the (tau x 7) basis of ``ks`` times
    the (7 x phi) ``coef``, is nearest ``y`` in least squares (the first one
    on a tie)."""
    basis = np.ones((taus.size, 7))
    basis[:, 1::2] = np.cos(taus[:, None] * ks)
    basis[:, 2::2] = np.sin(taus[:, None] * ks)
    resid = basis @ coef
    resid -= y
    return taus[np.argmin(np.einsum("ij,ij->i", resid, resid))]


def align_shift(reference_fit: ModulationFit, measured, phase_grid):
    """Alignment shift tau minimizing sum (f_fit(phi - tau) - measured)^2.

    Grid search at 1e-3 resolution over [0, 2pi), then two zooms onto a
    1000x finer grid over the cell around the minimum (1e-9 resolution).
    A reference fit with no oscillatory content has a flat objective; that
    case warns and returns tau = 0.  Fewer than 8 samples raise
    SamplingError, non-finite samples NonFiniteSampleError.
    """
    y, phis = _samples(measured, phase_grid)
    _check_samples(y.size, 8, "points")
    osc = np.array([reference_fit.a1, reference_fit.b1, reference_fit.a2,
                    reference_fit.b2, reference_fit.a4, reference_fit.b4])
    if np.max(np.abs(osc)) <= 1e-12 * abs(reference_fit.a0):
        warnings.warn("constant reference fit: alignment shift is degenerate",
                      stacklevel=2)
        return 0.0
    # f(phi - tau) = a0 + sum over k = 1, 2, 4 of cos(k tau) (a_k cos k phi +
    # b_k sin k phi) + sin(k tau) (a_k sin k phi - b_k cos k phi): a
    # (tau x 7) basis times a (7 x phi) coefficient matrix
    ks = np.array([1.0, 2.0, 4.0])
    a, b = osc[0::2, None], osc[1::2, None]
    cos_kphi, sin_kphi = np.cos(ks[:, None] * phis), np.sin(ks[:, None] * phis)
    coef = np.empty((7, phis.size))
    coef[0] = reference_fit.a0
    coef[1::2] = a * cos_kphi + b * sin_kphi
    coef[2::2] = a * sin_kphi - b * cos_kphi
    tau = _best_shift(np.arange(0.0, 2.0 * np.pi, TAU_GRID_STEP), ks, coef, y)
    for cell in (TAU_GRID_STEP, TAU_GRID_STEP / 1000):
        center, tau = tau, _best_shift(tau + np.linspace(-cell, cell, 2001), ks, coef, y)
    # flat to round-off at the minimum: Newton on sum r dr/dtau inside the last
    # zoom cell, with the model coef[0] + Re sum_k e^{i k tau} wave_k
    wave = coef[1::2] - 1j * coef[2::2]
    for _ in range(4):
        r, r1, r2 = (((1j * ks) ** j * np.exp(1j * tau * ks) @ wave).real for j in range(3))
        r += coef[0] - y
        step = (r @ r1) / (r1 @ r1 + r @ r2)
        if not abs(tau - step - center) <= cell:
            break
        tau -= step
    tau = float(tau % (2.0 * np.pi))
    if 2.0 * np.pi - tau < cell / 1000:   # within the last zoom step of the wrap point
        tau = 0.0
    return tau


def classify_modality(series, phase_grid):
    """Count modulation maxima per pi period: 1 -> monomodal, >=2 -> bimodal.

    The series must be pi-periodic on its uniform 2pi grid (within
    PERIODICITY_TOL relative to its peak-to-peak) and non-constant;
    otherwise classification is refused.  Maxima are counted on the
    Fourier-smoothed series (extended model) so grid noise cannot split a
    peak.  Non-finite samples raise NonFiniteSampleError.
    """
    y, phis = _samples(series, phase_grid)
    if y.size < 8 or y.size % 2:
        raise ClassificationRefusedError(
            "need an even-length uniform grid over [0, 2 pi)")
    ptp = float(np.ptp(y))
    scale = max(np.max(np.abs(y)), 1e-300)
    if ptp <= 1e-12 * scale:
        raise ClassificationRefusedError("constant series (degenerate)")
    half = y.size // 2
    defect = np.max(np.abs(y - np.roll(y, half)))
    if defect > PERIODICITY_TOL * ptp:
        raise ClassificationRefusedError(
            f"series not pi-periodic (defect {defect:.3e} vs ptp {ptp:.3e})")
    fit = fourier_fit(y, phis, extended=True)
    fine = np.linspace(0.0, np.pi, 2048, endpoint=False)
    m = fit.evaluate(fine)
    left = np.roll(m, 1)
    right = np.roll(m, -1)
    n_max = int(np.count_nonzero((m > left) & (m > right)))
    label = "monomodal" if n_max <= 1 else "bimodal"
    return label, n_max
