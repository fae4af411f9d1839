"""Complex saddle-point solver for the ionisation/recombination time system.

The stationary points (ti, tr) of the semiclassical action satisfy

    (1/2) (p_s + A(tr))^2 + Ip - q w = 0      (recombination)
    (1/2) (p_s + A(ti))^2 + Ip       = 0      (ionisation)

with the stationary momentum p_s = -(1/(tr - ti)) * integral(A, ti..tr).
All dot products of 2-vectors are unconjugated (analytic continuation).

The solver is a damped Newton iteration with the analytic Jacobian; the
public entry points are scalar, but internally everything is vectorized so
that a dense seed grid over one optical cycle is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field import FieldParams, TargetParams, apot, apot_integral, apot_sq_integral, efield

RESIDUAL_TOL = 1e-12
DEDUP_TOL = 1e-8
COALESCENCE_COND = 1e12


class CoalescenceError(ValueError):
    """Ionisation and recombination times coincide (or their saddles merge)."""


class NoConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class BranchLostError(RuntimeError):
    """Continuation lost a branch; carries the last converged point."""

    def __init__(self, message, last_good, last_value):
        super().__init__(message)
        self.last_good = last_good
        self.last_value = last_value


@dataclass(frozen=True)
class SaddlePoint:
    """One converged solution of the saddle system at harmonic order q."""

    ti: complex
    tr: complex
    ps: np.ndarray          # complex (2,) stationary momentum
    action: complex
    hessdet: complex
    q: float
    residual: float
    warning: str | None = None

    @property
    def excursion(self):
        """Real travel time Re(tr - ti)."""
        return (self.tr - self.ti).real


@dataclass(frozen=True)
class SeedGrid:
    """Initial guesses (ti, tr) within one fundamental period."""

    ti: np.ndarray
    tr: np.ndarray
    half_cycle: np.ndarray  # integer tag from Re(ti) binning by T/2


def stationary_momentum(p: FieldParams, ti, tr):
    """p_s = -(1/(tr-ti)) * integral of A over [ti, tr]."""
    tau = np.asarray(tr) - np.asarray(ti)
    if np.any(np.abs(tau) < 1e-14):
        raise CoalescenceError("tr and ti coincide; stationary momentum undefined")
    return -apot_integral(p, ti, tr) / tau


def action_value(p: FieldParams, tgt: TargetParams, q, ti, tr):
    """Semiclassical action S(ti, tr) in closed form (momentum eliminated)."""
    ps = stationary_momentum(p, ti, tr)
    tau = np.asarray(tr) - np.asarray(ti)
    ps2 = (ps * ps).sum(axis=0)
    return (-tgt.Ip * tau + 0.5 * ps2 * tau
            - 0.5 * apot_sq_integral(p, ti, tr) + q * p.omega * np.asarray(tr))


def saddle_residual(p: FieldParams, tgt: TargetParams, q, ti, tr):
    """The two saddle-equation values (recombination, ionisation)."""
    ps = stationary_momentum(p, ti, tr)
    vr = ps + apot(p, tr)
    vi = ps + apot(p, ti)
    f_rec = 0.5 * (vr * vr).sum(axis=0) + tgt.Ip - q * p.omega
    f_ion = 0.5 * (vi * vi).sum(axis=0) + tgt.Ip
    return np.stack([f_rec, f_ion])


def _residual_jacobian(p, tgt, q, ti, tr):
    """Residual and analytic Jacobian wrt (ti, tr), vectorized."""
    with np.errstate(all="ignore"):
        return _residual_jacobian_impl(p, tgt, q, ti, tr)


def _residual_jacobian_impl(p, tgt, q, ti, tr):
    tau = tr - ti
    ps = -apot_integral(p, ti, tr) / tau
    vr = ps + apot(p, tr)
    vi = ps + apot(p, ti)
    er = efield(p, tr)
    ei = efield(p, ti)
    vr2 = (vr * vr).sum(axis=0)
    vi2 = (vi * vi).sum(axis=0)
    vrvi = (vr * vi).sum(axis=0)
    f_rec = 0.5 * vr2 + tgt.Ip - q * p.omega
    f_ion = 0.5 * vi2 + tgt.Ip
    j = np.empty((2, 2) + np.shape(ti), dtype=complex)
    j[0, 0] = vrvi / tau                              # dF_rec/dti
    j[0, 1] = -vr2 / tau - (vr * er).sum(axis=0)      # dF_rec/dtr
    j[1, 0] = vi2 / tau - (vi * ei).sum(axis=0)       # dF_ion/dti
    j[1, 1] = -vrvi / tau                             # dF_ion/dtr
    return np.stack([f_rec, f_ion]), j


def _resnorm(p, tgt, q, ti, tr):
    with np.errstate(all="ignore"):
        tau = tr - ti
        bad = (np.abs(tau) < 1e-12) | (np.abs(ti.imag) > 1e3) | (np.abs(tr.imag) > 1e3)
        tau = np.where(bad, 1.0, tau)
        ti = np.where(bad, 0.0, ti)
        tr = np.where(bad, 1.0, tr)
        ps = -apot_integral(p, ti, tr) / tau
        vr = ps + apot(p, tr)
        vi = ps + apot(p, ti)
        f_rec = 0.5 * (vr * vr).sum(axis=0) + tgt.Ip - q * p.omega
        f_ion = 0.5 * (vi * vi).sum(axis=0) + tgt.Ip
        rn = np.maximum(np.abs(f_rec), np.abs(f_ion))
        return np.where(bad | ~np.isfinite(rn), np.inf, rn)


def _newton_batch(p, tgt, q, ti, tr, tol=RESIDUAL_TOL, max_iter=100, max_halvings=8):
    """Damped Newton on a batch of seeds. Returns (ti, tr, resnorm, converged)."""
    ti = np.array(ti, dtype=complex)
    tr = np.array(tr, dtype=complex)
    q = np.broadcast_to(np.asarray(q, dtype=float), ti.shape)
    rn = _resnorm(p, tgt, q, ti, tr)
    alive = np.isfinite(rn)
    for _ in range(max_iter):
        active = alive & (rn > tol)
        if not active.any():
            break
        f, j = _residual_jacobian(p, tgt, q[active], ti[active], tr[active])
        det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
        singular = np.abs(det) < 1e-300
        det = np.where(singular, 1.0, det)
        dti = -(j[1, 1] * f[0] - j[0, 1] * f[1]) / det
        dtr = -(-j[1, 0] * f[0] + j[0, 0] * f[1]) / det
        dti[singular] = np.nan
        dtr[singular] = np.nan
        # trust region: cap the step at half a period to keep iterates sane
        cap = 0.5 * p.period
        size = np.maximum(np.abs(dti), np.abs(dtr))
        shrink = size > cap
        factor = np.where(shrink, cap / np.where(size > 0, size, 1.0), 1.0)
        dti = dti * factor
        dtr = dtr * factor
        # step-halving line search on the residual max-norm
        scale = np.ones(dti.shape)
        base = rn[active]
        t1 = ti[active] + scale * dti
        t2 = tr[active] + scale * dtr
        trial = _resnorm(p, tgt, q[active], t1, t2)
        for _ in range(max_halvings):
            worse = ~(trial < base)
            if not worse.any():
                break
            scale[worse] *= 0.5
            t1 = ti[active] + scale * dti
            t2 = tr[active] + scale * dtr
            new = _resnorm(p, tgt, q[active], t1, t2)
            trial = np.where(worse, new, trial)
        improved = trial < base
        keep_ti = np.where(improved, t1, ti[active])
        keep_tr = np.where(improved, t2, tr[active])
        keep_rn = np.where(improved, trial, base)
        dead = ~improved | ~np.isfinite(trial)
        ti[active] = keep_ti
        tr[active] = keep_tr
        rn[active] = keep_rn
        idx = np.flatnonzero(active)
        alive[idx[dead]] = False
    converged = alive & (rn <= tol)
    return ti, tr, rn, converged


def _make_point(p, tgt, q, ti, tr, warning=None):
    ps = stationary_momentum(p, ti, tr)
    s = action_value(p, tgt, q, ti, tr)
    h, det = hessian_at(p, tgt, ti, tr)
    res = float(np.max(np.abs(saddle_residual(p, tgt, q, ti, tr))))
    return SaddlePoint(ti=complex(ti), tr=complex(tr), ps=ps, action=complex(s),
                       hessdet=complex(det), q=float(q), residual=res, warning=warning)


def converge_seeds(p: FieldParams, tgt: TargetParams, q, seed_ti, seed_tr,
                   tol=RESIDUAL_TOL, max_iter=100):
    """One damped-Newton run over a batch of seeds, judged seed by seed.

    ``q`` is a scalar or one order per seed.  Returns (q, ti, tr, errors):
    the per-seed orders and end points, and for each seed None when the
    solution is accepted or the exception :func:`newton_solve` raises for it.
    A seed is accepted when tr != ti, the iteration converged, Im(ti) >= 0
    and the converged |tr - ti| >= 1e-14.
    """
    seed_ti = np.atleast_1d(np.asarray(seed_ti, dtype=complex))
    seed_tr = np.atleast_1d(np.asarray(seed_tr, dtype=complex))
    q = np.broadcast_to(np.asarray(q, dtype=float), seed_ti.shape)
    ti, tr, rn, conv = _newton_batch(p, tgt, q, seed_ti, seed_tr, tol=tol,
                                     max_iter=max_iter)
    errors = []
    for k in range(ti.size):
        if abs(seed_tr[k] - seed_ti[k]) < 1e-12:
            err = CoalescenceError("seed has tr == ti")
        elif not conv[k]:
            err = NoConvergenceError(
                f"no convergence from seed ({seed_ti[k]}, {seed_tr[k]}) at "
                f"q={q[k]}: residual {rn[k]:.3e}")
        elif ti[k].imag < 0:
            err = NoConvergenceError(
                f"seed ({seed_ti[k]}, {seed_tr[k]}) converged to an Im(ti) < 0 "
                "conjugate solution")
        elif abs(tr[k] - ti[k]) < 1e-14:
            err = CoalescenceError(
                "tr and ti coincide; stationary momentum undefined")
        else:
            err = None
        errors.append(err)
    return q, ti, tr, errors


def solve_seeds(p: FieldParams, tgt: TargetParams, q, seed_ti, seed_tr,
                tol=RESIDUAL_TOL, max_iter=100):
    """Batched :func:`newton_solve`: per seed a SaddlePoint or the exception.

    The points are built one at a time on numpy scalars, so each is
    bit-identical to the one a single-seed solve returns.
    """
    q, ti, tr, out = converge_seeds(p, tgt, q, seed_ti, seed_tr, tol=tol,
                                    max_iter=max_iter)
    ok = [k for k, err in enumerate(out) if err is None]
    if ok:
        _, j = _residual_jacobian(p, tgt, q[ok], ti[ok], tr[ok])
        conds = np.linalg.cond(np.moveaxis(j, -1, 0))
        for k, cond in zip(ok, conds):
            warning = None
            if cond > COALESCENCE_COND:
                warning = f"near-coalescence: Jacobian condition number {cond:.3e}"
            out[k] = _make_point(p, tgt, q[k], ti[k], tr[k], warning=warning)
    return out


def newton_solve(p: FieldParams, tgt: TargetParams, q, seed_ti, seed_tr,
                 tol=RESIDUAL_TOL, max_iter=100):
    """Solve the saddle system from one seed; returns a converged SaddlePoint.

    Solutions with Im(ti) < 0 are the complex-conjugate (growing) partners
    and are rejected.  A near-coalescent Jacobian attaches a warning rather
    than failing.
    """
    (out,) = solve_seeds(p, tgt, q, [seed_ti], [seed_tr], tol=tol,
                         max_iter=max_iter)
    if isinstance(out, Exception):
        raise out
    return out


def hessian_at(p: FieldParams, tgt: TargetParams, ti, tr):
    """Total second derivatives of S wrt (ti, tr), including dp_s/dt terms."""
    tau = tr - ti
    ps = stationary_momentum(p, ti, tr)
    vr = ps + apot(p, tr)
    vi = ps + apot(p, ti)
    er = efield(p, tr)
    ei = efield(p, ti)
    a = (vi * vi).sum(axis=0) / tau - (vi * ei).sum(axis=0)   # d2S/dti2
    b = -(vi * vr).sum(axis=0) / tau                          # d2S/dti dtr
    c = (vr * vr).sum(axis=0) / tau + (vr * er).sum(axis=0)   # d2S/dtr2
    h = np.array([[a, b], [b, c]])
    return h, a * c - b * b


def hessian(p: FieldParams, tgt: TargetParams, q, sp: SaddlePoint):
    """Hessian matrix and determinant at a converged saddle."""
    return hessian_at(p, tgt, sp.ti, sp.tr)


def seed_grid(p: FieldParams, tgt: TargetParams, n_ti=48, n_tau=60, tau_max=None):
    """Dense (ti, tr) guesses over one period, lifted off the real axis.

    Im(ti) is initialised with the tunnelling-time estimate
    sqrt(2 Ip)/|E(Re ti)|, with the field magnitude floored to avoid blowup
    at its zero crossings.
    """
    t_period = p.period
    if tau_max is None:
        tau_max = 1.05 * t_period
    re_ti = np.linspace(0.0, t_period, n_ti, endpoint=False)
    taus = np.linspace(0.05 * t_period, tau_max, n_tau)
    e_abs = np.linalg.norm(efield(p, re_ti).real, axis=0)
    e_floor = 0.2 * max(p.E1, p.E2)
    im_ti = np.sqrt(2.0 * tgt.Ip) / np.maximum(e_abs, e_floor)
    ti = (re_ti + 1j * im_ti)[:, None] + np.zeros_like(taus)[None, :]
    tr = (re_ti[:, None] + taus[None, :]).astype(complex)
    half = (re_ti[:, None] // (t_period / 2.0)).astype(int) + np.zeros(
        taus.shape, dtype=int)[None, :]
    return SeedGrid(ti=ti.ravel(), tr=tr.ravel(), half_cycle=half.ravel())


def below_threshold(p: FieldParams, tgt: TargetParams, q):
    """True when the photon energy q*w does not exceed Ip (no real channel)."""
    return q * p.omega <= tgt.Ip


def solve_cycle(p: FieldParams, tgt: TargetParams, q, n_ti=48, n_tau=60,
                tau_max=None, tol=RESIDUAL_TOL):
    """All distinct saddles with Re(ti) in one fundamental period.

    Below the Ip threshold the result is empty (see :func:`below_threshold`
    for the flag).  Excursions are capped at ``tau_max`` (default 1.05 T,
    the single-return scope) so multi-cycle returns are excluded; solutions
    with Im(ti) < 0 or Im(S) < 0 are the exponentially growing conjugate
    partners and are discarded.  Survivors are deduplicated after folding by
    the field period and sorted by (Re ti, Re tr).
    """
    if below_threshold(p, tgt, q):
        return []
    t_period = p.period
    if tau_max is None:
        tau_max = 1.05 * t_period
    seeds = seed_grid(p, tgt, n_ti=n_ti, n_tau=n_tau, tau_max=tau_max)
    ti, tr, rn, conv = _newton_batch(p, tgt, q, seeds.ti, seeds.tr, tol=tol)
    good = conv & (ti.imag > 0) & (tr.real > ti.real) & (tr.real - ti.real <= tau_max)
    ti, tr = ti[good], tr[good]
    im_s = action_value(p, tgt, q, ti, tr).imag if ti.size else np.empty(0)
    keep = im_s >= 0.0
    ti, tr = ti[keep], tr[keep]
    # fold Re(ti) into [0, T)
    shift = np.floor(ti.real / t_period) * t_period
    ti = ti - shift
    tr = tr - shift
    return [_make_point(p, tgt, q, ti[k], tr[k]) for k in _dedup(ti, tr, t_period)]


def _dedup(ti, tr, period):
    """Indices of the distinct (ti, tr) pairs, in acceptance order.

    Greedy in (Re ti, Re tr) order: the first surviving pair is accepted and
    every pair within DEDUP_TOL of it, also after shifting both times by
    +-period, is dropped; this repeats once per distinct pair.
    """
    order = np.lexsort((tr.real, ti.real))
    ti, tr = ti[order], tr[order]
    shifts = np.array([-period, 0.0, period])[:, None]
    alive = np.ones(order.size, dtype=bool)
    keep = []
    while alive.any():
        k = int(np.argmax(alive))
        keep.append(order[k])
        dist = np.abs(ti - ti[k] - shifts) + np.abs(tr - tr[k] - shifts)
        alive &= ~(dist < DEDUP_TOL).any(axis=0)
    return keep


def _apply_param(p, q, name, value):
    if name == "q":
        return p, value
    if name == "phi":
        return p.with_phi(value), q
    if name == "R":
        return p.with_ratio(value), q
    raise ValueError(f"unknown continuation parameter {name!r}")


def _start_value(p, q, parameter):
    return {"q": q, "phi": p.phi, "R": p.R}[parameter]


def continue_branches(p: FieldParams, tgt: TargetParams, q, saddles, parameter,
                      to_value, max_halvings=10, tol=RESIDUAL_TOL):
    """Continue each saddle in q, phi, or R; per branch the result or the loss.

    Returns a list parallel to ``saddles`` holding the continued SaddlePoint
    or the :class:`BranchLostError` of a branch that could not be recovered.
    The first full step of all branches is one batched Newton run; a branch
    that fails it (diverges, or jumps by an unphysically large amount) goes
    on alone from its start, halving its step at each failure.
    """
    start = _start_value(p, q, parameter)
    if to_value == start:
        return list(saddles)
    t_period = p.period
    step = to_value - start
    p2, q2 = _apply_param(p, q, parameter, _clamp(start + step, step, to_value))
    first = solve_seeds(p2, tgt, q2, [sp.ti for sp in saddles],
                        [sp.tr for sp in saddles], tol=tol)
    out = []
    for idx, (sp, cand) in enumerate(zip(saddles, first)):
        cur, cur_val, step, halvings = sp, start, to_value - start, 0
        while cur_val != to_value:
            nxt = _clamp(cur_val + step, step, to_value)
            if cand is None:    # only the first full step is solved already
                p2, q2 = _apply_param(p, q, parameter, nxt)
                (cand,) = solve_seeds(p2, tgt, q2, [cur.ti], [cur.tr], tol=tol)
            if isinstance(cand, SaddlePoint) and abs(cand.ti - cur.ti) > 0.25 * t_period:
                cand = NoConvergenceError("branch jump during continuation")
            if isinstance(cand, SaddlePoint):
                cur, cur_val = cand, nxt
            else:
                halvings += 1
                if halvings > max_halvings:
                    cur = BranchLostError(
                        f"branch {idx} lost continuing {parameter} -> {to_value} "
                        f"(stalled at {cur_val})", cur, cur_val)
                    break
                step *= 0.5
            cand = None
        out.append(cur)
    return out


def _clamp(nxt, step, to_value):
    """``nxt``, or ``to_value`` when the step would overshoot it."""
    if (step > 0 and nxt > to_value) or (step < 0 and nxt < to_value):
        return to_value
    return nxt


def continue_in(p: FieldParams, tgt: TargetParams, q, saddles, parameter, to_value,
                max_halvings=10, tol=RESIDUAL_TOL):
    """Homotopy continuation of a converged saddle list in q, phi, or R.

    Branch identity is positional: the output list matches the input order.
    The step is halved on divergence (or on an unphysically large jump); a
    branch that cannot be recovered after ``max_halvings`` raises
    :class:`BranchLostError` with the last good point.  Branches that end
    within the dedup tolerance of each other are flagged as collided.
    """
    if to_value == _start_value(p, q, parameter):
        return list(saddles)
    out = continue_branches(p, tgt, q, saddles, parameter, to_value,
                            max_halvings=max_halvings, tol=tol)
    for res in out:
        if isinstance(res, BranchLostError):
            raise res
    # flag coalescences among the continued branches
    flagged = list(out)
    for i in range(len(out)):
        for k in range(i + 1, len(out)):
            if (abs(out[i].ti - out[k].ti) + abs(out[i].tr - out[k].tr)) < DEDUP_TOL:
                msg = f"branch collision between continued branches {i} and {k}"
                flagged[i] = replace(flagged[i], warning=msg)
                flagged[k] = replace(flagged[k], warning=msg)
    return flagged
