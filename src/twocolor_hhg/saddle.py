"""Complex saddle-point solver for the ionisation/recombination time system.

The stationary points (ti, tr) of the semiclassical action satisfy

    (1/2) (p_s + A(tr))^2 + Ip - q w = 0      (recombination)
    (1/2) (p_s + A(ti))^2 + Ip       = 0      (ionisation)

with the stationary momentum p_s = -(1/(tr - ti)) * integral(A, ti..tr).
All dot products of 2-vectors are unconjugated (analytic continuation).

The solver is a damped Newton iteration with the analytic Jacobian; the
public entry points are scalar, but internally everything is vectorized so
that a dense seed grid over one half-cycle is cheap.  Shifting time by T/2
maps the field to (-x, y), so the saddles of the other half-cycle are the
exact partners of those of the first (:func:`with_partners`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .field import (TWO_PI, FieldParams, TargetParams, _apot, _apot_integral, _efield,
                    _phases, apot_integral, apot_sq_integral, efield)

RESIDUAL_TOL = 1e-12
DEDUP_TOL = 1e-8
TAU_MAX_PERIODS = 1.05     # excursion cap: the single-return scope
BATCH_SEEDS = 16384        # seeds per Newton run of solve_cycles (11 cases)
# solver settings, read at call time: rebinding one here changes it everywhere
NEWTON_MAX_ITER = 100      # Newton iterations per seed
NEWTON_MAX_HALVINGS = 8    # line-search halvings per Newton step
SEED_TI = 48               # birth times per period; the first 24 lie in [0, T/2)
SEED_TAU = 60              # excursions per birth time
CONTINUATION_HALVINGS = 10  # step halvings before a continued branch is lost


class CoalescenceError(ValueError):
    """Ionisation and recombination times coincide (or their saddles merge)."""


class NoConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""


class BranchLostError(RuntimeError):
    """Continuation lost a branch; the message names where it stalled."""


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
    # the kernel's values at the point, so the dipole need not recompute them
    hess: np.ndarray        # complex (2, 2) Hessian of S wrt (ti, tr)
    k_rec: np.ndarray       # complex (2,) return momentum p_s + A(tr)

    @property
    def excursion(self):
        """Real travel time Re(tr - ti)."""
        return (self.tr - self.ti).real


@dataclass(frozen=True)
class SeedGrid:
    """Initial guesses (ti, tr) with Re(ti) in the first half-cycle."""

    ti: np.ndarray
    tr: np.ndarray


# The saddle-equation kernel.  Its helpers take arrays or numpy scalars and do
# not check tr != ti; the public entry points do (:func:`_apart`).

def _momentum(p, ti, tr):
    """tau = tr - ti and the stationary momentum p_s = -(1/tau) int A."""
    tau = tr - ti
    return tau, -apot_integral(p, ti, tr) / tau


def _kinematics(p, ti, tr):
    """(tau, p_s, vr, vi, E(tr), E(ti)) with vr = p_s + A(tr), vi = p_s + A(ti).

    One sin and one cos per field phase and time feed all of them; the
    terms are :mod:`.field`'s, in the same arithmetic order as its public
    functions.  On numpy scalars (a point build) the components are stacked
    as in :func:`.field.apot`, so each term keeps the public function's bits;
    :func:`_evaluate` builds the same terms row by row for a batch.
    """
    (xi, yi), (xr, yr) = _phases(p, ti), _phases(p, tr)
    si, s2i, sr, s2r = np.sin(xi), np.sin(yi), np.sin(xr), np.sin(yr)
    tau = tr - ti
    ps = -np.stack(_apot_integral(p, si, s2i, sr, s2r)) / tau
    return (tau, ps, ps + np.stack(_apot(p, np.cos(xr), np.cos(yr))),
            ps + np.stack(_apot(p, np.cos(xi), np.cos(yi))),
            np.stack(_efield(p, sr, s2r)), np.stack(_efield(p, si, s2i)))


def _equations(p, tgt, q, vr, vi):
    """The saddle equations (F_rec, F_ion) from the two velocities."""
    f_rec = 0.5 * (vr * vr).sum(axis=0) + tgt.Ip - q * p.omega
    f_ion = 0.5 * (vi * vi).sum(axis=0) + tgt.Ip
    return f_rec, f_ion


def _curvatures(tau, vr, vi, er, ei):
    """a = d2S/dti2 and c = d2S/dtr2, including dp_s/dt terms."""
    return ((vi * vi).sum(axis=0) / tau - (vi * ei).sum(axis=0),
            (vr * vr).sum(axis=0) / tau + (vr * er).sum(axis=0))


def _mixed_curvature(tau, vr, vi):
    """b = d2S/dti dtr."""
    # vi * vr, not vr * vi: complex products are not bitwise commutative
    return -(vi * vr).sum(axis=0) / tau


def _action(p, tgt, q, ti, tr, tau, ps):
    """S(ti, tr) in closed form, given tau and p_s there."""
    return (-tgt.Ip * tau + 0.5 * (ps * ps).sum(axis=0) * tau
            - 0.5 * apot_sq_integral(p, ti, tr) + q * p.omega * tr)


def _apart(ti, tr):
    """(ti, tr) as arrays; CoalescenceError where the two times coincide."""
    ti, tr = np.asarray(ti), np.asarray(tr)
    if np.any(np.abs(tr - ti) < 1e-14):
        raise CoalescenceError("tr and ti coincide; stationary momentum undefined")
    return ti, tr


def stationary_momentum(p: FieldParams, ti, tr):
    """p_s = -(1/(tr-ti)) * integral of A over [ti, tr]."""
    return _momentum(p, *_apart(ti, tr))[1]


def action_value(p: FieldParams, tgt: TargetParams, q, ti, tr):
    """Semiclassical action S(ti, tr) in closed form (momentum eliminated)."""
    ti, tr = _apart(ti, tr)
    return _action(p, tgt, q, ti, tr, *_momentum(p, ti, tr))


def saddle_residual(p: FieldParams, tgt: TargetParams, q, ti, tr):
    """The two saddle-equation values (recombination, ionisation)."""
    _, _, vr, vi, _, _ = _kinematics(p, *_apart(ti, tr))
    return np.stack(_equations(p, tgt, q, vr, vi))


def hessian(p: FieldParams, tgt: TargetParams, q, sp: SaddlePoint):
    """Hessian of S wrt (ti, tr) at a saddle, and its determinant."""
    tau, _, vr, vi, er, ei = _kinematics(p, *_apart(sp.ti, sp.tr))
    a, c = _curvatures(tau, vr, vi, er, ei)
    b = _mixed_curvature(tau, vr, vi)
    return np.array([[a, b], [b, c]]), a * c - b * b


def _evaluate(p, tgt, q, phi, ti, tr):
    """The Newton kernel at a batch of points: (max(|F_rec|, |F_ion|), state).

    ``q`` and the field phase ``phi`` are scalars or one per point; the rest
    of the field is ``p``'s.  The norm is inf where tr == ti, |Im t| > 1e3
    or it is not finite.  The state holds the rows (tau, F_rec, F_ion, vr,
    vi, E(tr), E(ti)): all that :func:`_jacobian` needs, so an accepted
    point costs no second trig evaluation.  They are the terms of
    :func:`_kinematics` and :func:`_equations`, elementwise in the same
    arithmetic order, from one sin and one cos over the (phase x time) array
    and written straight into their rows.
    """
    with np.errstate(all="ignore"):
        bad = (np.abs(tr - ti) < 1e-12) | (np.abs(ti.imag) > 1e3) | (np.abs(tr.imag) > 1e3)
        t = np.where(bad, [[0.0], [1.0]], (ti, tr))    # rows ti, tr of a 1-d batch
        x = np.empty((2,) + t.shape, dtype=complex)
        x[0], x[1] = _phases(p, t, phi)
        (si, sr), (s2i, s2r) = np.sin(x)
        (ci, cr), (c2i, c2r) = np.cos(x)
        state = np.empty((11,) + ti.shape, dtype=complex)
        tau, f_rec, f_ion = state[:3]
        vr, vi = state[3:5], state[5:7]
        np.subtract(t[1], t[0], out=tau)
        area = _apot_integral(p, si, s2i, sr, s2r)
        a_r, a_i = _apot(p, cr, c2r), _apot(p, ci, c2i)
        for k in range(2):
            ps = -area[k] / tau
            np.add(ps, a_r[k], out=vr[k])
            np.add(ps, a_i[k], out=vi[k])
        state[7], state[8] = _efield(p, sr, s2r)
        state[9], state[10] = _efield(p, si, s2i)
        f_rec[...], f_ion[...] = _equations(p, tgt, q, vr, vi)
        rn = np.maximum(np.abs(f_rec), np.abs(f_ion))
        return np.where(bad | ~np.isfinite(rn), np.inf, rn), state


def _jacobian(state):
    """(F_rec, F_ion) and the Jacobian ((J00, J01), (J10, J11)) wrt (ti, tr).

    ``state`` is (columns of) the state :func:`_evaluate` returns.
    dF_ion/dti = a and dF_rec/dtr = -c (see :func:`_curvatures`); the
    off-diagonal entries are +-(vr . vi)/tau.
    """
    tau, f_rec, f_ion = state[:3]
    vr, vi, er, ei = state[3:5], state[5:7], state[7:9], state[9:11]
    with np.errstate(all="ignore"):
        a, c = _curvatures(tau, vr, vi, er, ei)
        d = (vr * vi).sum(axis=0) / tau
    return (f_rec, f_ion), ((d, -c), (a, -d))


def _line_search(p, tgt, q, phi, ti, tr, dti, dtr, base, first, count):
    """Try the steps t + 2^-k d, k = first, ..., first + count - 1, of every
    seed in one kernel call.  Returns per seed (k, norm, state) of its first
    trial with a norm below ``base``, else of its last."""
    start = np.cumsum(count) - count
    of = np.repeat(np.arange(count.size), count)
    at = np.arange(of.size)
    k = at - (start - first)[of]
    scale = np.ldexp(1.0, -k)
    norm, state = _evaluate(p, tgt, q[of], phi[of], ti[of] + scale * dti[of],
                            tr[of] + scale * dtr[of])
    pick = np.minimum.reduceat(np.where(norm < base[of], at, (start + count - 1)[of]),
                               start)
    return k[pick], norm[pick], state[:, pick]


def _newton_batch(p, tgt, q, phi, ti, tr):
    """Damped Newton on a batch of seeds. Returns (ti, tr, resnorm, converged).

    ``q`` and ``phi`` are the order and field phase, scalars or one per seed.

    Each seed takes at most NEWTON_MAX_ITER steps.  A step d from t is cut to
    t + 2^-k d with the least k <= NEWTON_MAX_HALVINGS that lowers the
    residual max-norm; a seed with no such k stops.  Each seed's trials 1,
    1/2, ..., 2^-depth, where depth is the k of its last accepted step, go to
    the kernel in one call; a seed still no better after them tries the next
    1, 2, 4, ... halvings in further calls.  Each seed's iterates are those of
    a solve of that seed alone with plain step halving: every trial point is
    t + 2^-k d elementwise, and the first better trial is taken.
    """
    ti = np.array(ti, dtype=complex)
    tr = np.array(tr, dtype=complex)
    q = np.broadcast_to(np.asarray(q, dtype=float), ti.shape)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), ti.shape)
    rn, state = _evaluate(p, tgt, q, phi, ti, tr)
    alive = np.isfinite(rn)
    depth = np.zeros(ti.shape, dtype=int)
    for _ in range(NEWTON_MAX_ITER):
        idx = np.flatnonzero(alive & (rn > RESIDUAL_TOL))
        if not idx.size:
            break
        (f_rec, f_ion), ((j00, j01), (j10, j11)) = _jacobian(state[:, idx])
        det = j00 * j11 - j01 * j10
        singular = np.abs(det) < 1e-300
        det = np.where(singular, 1.0, det)
        dti = -(j11 * f_rec - j01 * f_ion) / det
        dtr = -(-j10 * f_rec + j00 * f_ion) / det
        dti[singular] = np.nan
        dtr[singular] = np.nan
        # trust region: cap the step at half a period to keep iterates sane
        cap = 0.5 * p.period
        size = np.maximum(np.abs(dti), np.abs(dtr))
        shrink = size > cap
        factor = np.where(shrink, cap / np.where(size > 0, size, 1.0), 1.0)
        dti = dti * factor
        dtr = dtr * factor
        # step-halving line search on the residual max-norm: first the
        # predicted depth, then twice as many further halvings per round
        ti0, tr0, qa, pa, base = ti[idx], tr[idx], q[idx], phi[idx], rn[idx]
        halvings, trial, trial_state = _line_search(
            p, tgt, qa, pa, ti0, tr0, dti, dtr, base, 0, depth[idx] + 1)
        count = 1
        while True:
            worse = np.flatnonzero(~(trial < base) & (halvings < NEWTON_MAX_HALVINGS))
            if not worse.size:
                break
            halvings[worse], trial[worse], trial_state[:, worse] = _line_search(
                p, tgt, qa[worse], pa[worse], ti0[worse], tr0[worse], dti[worse],
                dtr[worse], base[worse], halvings[worse] + 1,
                np.minimum(count, NEWTON_MAX_HALVINGS - halvings[worse]))
            count *= 2
        improved = trial < base
        moved = idx[improved]
        scale = np.ldexp(1.0, -halvings[improved])
        ti[moved] = ti0[improved] + scale * dti[improved]
        tr[moved] = tr0[improved] + scale * dtr[improved]
        rn[moved] = trial[improved]
        state[:, moved] = trial_state[:, improved]
        depth[moved] = halvings[improved]
        # a trial that is not better (no longer finite, or not improved) ends the seed
        alive[idx[~improved]] = False
    converged = alive & (rn <= RESIDUAL_TOL)
    return ti, tr, rn, converged


def _make_point(p, tgt, q, ti, tr):
    """The SaddlePoint at a converged (ti, tr), from one kernel evaluation."""
    tau, ps, vr, vi, er, ei = _kinematics(p, ti, tr)
    f_rec, f_ion = _equations(p, tgt, q, vr, vi)
    a, c = _curvatures(tau, vr, vi, er, ei)
    b = _mixed_curvature(tau, vr, vi)
    # the residual is the max over a 2-array: scalar abs can differ in the last bit
    return SaddlePoint(ti=complex(ti), tr=complex(tr), ps=ps,
                       action=complex(_action(p, tgt, q, ti, tr, tau, ps)),
                       hessdet=complex(a * c - b * b), q=float(q),
                       residual=float(np.abs((f_rec, f_ion)).max()),
                       hess=np.array([[a, b], [b, c]]), k_rec=vr)


def solve_seeds(p: FieldParams, tgt: TargetParams, q, phi, seed_ti, seed_tr):
    """Batched :func:`newton_solve`: per seed a SaddlePoint or the exception.

    ``q`` and the field phase ``phi`` are scalars or one per seed; the rest
    of each seed's field is ``p``'s.  All seeds go to one damped-Newton run
    and are judged seed by seed: a seed is accepted when tr != ti, the
    iteration converged, Im(ti) >= 0 and the converged |tr - ti| >= 1e-14.
    The points are built one at a time on numpy scalars, each on its seed's
    field, so each is bit-identical to the one a single-seed solve returns.
    """
    seed_ti = np.atleast_1d(np.asarray(seed_ti, dtype=complex))
    seed_tr = np.atleast_1d(np.asarray(seed_tr, dtype=complex))
    q = np.broadcast_to(np.asarray(q, dtype=float), seed_ti.shape)
    # reduced as FieldParams reduces it, so the run and the point share a phase
    phi = np.broadcast_to(np.asarray(phi, dtype=float) % TWO_PI, seed_ti.shape)
    ti, tr, rn, conv = _newton_batch(p, tgt, q, phi, seed_ti, seed_tr)
    out = []
    for k in range(ti.size):
        if abs(seed_tr[k] - seed_ti[k]) < 1e-12:
            out.append(CoalescenceError("seed has tr == ti"))
        elif not conv[k]:
            out.append(NoConvergenceError(
                f"no convergence from seed ({seed_ti[k]}, {seed_tr[k]}) at "
                f"q={q[k]}: residual {rn[k]:.3e}"))
        elif ti[k].imag < 0:
            out.append(NoConvergenceError(
                f"seed ({seed_ti[k]}, {seed_tr[k]}) converged to an Im(ti) < 0 "
                "conjugate solution"))
        elif abs(tr[k] - ti[k]) < 1e-14:
            out.append(CoalescenceError(
                "tr and ti coincide; stationary momentum undefined"))
        else:
            out.append(_make_point(p.with_phi(phi[k]), tgt, q[k], ti[k], tr[k]))
    return out


def newton_solve(p: FieldParams, tgt: TargetParams, q, seed_ti, seed_tr):
    """Solve the saddle system from one seed; returns a converged SaddlePoint.

    Solutions with Im(ti) < 0 are the complex-conjugate (growing) partners
    and are rejected.
    """
    (out,) = solve_seeds(p, tgt, q, p.phi, [seed_ti], [seed_tr])
    if isinstance(out, Exception):
        raise out
    return out


def seed_grid(p: FieldParams, tgt: TargetParams):
    """Dense (ti, tr) guesses over the first half-cycle, lifted off the real axis.

    The birth times are the first-half points of a SEED_TI-point grid over
    the period; SEED_TAU excursions per birth time run up to TAU_MAX_PERIODS
    periods.  Im(ti) is initialised with the tunnelling-time estimate
    sqrt(2 Ip)/|E(Re ti)|, with the field magnitude floored to avoid blowup
    at its zero crossings.
    """
    t_period = p.period
    re_ti = np.linspace(0.0, t_period, SEED_TI, endpoint=False)
    re_ti = re_ti[re_ti < 0.5 * t_period]
    taus = np.linspace(0.05 * t_period, TAU_MAX_PERIODS * t_period, SEED_TAU)
    e_abs = np.linalg.norm(efield(p, re_ti).real, axis=0)
    e_floor = 0.2 * max(p.E1, p.E2)
    im_ti = np.sqrt(2.0 * tgt.Ip) / np.maximum(e_abs, e_floor)
    ti = (re_ti + 1j * im_ti)[:, None] + np.zeros_like(taus)[None, :]
    tr = (re_ti[:, None] + taus[None, :]).astype(complex)
    return SeedGrid(ti=ti.ravel(), tr=tr.ravel())


def below_threshold(p: FieldParams, tgt: TargetParams, q):
    """True when the photon energy q*w does not exceed Ip (no real channel)."""
    return q * p.omega <= tgt.Ip


def with_partners(p: FieldParams, representatives):
    """The representatives followed by their half-cycle partners, in order.

    Shifting time by T/2 maps E and A to (-x, y), so a saddle's image
    (ti + T/2, tr + T/2) is a saddle with p_s and the return momentum
    mirrored in x, the action raised by q pi (the q w tr term) and the same
    Hessian.
    """
    half = 0.5 * p.period
    mirror = np.array([-1.0, 1.0])
    return list(representatives) + [
        replace(sp, ti=sp.ti + half, tr=sp.tr + half, ps=sp.ps * mirror,
                action=sp.action + sp.q * np.pi, k_rec=sp.k_rec * mirror)
        for sp in representatives]


def solve_cycle(p: FieldParams, tgt: TargetParams, q):
    """All distinct saddles with Re(ti) in one fundamental period: the
    representatives, then their partners (:func:`with_partners`).

    The representatives are solved from :func:`seed_grid`, folded to Re(ti)
    in [0, T/2), deduplicated and sorted by (Re ti, Re tr).  Below the Ip
    threshold the result is empty (see :func:`below_threshold`).  Excursions
    are capped at TAU_MAX_PERIODS periods (no multi-cycle returns); solutions
    with Im(ti) < 0 or Im(S) < 0 are the exponentially growing conjugate
    partners and are discarded.
    """
    return solve_cycles(tgt, [(p, q)])[0]


def solve_cycles(tgt: TargetParams, cases):
    """:func:`solve_cycle` at each (field, order) pair of ``cases``, as a
    parallel list.

    The fields must share E1, E2 and omega; their phases may differ.  Each
    case is seeded from its own field's :func:`seed_grid`, the seeds of the
    cases above threshold are concatenated with their order and phase, and up
    to BATCH_SEEDS seeds go to one Newton run; each seed's iterates do not
    depend on the batch it is in.
    """
    cases = list(cases)
    out = [[] for _ in cases]
    todo = [k for k, (p, q) in enumerate(cases) if not below_threshold(p, tgt, q)]
    if not todo:
        return out
    p0 = cases[todo[0]][0]
    if any((p.E1, p.E2, p.omega) != (p0.E1, p0.E2, p0.omega) for p, _ in cases):
        raise ValueError("the fields of one solve must differ only in phi")
    half, tau_max = 0.5 * p0.period, TAU_MAX_PERIODS * p0.period
    grids = {}
    for k in todo:
        p = cases[k][0]
        if p not in grids:
            grids[p] = seed_grid(p, tgt)
    n = grids[p0].ti.size      # the same for every phase
    q_of = np.array([q for _, q in cases], dtype=float)
    phi_of = np.array([p.phi for p, _ in cases])
    step = max(1, BATCH_SEEDS // n)
    for group in (todo[i:i + step] for i in range(0, len(todo), step)):
        owner = np.repeat(group, n)
        seeds = [grids[cases[k][0]] for k in group]
        ti, tr, _, conv = _newton_batch(p0, tgt, q_of[owner], phi_of[owner],
                                        np.concatenate([g.ti for g in seeds]),
                                        np.concatenate([g.tr for g in seeds]))
        good = conv & (ti.imag > 0) & (tr.real > ti.real) & (tr.real - ti.real <= tau_max)
        for k in group:
            p, q = cases[k]
            sel = good & (owner == k)
            ti_k, tr_k = ti[sel], tr[sel]
            keep = action_value(p, tgt, q, ti_k, tr_k).imag >= 0.0
            ti_k, tr_k = ti_k[keep], tr_k[keep]
            # fold Re(ti) into [0, T/2): a shift by T/2 lands on the partner saddle
            shift = np.floor(ti_k.real / half) * half
            ti_k, tr_k = ti_k - shift, tr_k - shift
            out[k] = with_partners(p, [_make_point(p, tgt, q, ti_k[m], tr_k[m])
                                       for m in _dedup(ti_k, tr_k, half)])
    return out


def _dedup(ti, tr, period):
    """Indices of the distinct (ti, tr) pairs, in acceptance order.

    Greedy in (Re ti, Re tr) order: the first surviving pair is accepted and
    every pair within DEDUP_TOL of it, also after shifting both times by
    +-``period``, is dropped; this repeats once per distinct pair.
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


def continue_branches(p: FieldParams, tgt: TargetParams, q, saddles, parameter,
                      to_value):
    """Continue each saddle in q or phi; per branch the result or the loss.

    Returns a list parallel to ``saddles`` holding the continued SaddlePoint
    or the :class:`BranchLostError` of a branch that could not be recovered.
    The branches advance in lockstep: each round is one Newton run over every
    branch that has not reached ``to_value``, each from its own last point
    and parameter value.  A branch whose step fails (diverges, or jumps by an
    unphysically large amount) halves that step, and is lost after
    CONTINUATION_HALVINGS halvings.
    """
    if parameter not in ("q", "phi"):
        raise ValueError(f"unknown continuation parameter {parameter!r}")
    start = q if parameter == "q" else p.phi
    out = list(saddles)
    at = [start] * len(out)
    step = [to_value - start] * len(out)
    halvings = [0] * len(out)
    while True:
        todo = [k for k, cur in enumerate(out)
                if isinstance(cur, SaddlePoint) and at[k] != to_value]
        if not todo:
            return out
        nxt = [_clamp(at[k] + step[k], step[k], to_value) for k in todo]
        q_of, phi_of = (nxt, p.phi) if parameter == "q" else (q, nxt)
        cands = solve_seeds(p, tgt, q_of, phi_of, [out[k].ti for k in todo],
                            [out[k].tr for k in todo])
        for k, value, cand in zip(todo, nxt, cands):
            if (isinstance(cand, SaddlePoint)
                    and abs(cand.ti - out[k].ti) <= 0.25 * p.period):
                out[k], at[k] = cand, value
                continue
            halvings[k] += 1
            step[k] *= 0.5
            if halvings[k] > CONTINUATION_HALVINGS:
                out[k] = BranchLostError(
                    f"branch {k} lost continuing {parameter} -> {to_value} "
                    f"(stalled at {at[k]})")


def _clamp(nxt, step, to_value):
    """``nxt``, or ``to_value`` when the step would overshoot it."""
    if (step > 0 and nxt > to_value) or (step < 0 and nxt < to_value):
        return to_value
    return nxt
