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

import mmap
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .field import (TWO_PI, FieldParams, TargetParams, _apot, _apot_integral,
                    _apot_sq_antideriv, _efield, _sincos, apot_sq_integral, efield)

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


# The saddle-equation kernel.  :func:`_terms` builds the terms of every
# evaluation, from a Newton batch to one public call; the public entry points
# reach it through :func:`_terms_at`, which checks tr != ti.

def _terms(p, t, phi=None):
    """The kernel terms at stacked times t = (ti, tr) of shape (2, n).

    Returns (state, ps).  ``state`` is an (11, n) array with rows (tau, -, -,
    vr, vi, E(tr), E(ti)), tau = tr - ti, vr = p_s + A(tr), vi = p_s + A(ti);
    rows 1 and 2 are left for (F_rec, F_ion).  ``ps`` holds the two
    components of the stationary momentum p_s = -(1/tau) int A.  ``phi`` is
    the field phase, ``p``'s unless given (one per point in a Newton run).
    One :func:`.field._sincos` over the rows of ``t`` feeds every term, in
    the arithmetic order of the public field functions; real times give
    real terms.
    """
    (si, sr), (ci, cr), (s2i, s2r), (c2i, c2r) = _sincos(p, t, phi)
    state = np.empty((11,) + t.shape[1:], dtype=np.result_type(t, float))
    tau, vr, vi = state[0], state[3:5], state[5:7]
    np.subtract(t[1], t[0], out=tau)
    ps = [-area / tau for area in _apot_integral(p, si, s2i, sr, s2r)]
    a_r, a_i = _apot(p, cr, c2r), _apot(p, ci, c2i)
    for k in range(2):
        np.add(ps[k], a_r[k], out=vr[k])
        np.add(ps[k], a_i[k], out=vi[k])
    state[7], state[8] = _efield(p, sr, s2r)
    state[9], state[10] = _efield(p, si, s2i)
    return state, ps


def _terms_at(p, ti, tr):
    """(t, state, ps) of :func:`_terms` at (ti, tr) broadcast together, each
    shaped as they are; CoalescenceError where the two times coincide.

    Scalar times give numpy scalars for t and tau, so the arithmetic on them
    (:func:`_action`, :func:`_hessian`) is that of numpy scalars.
    """
    t = np.array(np.broadcast_arrays(ti, tr))
    if (np.abs(t[1] - t[0]) < 1e-14).any():
        raise CoalescenceError("tr and ti coincide; stationary momentum undefined")
    state, ps = _terms(p, t.reshape(2, -1))
    shape = t.shape[1:]
    return t, state.reshape((11,) + shape), np.array(ps).reshape((2,) + shape)


def _dot(a, b):
    """Unconjugated a . b of 2-vectors along axis 0; sliced rows keep even one
    point's products in numpy's array loop, not its scalar one (see README)."""
    return (a[0:1] * b[0:1] + a[1:2] * b[1:2])[0]


def _equations(p, tgt, q, vr, vi):
    """The saddle equations (F_rec, F_ion) from the two velocities."""
    f_rec = 0.5 * _dot(vr, vr) + tgt.Ip - q * p.omega
    f_ion = 0.5 * _dot(vi, vi) + tgt.Ip
    return f_rec, f_ion


def _curvatures(tau, vr, vi, er, ei):
    """a = d2S/dti2 and c = d2S/dtr2, including dp_s/dt terms."""
    return (_dot(vi, vi) / tau - _dot(vi, ei),
            _dot(vr, vr) / tau + _dot(vr, er))


def _hessian(state):
    """Hessian of S wrt (ti, tr) and its determinant, from kernel state columns.

    The mixed term is b = d2S/dti dtr = -(vi . vr)/tau; vi * vr, not
    vr * vi: complex products are not bitwise commutative.
    """
    tau, vr, vi = state[0], state[3:5], state[5:7]
    a, c = _curvatures(tau, vr, vi, state[7:9], state[9:11])
    b = -_dot(vi, vr) / tau
    return np.array([[a, b], [b, c]]), a * c - b * b


def _action(p, tgt, q, ti, tr, tau, ps):
    """S(ti, tr) in closed form, given tau and p_s there."""
    return _action_sum(p, tgt, q, tr, tau, _dot(ps, ps), apot_sq_integral(p, ti, tr))


def _action_sum(p, tgt, q, tr, tau, ps_sq, a_sq):
    """S from tau, p_s . p_s and the integral of A . A over [ti, tr]."""
    return -tgt.Ip * tau + 0.5 * ps_sq * tau - 0.5 * a_sq + q * p.omega * tr


def stationary_momentum(p: FieldParams, ti, tr):
    """p_s = -(1/(tr-ti)) * integral of A over [ti, tr]."""
    return _terms_at(p, ti, tr)[2]


def action_value(p: FieldParams, tgt: TargetParams, q, ti, tr):
    """Semiclassical action S(ti, tr) in closed form (momentum eliminated)."""
    t, state, ps = _terms_at(p, ti, tr)
    return _action(p, tgt, q, t[0], t[1], state[0], ps)


def saddle_residual(p: FieldParams, tgt: TargetParams, q, ti, tr):
    """The two saddle-equation values (recombination, ionisation)."""
    state = _terms_at(p, ti, tr)[1]
    return np.stack(_equations(p, tgt, q, state[3:5], state[5:7]))


def hessian(p: FieldParams, tgt: TargetParams, q, sp: SaddlePoint):
    """Hessian of S wrt (ti, tr) at a saddle, and its determinant."""
    return _hessian(_terms_at(p, sp.ti, sp.tr)[1])


def _evaluate(p, tgt, q, phi, ti, tr):
    """The Newton kernel at a batch of points: (max(|F_rec|, |F_ion|), state).

    ``q`` and the field phase ``phi`` are scalars or one per point; the rest
    of the field is ``p``'s.  The norm is inf where tr == ti, |Im t| > 1e3
    or it is not finite.  The state is that of :func:`_terms` with the
    equations written into rows 1 and 2: all that :func:`_jacobian` needs,
    so an accepted point costs no second trig evaluation.
    """
    with np.errstate(all="ignore"):
        bad = (np.abs(tr - ti) < 1e-12) | (np.abs(ti.imag) > 1e3) | (np.abs(tr.imag) > 1e3)
        t = np.where(bad, [[0.0], [1.0]], (ti, tr))    # rows ti, tr of a 1-d batch
        state, _ = _terms(p, t, phi)
        state[1], state[2] = _equations(p, tgt, q, state[3:5], state[5:7])
        rn = np.maximum(np.abs(state[1]), np.abs(state[2]))
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
        d = _dot(vr, vi) / tau
    return (f_rec, f_ion), ((d, -c), (a, -d))


def _line_search(p, tgt, q, phi, ti, tr, dti, dtr, base, first, count):
    """Try the steps t + 2^-k d, k = first, ..., first + count - 1, of every
    seed in one kernel call.  Returns per seed (k, norm, state column) of its
    first trial with a norm below ``base``, else of its last, then the state."""
    start = np.cumsum(count) - count
    of = np.repeat(np.arange(count.size), count)
    at = np.arange(of.size)
    k = at - (start - first)[of]
    scale = np.ldexp(1.0, -k)
    norm, state = _evaluate(p, tgt, q[of], phi[of], ti[of] + scale * dti[of],
                            tr[of] + scale * dtr[of])
    pick = np.minimum.reduceat(np.where(norm < base[of], at, (start + count - 1)[of]),
                               start)
    return k[pick], norm[pick], pick, state


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
    converged = rn <= RESIDUAL_TOL
    # the seeds still iterating, compacted: their positions in the batch and
    # their working values, written back once, when the seed stops
    at = np.flatnonzero(np.isfinite(rn) & ~converged)
    ti0, tr0, qa, pa, base = ti[at], tr[at], q[at], phi[at], rn[at]
    state, depth = state[:, at], np.zeros(at.size, dtype=int)
    for _ in range(NEWTON_MAX_ITER):
        if not at.size:
            break
        (f_rec, f_ion), ((j00, j01), (j10, j11)) = _jacobian(state)
        # an overflowing step is NaN or infinite, and its trials are not better
        with np.errstate(all="ignore"):
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
        halvings, trial, pick, trial_state = _line_search(
            p, tgt, qa, pa, ti0, tr0, dti, dtr, base, 0, depth + 1)
        later, count = [], 1
        while True:
            worse = np.flatnonzero(~(trial < base) & (halvings < NEWTON_MAX_HALVINGS))
            if not worse.size:
                break
            halvings[worse], trial[worse], *found = _line_search(
                p, tgt, qa[worse], pa[worse], ti0[worse], tr0[worse], dti[worse],
                dtr[worse], base[worse], halvings[worse] + 1,
                np.minimum(count, NEWTON_MAX_HALVINGS - halvings[worse]))
            later.append((worse, *found))
            count *= 2
        improved = trial < base
        scale = np.ldexp(1.0, -halvings[improved])
        ti0[improved] += scale * dti[improved]
        tr0[improved] += scale * dtr[improved]
        base[improved] = trial[improved]
        # no better trial (not finite, or not lower) ends a seed, as does convergence
        going = improved & (trial > RESIDUAL_TOL)
        stop = ~going
        done = at[stop]
        ti[done], tr[done], rn[done], converged[done] = (
            ti0[stop], tr0[stop], base[stop], improved[stop])
        at, ti0, tr0, qa, pa, base = (a[going] for a in (at, ti0, tr0, qa, pa, base))
        # each going seed's state: its pick in the last round that tried it
        state, depth = trial_state[:, pick[going]], halvings[going]
        rank = np.cumsum(going) - 1
        for worse, pick, trial_state in later:
            on = going[worse]
            state[:, rank[worse[on]]] = trial_state[:, pick[on]]
    ti[at], tr[at], rn[at] = ti0, tr0, base
    return ti, tr, rn, converged


def _forked_newton_batch(p, tgt, q, phi, ti, tr, cases):
    """:func:`_newton_batch` in k = min(usable CPUs, ``cases``) interleaved slices
    seeds[w::k]; forked children solve slices 1..k-1 into one shared mmap (a pipe
    would fill before they are reaped), copied out so that no view outlives it.
    No seed's iterates depend on its batch, so the bytes are one run's.  A slice
    whose fork or child fails runs here; with no fork or other threads, all do."""
    forks = hasattr(os, "sched_getaffinity") and threading.active_count() == 1
    k = min(len(os.sched_getaffinity(0)), cases) if forks and hasattr(os, "fork") else 1
    if k < 2:
        return _newton_batch(p, tgt, q, phi, ti, tr)
    n, children, failed = ti.size, {}, []
    cols = ((complex, 0), (complex, 16 * n), (float, 32 * n), (bool, 40 * n))

    def run(w):
        res = _newton_batch(p, tgt, q[w::k], phi[w::k], ti[w::k], tr[w::k])
        for (dtype, at), r in zip(cols, res):
            np.frombuffer(buf, dtype, n, at)[w::k] = r

    with mmap.mmap(-1, 41 * n) as buf:      # per seed (ti, tr, resnorm, converged)
        try:
            for w in range(1, k):
                try:
                    pid = os.fork()
                except OSError:
                    failed.append(w)
                    continue
                if not pid:     # the child never returns into the caller
                    try:
                        run(w)
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
                children[pid] = w
            run(0)
        finally:
            failed += [w for pid, w in children.items() if os.waitpid(pid, 0)[1]]
        for w in failed:
            run(w)
        return tuple(np.frombuffer(buf, dtype, n, at).copy() for dtype, at in cols)


def _points(p, tgt, q, phi, ti, tr):
    """The SaddlePoints at converged (ti, tr), one per point, each at its own
    order ``q`` and field phase ``phi``, from one kernel evaluation.  The array
    terms are taken for all points at once, each point's action sum on numpy
    scalars, so every point is bit-identical to one built alone."""
    t = np.array([ti, tr], dtype=complex)
    state, ps = _terms(p, t, phi)
    tau, vr, vi, ps = state[0], state[3:5], state[5:7], np.array(ps)
    residual = np.abs(_equations(p, tgt, q, vr, vi)).max(axis=0)
    a_sq = _apot_sq_antideriv(p, t[1], phi) - _apot_sq_antideriv(p, t[0], phi)
    ps_sq = _dot(ps, ps)
    # one contiguous row per point, laid out as a lone point's terms are
    hess = _hessian(state)[0].transpose(2, 0, 1).copy()
    ps, k_rec = ps.T.copy(), vr.T.copy()
    return [SaddlePoint(
        ti=complex(t[0, k]), tr=complex(t[1, k]), ps=ps[k],
        action=complex(_action_sum(p, tgt, q[k], t[1, k], tau[k], ps_sq[k], a_sq[k])),
        q=float(q[k]), residual=float(residual[k]), hess=h, k_rec=k_rec[k])
        for k, h in enumerate(hess)]


def solve_seeds(p: FieldParams, tgt: TargetParams, q, phi, seed_ti, seed_tr):
    """Batched :func:`newton_solve`: per seed a SaddlePoint or the exception.

    ``q`` and the field phase ``phi`` are scalars or one per seed; the rest
    of each seed's field is ``p``'s.  All seeds go to one damped-Newton run
    and are judged seed by seed: a seed is accepted when tr != ti, the
    iteration converged, Im(ti) >= 0 and the converged |tr - ti| >= 1e-14.
    The accepted points are built together (:func:`_points`), each on its
    seed's field, and each is bit-identical to the one a single-seed solve
    returns.
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
            out.append(None)
    acc = [k for k, res in enumerate(out) if res is None]
    for k, sp in zip(acc, _points(p, tgt, q[acc], phi[acc], ti[acc], tr[acc])):
        out[k] = sp
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
    representatives of :func:`solve_cycles`, then their partners
    (:func:`with_partners`)."""
    return with_partners(p, solve_cycles(tgt, [(p, q)])[0])


def solve_cycles(tgt: TargetParams, cases):
    """The representatives at each (field, order) pair of ``cases``, as a
    parallel list: the distinct saddles with Re(ti) in [0, T/2), solved
    from :func:`seed_grid`, folded, deduplicated and sorted by (Re ti, Re
    tr); their t + T/2 images (:func:`with_partners`) are the other
    half-cycle's.  Below the Ip threshold a case has none (see
    :func:`below_threshold`).  Excursions
    Re(tr - ti) lie in (DEDUP_TOL, TAU_MAX_PERIODS periods] (no purely
    imaginary excursions, no multi-cycle returns); solutions with Im(ti) < 0
    or Im(S) < 0 are the exponentially growing conjugate partners and are
    discarded.

    The fields must share E1, E2 and omega; their phases may differ.  Each
    case is seeded from its own field's :func:`seed_grid`, the seeds of the
    cases above threshold are concatenated with their order and phase, and up
    to BATCH_SEEDS seeds go to one Newton run, split across the usable CPUs
    (:func:`_forked_newton_batch`); no seed's iterates depend on its batch.
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
    grids = {p: seed_grid(p, tgt) for p in {cases[k][0] for k in todo}}
    n = grids[p0].ti.size      # the same for every phase
    q_of = np.array([q for _, q in cases], dtype=float)
    phi_of = np.array([p.phi for p, _ in cases])
    step = max(1, BATCH_SEEDS // n)
    for group in (todo[i:i + step] for i in range(0, len(todo), step)):
        owner = np.repeat(group, n)
        seeds = [grids[cases[k][0]] for k in group]
        ti, tr, _, conv = _forked_newton_batch(
            p0, tgt, q_of[owner], phi_of[owner], np.concatenate([g.ti for g in seeds]),
            np.concatenate([g.tr for g in seeds]), len(group))
        excursion = tr.real - ti.real
        # a purely imaginary excursion passes a plain Re tau > 0 by round-off
        good = conv & (ti.imag > 0) & (excursion > DEDUP_TOL) & (excursion <= tau_max)
        picked = []
        for k in group:
            sel = good & (owner == k)
            ti_k, tr_k = ti[sel], tr[sel]
            # fold Re(ti) into [0, T/2): a shift by T/2 lands on the partner saddle
            shift = np.floor(ti_k.real / half) * half
            ti_k, tr_k = ti_k - shift, tr_k - shift
            unique = _dedup(ti_k, tr_k, p0.period)
            picked.append((k, ti_k[unique], tr_k[unique]))
        # the representatives of every case of the run, built together
        case_of = np.concatenate([np.full(a.size, k) for k, a, _ in picked])
        points = iter(_points(p0, tgt, q_of[case_of], phi_of[case_of],
                              np.concatenate([a for _, a, _ in picked]),
                              np.concatenate([b for *_, b in picked])))
        for k, ti_k, _ in picked:
            # Im S < 0: a growing conjugate; each is a whole dedup cluster
            reps = [next(points) for _ in ti_k]
            out[k] = [sp for sp in reps if sp.action.imag >= 0.0]
    return out


def _fold_distance(d_ti, d_tr, period):
    """(|d_ti - s|, |d_ti - s| + |d_tr - s|), with s the multiple of T/2
    nearest Re(d_ti): how far two saddles whose times differ by d_ti and
    d_tr lie apart modulo T/2.  Scalars or arrays; each modulus is a hypot,
    as Python's complex abs, so both give the same bits."""
    half = 0.5 * period
    s = half * np.round(np.real(d_ti) / half)
    a, b = d_ti - s, d_tr - s
    near = np.hypot(a.real, a.imag)
    return near, near + np.hypot(b.real, b.imag)


def _dedup(ti, tr, period):
    """Indices of the distinct (ti, tr) pairs, in acceptance order.

    Greedy in (Re ti, Re tr) order: the first surviving pair is accepted and
    every pair within DEDUP_TOL of it modulo T/2 (:func:`_fold_distance`,
    ``period`` = T) is dropped; this repeats once per distinct pair.
    """
    order = np.lexsort((tr.real, ti.real))
    ti, tr = ti[order], tr[order]
    alive = np.ones(order.size, dtype=bool)
    keep = []
    while alive.any():
        k = int(np.argmax(alive))
        keep.append(order[k])
        alive &= ~(_fold_distance(ti - ti[k], tr - tr[k], period)[1] < DEDUP_TOL)
    return keep


def continue_branches(p: FieldParams, tgt: TargetParams, q, saddles, parameter,
                      to_value, start=None):
    """Continue each saddle in q or phi; per branch the result or the loss.

    Returns a list parallel to ``saddles`` holding the continued SaddlePoint
    or the :class:`BranchLostError` of a branch that could not be recovered.
    ``q``, ``to_value`` and ``start`` (the parameter's value at the saddles:
    ``q`` or ``p.phi`` when not given) are scalars or one per branch, so one
    call can carry branches of several orders and phase steps; the rest of
    the field is ``p``'s.  The branches advance in lockstep: each round is
    one Newton run over every branch that has not reached its target, each
    from its own last point, parameter value and step.  A branch whose step
    fails (diverges, or jumps by an unphysically large amount) halves that
    step, and is lost after CONTINUATION_HALVINGS halvings.  Each branch's
    result is that of a call for that branch alone.
    """
    if parameter not in ("q", "phi"):
        raise ValueError(f"unknown continuation parameter {parameter!r}")
    if start is None:
        start = q if parameter == "q" else p.phi
    out = list(saddles)
    q, at, target = (np.broadcast_to(np.asarray(v), len(out)).tolist()
                     for v in (q, start, to_value))
    step = [b - a for a, b in zip(at, target)]
    halvings = [0] * len(out)
    while True:
        todo = [k for k, cur in enumerate(out)
                if isinstance(cur, SaddlePoint) and at[k] != target[k]]
        if not todo:
            return out
        nxt = [_clamp(at[k] + step[k], step[k], target[k]) for k in todo]
        q_of, phi_of = (nxt, p.phi) if parameter == "q" else ([q[k] for k in todo], nxt)
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
                    f"lost continuing {parameter} -> {target[k]} "
                    f"(stalled at {at[k]})")


def _clamp(nxt, step, to_value):
    """``nxt``, or ``to_value`` when the step would overshoot it."""
    if (step > 0 and nxt > to_value) or (step < 0 and nxt < to_value):
        return to_value
    return nxt
