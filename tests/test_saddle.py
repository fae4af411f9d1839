"""Saddle-point solver: residuals, identities, continuation, Hessian."""

import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from twocolor_hhg import (BranchLostError, CoalescenceError, NoConvergenceError,
                          SaddlePoint, action_value, apot, apot_integral, convert_units,
                          efield, hessian, newton_solve,
                          saddle_residual, solve_cycle, stationary_momentum)
from twocolor_hhg import saddle
from twocolor_hhg.field import FieldParams
from twocolor_hhg.saddle import (DEDUP_TOL, RESIDUAL_TOL, _dedup, _evaluate,
                                 _fold_distance, _jacobian, _newton_batch,
                                 continue_branches, seed_grid, solve_seeds)

from conftest import (AR_IP, E1, OMEGA, assert_identical_fields, assert_no_child_left,
                      usable_cpus)


def classical_return(p, t0):
    """Simple-man return time after birth at rest at t0 (None if no return)."""
    a0 = apot(p, t0)[0].real

    def x(t):
        return (apot_integral(p, t0, t)[0].real - a0 * (t - t0)).real

    ts = np.linspace(t0 + 1e-3, t0 + p.period, 2000)
    xs = x(ts)      # one array call; brentq refines on the scalar x
    sign_change = np.nonzero(np.sign(xs[:-1]) != np.sign(xs[1:]))[0]
    if sign_change.size == 0:
        return None
    i = sign_change[0]
    return brentq(x, ts[i], ts[i + 1])


def classical_orbits(p, tgt, q):
    """Birth/return times of the classical short and long orbits at order q.

    Return kinetic energy is matched to q*omega - Ip.  The scan covers one
    falling quarter-cycle after the field crest of the x component.
    """
    t0s = np.linspace(0.26 * p.period, 0.49 * p.period, 400)
    births, returns, qeff = [], [], []
    for t0 in t0s:
        tr = classical_return(p, t0)
        if tr is None:
            continue
        v = (apot(p, tr)[0] - apot(p, t0)[0]).real
        births.append(t0)
        returns.append(tr)
        qeff.append((0.5 * v * v + tgt.Ip) / p.omega)
    births, returns, qeff = map(np.array, (births, returns, qeff))
    top = int(np.argmax(qeff))
    out = {}
    for fam, sl in (("long", slice(0, top)), ("short", slice(top, None))):
        f = qeff[sl] - q
        roots = np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]
        if roots.size:
            k = (sl.start or 0) + roots[0]
            out[fam] = (births[k], returns[k])
    return out, float(np.max(qeff))


class TestStationaryMomentum:
    def test_mono_full_period_average(self, mono):
        ps = stationary_momentum(mono, 5.0, 5.0 + mono.period)
        assert np.max(np.abs(ps)) < 1e-12

    def test_against_quadrature(self, params):
        ti, tr = 12.0 + 9.0j, 95.0 + 0.5j
        exact = stationary_momentum(params, ti, tr)
        for comp in range(2):
            def f(s, c=comp):
                return -apot(params, ti + s * (tr - ti))[c]
            re = quad(lambda s: f(s).real, 0, 1, epsabs=1e-13)[0]
            im = quad(lambda s: f(s).imag, 0, 1, epsabs=1e-13)[0]
            assert abs(exact[comp] - (re + 1j * im)) < 1e-10

    def test_coalescent_times_rejected(self, params):
        with pytest.raises(CoalescenceError):
            stationary_momentum(params, 3.0, 3.0)

    def test_short_excursion_limit(self, params):
        ps = stationary_momentum(params, 10.0, 10.0 + 1e-6)
        assert np.max(np.abs(ps + apot(params, 10.0))) < 1e-4


@pytest.fixture(scope="module")
def mono21(mono, target):
    return solve_cycle(mono, target, 21)


@pytest.fixture(scope="module")
def two20(params, target):
    return solve_cycle(params, target, 20)


class TestSolveCycle:
    def test_mono_four_saddles(self, mono21):
        # one short and one long orbit per half-cycle
        assert len(mono21) == 4

    def test_mono_two_excursion_families(self, mono, mono21):
        excs = sorted(sp.excursion / mono.period for sp in mono21)
        assert excs[0] == pytest.approx(excs[1], abs=1e-6)
        assert excs[2] == pytest.approx(excs[3], abs=1e-6)
        assert excs[2] - excs[0] > 0.2

    def test_residuals_converged(self, mono21, two20):
        for sp in mono21 + two20:
            assert sp.residual <= 1e-10

    def test_tunnelling_convention(self, mono21, two20):
        for sp in mono21 + two20:
            assert sp.ti.imag > 0
            assert sp.tr.real > sp.ti.real

    def test_energy_conservation(self, params, target, two20):
        for sp in two20:
            v = sp.ps + apot(params, sp.tr)
            lhs = 0.5 * (v[0] ** 2 + v[1] ** 2)
            assert abs(lhs - (20 * params.omega - target.Ip)) < 1e-10

    def test_complex_return_identity(self, params, two20):
        for sp in two20:
            val = apot_integral(params, sp.ti, sp.tr) + sp.ps * (sp.tr - sp.ti)
            assert np.max(np.abs(val)) < 1e-12 * max(1.0, abs(sp.tr))

    def test_two_colour_half_cycle_pairing(self, params, target, two20):
        # element i + n/2 is the image of element i under (ti, tr) ->
        # (ti + T/2, tr + T/2), ps -> diag(-1, 1) ps, S -> S + q pi, exactly;
        # and each image is a saddle of its own
        n = len(two20) // 2
        assert len(two20) == 2 * n
        for rep, img in zip(two20[:n], two20[n:]):
            assert_exact_partner(params, rep, img)
            res = saddle_residual(params, target, 20, img.ti, img.tr)
            assert np.max(np.abs(res)) < 1e-10
            ps = stationary_momentum(params, img.ti, img.tr)
            assert np.max(np.abs(ps - img.ps)) < 1e-12
            s = action_value(params, target, 20, img.ti, img.tr)
            assert abs(s - img.action) < 1e-10 * abs(s)

    @pytest.mark.parametrize("phi, ratio", [(0.0, 0.12), (0.7, 0.06), (2.1, 0.18)])
    def test_representatives_then_partners(self, target, phi, ratio):
        p = FieldParams.from_ratio(E1, OMEGA, ratio, phi)
        half = p.period / 2
        for q in (15, 24, 33):
            sads = solve_cycle(p, target, q)
            n = len(sads) // 2
            assert n > 0 and len(sads) == 2 * n
            for rep, img in zip(sads[:n], sads[n:]):
                assert 0.0 <= rep.ti.real < half
                assert_exact_partner(p, rep, img)

    def test_dense_seed_brute_force_agrees(self, params, target, two20,
                                           monkeypatch):
        # denser seeding reproduces every default solution; anything extra
        # it digs up sits below the tunnelling-depth floor (shallow Im(ti))
        # and is never part of the dipole sum
        monkeypatch.setattr(saddle, "SEED_TI", 80)
        monkeypatch.setattr(saddle, "SEED_TAU", 100)
        dense = solve_cycle(params, target, 20)
        for sp in two20:
            d = min(abs(sp.ti - b.ti) + abs(sp.tr - b.tr) for b in dense)
            assert d < 1e-8
        floor = min(sp.ti.imag for sp in two20)
        for sp in dense:
            d = min(abs(sp.ti - b.ti) + abs(sp.tr - b.tr) for b in two20)
            if d > 1e-8:
                assert sp.ti.imag < 0.5 * floor

    def test_no_purely_imaginary_excursions(self, target):
        # at R = 0.06 a solution with tr - ti purely imaginary (ti near
        # 27.58 + 6i) converges at most orders; its Re tau of 0 to 2e-12
        # must not pass as a positive excursion
        p = FieldParams.from_ratio(E1, OMEGA, 0.06, 0.0)
        qs = range(13, 26)
        for q, sads in zip(qs, saddle.solve_cycles(target, [(p, q) for q in qs])):
            assert sads and min(sp.excursion for sp in sads) > DEDUP_TOL, q

    def test_growing_conjugates_dropped_after_dedup(self, params, target,
                                                    monkeypatch):
        # the deduplicated representatives are built, then those with
        # Im S < 0 (exponentially growing conjugates) are dropped; at q = 20
        # two of the seven are, and the others are kept in order
        points, built = saddle._points, []

        def recording_points(*args):
            out = points(*args)
            built.extend(out)
            return out

        monkeypatch.setattr(saddle, "_points", recording_points)
        sads = solve_cycle(params, target, 20)
        assert sum(sp.action.imag < 0.0 for sp in built) == 2
        kept = [sp for sp in built if sp.action.imag >= 0.0]
        reps = sads[:len(sads) // 2]
        assert len(reps) == len(kept) and all(a is b for a, b in zip(reps, kept))

    def test_below_threshold_empty(self, params, target):
        assert solve_cycle(params, target, 5) == []

    def test_classical_oracle_real_parts(self, mono, target, mono21):
        # saddle Re(ti), Re(tr) track the classical simple-man orbits
        orbits, q_cut = classical_orbits(mono, target, 21)
        assert q_cut == pytest.approx(28.5, abs=0.2)
        first = [sp for sp in mono21 if sp.ti.real < mono.period / 2]
        short = min(first, key=lambda s: s.excursion)
        long_ = max(first, key=lambda s: s.excursion)
        deg = np.degrees(mono.omega)
        for sp, fam in ((short, "short"), (long_, "long")):
            b, r = orbits[fam]
            assert abs(sp.ti.real - b) * deg < 15.0
            assert abs(sp.tr.real - r) * deg < 15.0

    def test_cutoff_adjacent_phases(self, mono, target):
        # near the classical cutoff the merged orbit sits ~18 deg after the
        # field crest at birth; at q=28 the short orbit is inside [10, 30]
        sads = solve_cycle(mono, target, 28)
        first = [sp for sp in sads if sp.ti.real < mono.period / 2]
        short = min(first, key=lambda s: s.excursion)
        crest_phase = np.degrees(mono.omega * short.ti.real) - 90.0
        assert 10.0 < crest_phase < 30.0


def assert_exact_partner(p, rep, img):
    """``img`` is the t -> t + T/2 image of ``rep``, bit for bit."""
    half = p.period / 2
    assert img.ti == rep.ti + half and img.tr == rep.tr + half
    assert img.ps[0] == -rep.ps[0] and img.ps[1] == rep.ps[1]
    assert img.k_rec[0] == -rep.k_rec[0] and img.k_rec[1] == rep.k_rec[1]
    assert img.action == rep.action + rep.q * np.pi
    assert img.hess.tobytes() == rep.hess.tobytes()
    assert img.residual == rep.residual
    assert img.q == rep.q


class TestNewtonSolve:
    def test_fixed_point(self, params, target):
        sp = solve_cycle(params, target, 20)[0]
        again = newton_solve(params, target, 20, sp.ti, sp.tr)
        assert abs(again.ti - sp.ti) + abs(again.tr - sp.tr) < 1e-10

    def test_same_basin_determinism(self, params, target):
        sp = solve_cycle(params, target, 20)[1]
        a = newton_solve(params, target, 20, sp.ti + 0.3, sp.tr - 0.2)
        b = newton_solve(params, target, 20, sp.ti - 0.2, sp.tr + 0.3)
        assert abs(a.ti - b.ti) + abs(a.tr - b.tr) < 1e-9

    def test_residual_components_small(self, params, target):
        sp = solve_cycle(params, target, 22)[0]
        res = saddle_residual(params, target, 22, sp.ti, sp.tr)
        assert np.max(np.abs(res)) < 1e-10

    def test_coalescent_seed_rejected(self, params, target):
        with pytest.raises(CoalescenceError):
            newton_solve(params, target, 20, 3.0 + 1j, 3.0 + 1j)


def assert_no_branch_lost(out):
    assert not any(isinstance(res, BranchLostError) for res in out)


class TestContinuation:
    def test_noop(self, params, target):
        sads = solve_cycle(params, target, 17)
        out = continue_branches(params, target, 17, sads, "q", 17)
        assert_no_branch_lost(out)
        for a, b in zip(sads, out):
            assert abs(a.ti - b.ti) + abs(a.tr - b.tr) < 1e-12

    def test_phi_closed_loop(self, params, target):
        sads = solve_cycle(params, target, 20)
        back = continue_branches(params, target, 20, sads, "phi", 2 * np.pi)
        assert_no_branch_lost(back)
        assert len(back) == len(sads)
        d = max(abs(a.ti - b.ti) + abs(a.tr - b.tr)
                for a, b in zip(sads, back))
        assert d < 1e-8

    def test_q_continuation_matches_direct_solve(self, params, target):
        # the principal (short/long-range excursion) branches continued in q
        # land on the directly solved saddles two orders up
        sads = [sp for sp in solve_cycle(params, target, 19)
                if 0.3 < sp.excursion / params.period < 0.95]
        assert len(sads) >= 4
        moved = continue_branches(params, target, 19, sads, "q", 21)
        assert_no_branch_lost(moved)
        direct = solve_cycle(params, target, 21)
        for sp in moved:
            d = min(abs(sp.ti - ref.ti) + abs(sp.tr - ref.tr)
                    for ref in direct)
            assert d < 1e-8


class TestHessian:
    def test_symmetric(self, params, target):
        sp = solve_cycle(params, target, 20)[0]
        h, det = hessian(params, target, 20, sp)
        h = np.asarray(h, dtype=complex)
        assert abs(h[0, 1] - h[1, 0]) < 1e-10 * np.max(np.abs(h))
        assert abs(det - np.linalg.det(h)) < 1e-10 * abs(det)

    def test_matches_finite_differences(self, params, target):
        # central differences of the exact action first derivatives
        sp = solve_cycle(params, target, 23)[2]
        h, _ = hessian(params, target, 23, sp)
        h = np.asarray(h, dtype=complex)
        step = 1e-5

        def grads(ti, tr):
            # (dS/dti, dS/dtr): the saddle equations are (f_rec, f_ion)
            # with dS/dti = f_ion and dS/dtr = -f_rec
            f_rec, f_ion = saddle_residual(params, target, 23, ti, tr)
            return f_ion, -f_rec

        fd = np.zeros((2, 2), dtype=complex)
        for j, dv in enumerate(((step, 0.0), (0.0, step))):
            gp = grads(sp.ti + dv[0], sp.tr + dv[1])
            gm = grads(sp.ti - dv[0], sp.tr - dv[1])
            fd[0, j] = (gp[0] - gm[0]) / (2 * step)
            fd[1, j] = (gp[1] - gm[1]) / (2 * step)
        assert np.max(np.abs(fd - h)) / np.max(np.abs(h)) < 1e-6

    def test_action_gradient_consistency(self, params, target):
        # saddle_residual really is the gradient of action_value
        ti, tr = 30.0 + 12.0j, 110.0 - 1.0j
        h = 1e-4
        f_rec, f_ion = saddle_residual(params, target, 20, ti, tr)
        grad = (f_ion, -f_rec)
        for comp, dv in ((0, (h, 0.0)), (1, (0.0, h))):
            num = (action_value(params, target, 20, ti + dv[0], tr + dv[1])
                   - action_value(params, target, 20, ti - dv[0], tr - dv[1])
                   ) / (2 * h)
            assert abs(num - grad[comp]) < 1e-6 * max(1.0, abs(grad[comp]))


class TestKernel:
    """The residual, its norm, the Jacobian, the Hessian and the stored
    SaddlePoint all come from one evaluation of the saddle equations."""

    @pytest.fixture(scope="class")
    def saddles(self, params, target):
        return [sp for q in (18, 24, 30) for sp in solve_cycle(params, target, q)]

    def test_jacobian_holds_hessian_curvatures(self, params, target, saddles):
        # dF_ion/dti = d2S/dti2 and dF_rec/dtr = -d2S/dtr2, bit for bit, with
        # the Jacobian taken from the state the Newton kernel evaluated
        ti = np.array([sp.ti for sp in saddles])
        tr = np.array([sp.tr for sp in saddles])
        qs = np.array([sp.q for sp in saddles])
        _, state = _evaluate(params, target, qs, params.phi, ti, tr)
        _, ((_, j01), (j10, _)) = _jacobian(state)
        for k, sp in enumerate(saddles):
            h, _ = hessian(params, target, sp.q, sp)
            assert h[0, 0] == j10[k] and h[1, 1] == -j01[k]

    def test_state_holds_residual(self, params, target, saddles):
        ti = np.array([sp.ti for sp in saddles])
        tr = np.array([sp.tr for sp in saddles])
        qs = np.array([sp.q for sp in saddles])
        _, state = _evaluate(params, target, qs, params.phi, ti, tr)
        (f_rec, f_ion), _ = _jacobian(state)
        res = saddle_residual(params, target, qs, ti, tr)
        assert f_rec.tobytes() == res[0].tobytes()
        assert f_ion.tobytes() == res[1].tobytes()

    def test_point_matches_public_functions(self, params, target):
        # a representative's stored fields equal the public functions' values
        # bit for bit; its partner is its exact image
        for q in (18, 24, 30):
            sads = solve_cycle(params, target, q)
            n = len(sads) // 2
            for sp, img in zip(sads[:n], sads[n:]):
                assert_exact_partner(params, sp, img)
                h, _ = hessian(params, target, sp.q, sp)
                res = saddle_residual(params, target, sp.q, sp.ti, sp.tr)
                assert sp.hess.tobytes() == h.tobytes()
                assert sp.k_rec.tobytes() == (sp.ps + apot(params, sp.tr)).tobytes()
                assert sp.ps.tobytes() == stationary_momentum(
                    params, sp.ti, sp.tr).tobytes()
                assert sp.action == action_value(params, target, sp.q, sp.ti, sp.tr)
                assert sp.residual == np.max(np.abs(res))

    def test_resnorm_is_residual_max_norm(self, params, target, monkeypatch):
        monkeypatch.setattr(saddle, "SEED_TI", 8)
        monkeypatch.setattr(saddle, "SEED_TAU", 10)
        seeds = seed_grid(params, target)
        rn, _ = _evaluate(params, target, 24.0, params.phi, seeds.ti, seeds.tr)
        res = saddle_residual(params, target, 24.0, seeds.ti, seeds.tr)
        assert np.isfinite(rn).all()
        assert rn.tobytes() == np.max(np.abs(res), axis=0).tobytes()

    def test_resnorm_infinite_at_bad_points(self, params, target):
        # tr == ti, and within 1e-12 of it: no accepted point is that near
        ti = np.array([3.0 + 1j, 20.0 + 3j, 5.0 + 2000j, 5.0 + 20j])
        tr = np.array([3.0 + 1j, 20.0 + 3j + 5e-13, 40.0 + 1j, 40.0 - 1500j])
        assert np.isinf(_evaluate(params, target, 24.0, params.phi, ti, tr)[0]).all()


# The damped Newton loop as it stood before the shared-trig kernel: every
# line-search round re-evaluated the residual of every active seed, and the
# Jacobian was a fresh evaluation.  Its field terms come from the public field
# functions, whose arithmetic the kernel shares (ref_kinematics), or are
# written out term by term with numpy's complex sin and cos, an independent
# referee that agrees to round-off only (termwise_kinematics).

def ref_kinematics(p, ti, tr):
    tau = tr - ti
    ps = -apot_integral(p, ti, tr) / tau
    return tau, ps + apot(p, tr), ps + apot(p, ti), efield(p, tr), efield(p, ti)


def termwise_kinematics(p, ti, tr):
    w, ph = p.omega, p.phi
    tau = tr - ti
    ps = -np.stack([(p.E1 / w ** 2) * (np.sin(w * tr) - np.sin(w * ti)),
                    (p.E2 / (4.0 * w ** 2)) * (np.sin(2.0 * w * tr + ph)
                                               - np.sin(2.0 * w * ti + ph))]) / tau

    def a(t):
        return np.stack([(p.E1 / p.omega) * np.cos(p.omega * t),
                         (p.E2 / (2.0 * p.omega)) * np.cos(2.0 * p.omega * t + ph)])

    def e(t):
        return np.stack([p.E1 * np.sin(w * t), p.E2 * np.sin(2.0 * w * t + ph)])

    return tau, ps + a(tr), ps + a(ti), e(tr), e(ti)


def ref_equations(p, tgt, q, vr, vi):
    return (0.5 * (vr * vr).sum(axis=0) + tgt.Ip - q * p.omega,
            0.5 * (vi * vi).sum(axis=0) + tgt.Ip)


def ref_resnorm(kin, p, tgt, q, ti, tr):
    with np.errstate(all="ignore"):
        bad = (np.abs(tr - ti) < 1e-12) | (np.abs(ti.imag) > 1e3) | (np.abs(tr.imag) > 1e3)
        ti = np.where(bad, 0.0, ti)
        tr = np.where(bad, 1.0, tr)
        _, vr, vi, _, _ = kin(p, ti, tr)
        f_rec, f_ion = ref_equations(p, tgt, q, vr, vi)
        rn = np.maximum(np.abs(f_rec), np.abs(f_ion))
        return np.where(bad | ~np.isfinite(rn), np.inf, rn)


def ref_residual_jacobian(kin, p, tgt, q, ti, tr):
    with np.errstate(all="ignore"):
        tau, vr, vi, er, ei = kin(p, ti, tr)
        a = (vi * vi).sum(axis=0) / tau - (vi * ei).sum(axis=0)
        c = (vr * vr).sum(axis=0) / tau + (vr * er).sum(axis=0)
        d = (vr * vi).sum(axis=0) / tau
        return ref_equations(p, tgt, q, vr, vi), ((d, -c), (a, -d))


def ref_newton_batch(p, tgt, q, ti, tr, tol=RESIDUAL_TOL, max_iter=100,
                     max_halvings=8, work=None, kin=ref_kinematics):
    """The reference loop on the field terms of ``kin``.  ``work`` counts its
    residual evaluations ("rounds"), and the points evaluated by a line
    search that tries each seed's last accepted number of halvings in one
    round, then the next 1, 2, 4, ... halvings of the seeds still no better:
    the seeds, the predicted trials ("prefix") and the trials beyond them
    ("halved")."""
    work = {} if work is None else work
    ti = np.array(ti, dtype=complex)
    tr = np.array(tr, dtype=complex)
    q = np.broadcast_to(np.asarray(q, dtype=float), ti.shape)
    rn = ref_resnorm(kin, p, tgt, q, ti, tr)
    work["seeds"] = ti.size
    work["rounds"] = 1
    work["prefix"] = work["halved"] = 0
    depth = np.zeros(ti.shape, dtype=int)
    alive = np.isfinite(rn)
    for _ in range(max_iter):
        active = alive & (rn > tol)
        if not active.any():
            break
        (f_rec, f_ion), ((j00, j01), (j10, j11)) = ref_residual_jacobian(
            kin, p, tgt, q[active], ti[active], tr[active])
        det = j00 * j11 - j01 * j10
        singular = np.abs(det) < 1e-300
        det = np.where(singular, 1.0, det)
        dti = -(j11 * f_rec - j01 * f_ion) / det
        dtr = -(-j10 * f_rec + j00 * f_ion) / det
        dti[singular] = np.nan
        dtr[singular] = np.nan
        cap = 0.5 * p.period
        size = np.maximum(np.abs(dti), np.abs(dtr))
        shrink = size > cap
        factor = np.where(shrink, cap / np.where(size > 0, size, 1.0), 1.0)
        dti = dti * factor
        dtr = dtr * factor
        scale = np.ones(dti.shape)
        base = rn[active]
        t1 = ti[active] + scale * dti
        t2 = tr[active] + scale * dtr
        trial = ref_resnorm(kin, p, tgt, q[active], t1, t2)
        work["rounds"] += 1
        halvings = np.zeros(dti.shape, dtype=int)
        for _ in range(max_halvings):
            worse = ~(trial < base)
            if not worse.any():
                break
            work["rounds"] += 1
            halvings[worse] += 1
            scale[worse] *= 0.5
            t1 = ti[active] + scale * dti
            t2 = tr[active] + scale * dtr
            new = ref_resnorm(kin, p, tgt, q[active], t1, t2)
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
        work["prefix"] += int((depth[idx] + 1).sum())
        need = halvings - depth[idx]
        room = max_halvings - depth[idx]
        tried, count = np.zeros(idx.size, dtype=int), 1
        while (tried < need).any():
            more = tried < need
            tried[more] += np.minimum(count, room[more] - tried[more])
            count *= 2
        work["halved"] += int(tried.sum())
        depth[idx[improved]] = halvings[improved]
    converged = alive & (rn <= tol)
    return ti, tr, rn, converged


@pytest.fixture(scope="module")
def odd_seeds(params, target):
    """Seeds that end in the Im(ti) < 0 partner, at tr == ti, at a non-finite
    residual, in the conjugate basin and at a non-finite time."""
    sp = solve_cycle(params, target, 24)[0]
    return (np.array([np.conj(sp.ti), 3.0 + 1j, 5.0 + 2000j, 10.0 + 0.1j,
                      np.nan + 1j]),
            np.array([np.conj(sp.tr), 3.0 + 1j, 40.0 + 1j, 10.5 + 0.1j,
                      20.0 + 0j]))


class TestNewtonBatch:
    @pytest.mark.parametrize("q, phi, ratio", [(15, 0.0, 0.12), (24, 0.7, 0.06),
                                               (31, 2.1, 0.18), (20, 0.0, 0.5),
                                               (27, np.pi / 2, 1.0)])
    def test_matches_reference_loop(self, target, odd_seeds, q, phi, ratio):
        p = FieldParams.from_ratio(E1, OMEGA, ratio, phi)
        seeds = seed_grid(p, target)
        ti = np.concatenate([seeds.ti, odd_seeds[0]])
        tr = np.concatenate([seeds.tr, odd_seeds[1]])
        got = _newton_batch(p, target, q, p.phi, ti, tr)
        ref = ref_newton_batch(p, target, q, ti, tr)
        assert got[3].sum() > 0 and not got[3].all()
        for g, r in zip(got, ref):
            assert np.array_equal(g, r, equal_nan=True)
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("ratio", [0.12, 1.0])
    def test_mixed_batch_matches_reference_loop_per_case(self, target, odd_seeds,
                                                         ratio):
        # several orders and phases in one run, case after case, as
        # solve_cycles and a scan's dense refreshes send them; the run keeps
        # only its still-iterating seeds, so it reorders the per-seed arrays
        cases = [(15, 0.0), (24, 0.0), (24, 0.7), (31, 2.1), (20, np.pi / 2)]
        fields = [FieldParams.from_ratio(E1, OMEGA, ratio, phi) for _, phi in cases]
        batch, refs = [], []
        for (q, _), p in zip(cases, fields):
            seeds = seed_grid(p, target)
            ti = np.concatenate([seeds.ti, odd_seeds[0]])
            tr = np.concatenate([seeds.tr, odd_seeds[1]])
            batch.append((np.full(ti.size, q), np.full(ti.size, p.phi), ti, tr))
            refs.append(ref_newton_batch(p, target, q, ti, tr))
        got = _newton_batch(fields[0], target,
                            *(np.concatenate(col) for col in zip(*batch)))
        ref = [np.concatenate(col) for col in zip(*refs)]
        assert got[3].sum() > 0 and not got[3].all()
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("limits", [{"max_halvings": 0}, {"max_halvings": 3},
                                        {"max_iter": 5}])
    @pytest.mark.parametrize("q, phi, ratio", [(15, 0.0, 0.12), (24, 0.7, 0.06),
                                               (31, 2.1, 0.18)])
    def test_matches_reference_loop_with_limits(self, target, odd_seeds, q, phi,
                                                ratio, limits, monkeypatch):
        p = FieldParams.from_ratio(E1, OMEGA, ratio, phi)
        seeds = seed_grid(p, target)
        ti = np.concatenate([seeds.ti, odd_seeds[0]])
        tr = np.concatenate([seeds.tr, odd_seeds[1]])
        names = {"max_halvings": "NEWTON_MAX_HALVINGS", "max_iter": "NEWTON_MAX_ITER"}
        for key, value in limits.items():
            monkeypatch.setattr(saddle, names[key], value)
        got = _newton_batch(p, target, q, p.phi, ti, tr)
        ref = ref_newton_batch(p, target, q, ti, tr, **limits)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("q, phi, ratio", [(15, 0.0, 0.12), (24, 0.7, 0.06),
                                               (31, 2.1, 0.18), (20, 0.0, 0.5),
                                               (27, np.pi / 2, 1.0)])
    def test_termwise_referee_finds_the_same_saddles(self, target, q, phi, ratio):
        # numpy's complex sin and cos, term by term, against the kernel's real
        # arithmetic: iterates differ in the last bits, the converged saddle
        # set of the dense seed grid does not
        p = FieldParams.from_ratio(E1, OMEGA, ratio, phi)
        seeds = seed_grid(p, target)
        half, tau_max = p.period / 2, saddle.TAU_MAX_PERIODS * p.period

        def saddle_set(ti, tr, _, conv):
            exc = (tr - ti).real
            ok = conv & (ti.imag > 0) & (exc > DEDUP_TOL) & (exc <= tau_max)
            shift = np.floor(ti[ok].real / half) * half
            ti, tr = ti[ok] - shift, tr[ok] - shift
            keep = _dedup(ti, tr, p.period)
            return ti[keep], tr[keep]

        got = saddle_set(*_newton_batch(p, target, q, p.phi, seeds.ti, seeds.tr))
        ref = saddle_set(*ref_newton_batch(p, target, q, seeds.ti, seeds.tr,
                                           kin=termwise_kinematics))
        assert got[0].size == ref[0].size > 0
        for a, b in ((got, ref), (ref, got)):
            for ti, tr in zip(*a):
                assert np.min(np.abs(b[0] - ti) + np.abs(b[1] - tr)) <= 1e-10

    def test_overflowing_steps_raise_no_warning(self, target):
        # at 1e300 and 1e308 W/cm^2 the Jacobian's products overflow, so the
        # steps are infinite or NaN and no trial is better; under
        # filterwarnings = error an escaping RuntimeWarning fails the solve
        omega, e1 = convert_units(800.0, 1e300)
        e2 = convert_units(800.0, 1e308)[1]
        p = FieldParams(E1=e1, E2=e2, omega=omega, phi=0.0)
        seeds = seed_grid(p, target)
        _, _, rn, converged = _newton_batch(p, target, 24, p.phi, seeds.ti, seeds.tr)
        assert not converged.any() and np.isfinite(rn).any()

    @staticmethod
    def kernel_work(params, target, monkeypatch, q):
        """The points of each kernel call of one solve_cycle, and the
        reference loop's work on the same seeds."""
        points = []

        def counted(p, tgt, qa, phi, ti, tr):
            points.append(np.size(ti))
            return _evaluate(p, tgt, qa, phi, ti, tr)

        monkeypatch.setattr(saddle, "_evaluate", counted)
        solve_cycle(params, target, q)
        seeds = seed_grid(params, target)
        assert (seeds.ti.real < params.period / 2).all()
        work = {}
        ref_newton_batch(params, target, q, seeds.ti, seeds.tr, work=work)
        return points, work

    @pytest.mark.parametrize("q", [15, 20, 25])
    def test_line_search_evaluates_only_worse_seeds(self, params, target,
                                                    monkeypatch, q):
        points, work = self.kernel_work(params, target, monkeypatch, q)
        assert sum(points) == work["seeds"] + work["prefix"] + work["halved"]
        assert work["halved"] > 0

    @pytest.mark.parametrize("q", [15, 20, 25])
    def test_one_kernel_call_per_iteration(self, params, target, monkeypatch, q):
        # the predicted depth folds a step's halving rounds into the
        # iteration's first kernel call, and a longer search doubles its rounds
        points, work = self.kernel_work(params, target, monkeypatch, q)
        assert len(points) <= 0.5 * work["rounds"]

    @pytest.fixture(scope="class")
    def first_step(self, params, target):
        """The inputs of a dense seed grid's first line search, copied as
        _newton_batch computed them: (p, tgt, q, phi, ti, tr, dti, dtr, base)."""
        search, seen = saddle._line_search, []

        def recorded(*args):
            seen.append([np.copy(a) if isinstance(a, np.ndarray) else a
                         for a in args[:9]])
            return search(*args)

        seeds = seed_grid(params, target)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(saddle, "_line_search", recorded)
            mp.setattr(saddle, "NEWTON_MAX_ITER", 1)
            _newton_batch(params, target, 24, params.phi, seeds.ti, seeds.tr)
        return seen[0]

    @pytest.mark.parametrize("window", ["predicted depth", "further halvings"])
    def test_line_search_returns_each_seeds_accepted_state(self, first_step,
                                                           window):
        # per seed, the k of the window's first trial below base (else of its
        # last), and that trial's norm and state as _evaluate builds them alone
        p, tgt, q, phi, ti, tr, dti, dtr, base = first_step
        mix = np.arange(ti.size)
        if window == "predicted depth":
            first, count = np.zeros_like(mix), mix % 5 + 1
        else:
            first, count = mix % 4 + 1, mix % 3 + 1
        k, norm, state = saddle._line_search(p, tgt, q, phi, ti, tr, dti, dtr,
                                             base, first, count)
        trials = [_evaluate(p, tgt, q, phi, ti + np.ldexp(1.0, -j) * dti,
                            tr + np.ldexp(1.0, -j) * dtr)[0]
                  for j in first + np.arange(count.max())[:, None]]
        better = (np.array(trials) < base) & (np.arange(count.max())[:, None] < count)
        hit = better.any(axis=0)
        assert hit.any() and not hit.all()
        assert np.array_equal(k, np.where(hit, first + better.argmax(axis=0),
                                          first + count - 1))
        scale = np.ldexp(1.0, -k)
        want_norm, want_state = _evaluate(p, tgt, q, phi, ti + scale * dti,
                                          tr + scale * dtr)
        assert norm.tobytes() == want_norm.tobytes()
        assert state.shape == want_state.shape
        assert state.tobytes() == want_state.tobytes()


class TestSolveCycles:
    # nine orders: a 6-order band's branch history and one order more
    HISTORY = np.arange(24.0, 33.0)

    @pytest.fixture(scope="class", params=[(0.0, 0.12), (0.7, 0.06), (2.1, 0.18)])
    def history(self, request, target):
        """The history solved in one call and order by order, with the
        kernel calls of each."""
        p = FieldParams.from_ratio(E1, OMEGA, request.param[1], request.param[0])
        calls = []

        def counted(*args):
            calls.append(1)
            return _evaluate(*args)

        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, 1)      # a forked worker's kernel calls go uncounted
            mp.setattr(saddle, "_evaluate", counted)
            batched = saddle.solve_cycles(target, [(p, q) for q in self.HISTORY])
            n_batched = len(calls)
            single = [saddle.solve_cycles(target, [(p, q)])[0] for q in self.HISTORY]
        return batched, single, n_batched, len(calls) - n_batched

    def test_batch_equals_per_order_solves(self, history):
        batched, single, _, _ = history
        assert len(batched) == len(single)
        for got, ref in zip(batched, single):
            assert got and len(got) == len(ref)
            for a, b in zip(got, ref):
                assert_identical_fields(a, b)

    def test_batch_halves_kernel_calls(self, history):
        # the tails of the per-order Newton runs, a few seeds per call,
        # run as one
        _, _, n_batched, n_single = history
        assert n_batched <= 0.5 * n_single

    def test_orders_below_threshold_stay_empty(self, params, target, two20):
        below, at20 = saddle.solve_cycles(target, [(params, 5), (params, 20)])
        assert below == [] and 2 * len(at20) == len(two20)
        for a, b in zip(at20, two20):
            assert_identical_fields(a, b)


class TestSolveCases:
    """(field, order) cases of one E1, E2 and omega but different phases:
    the planned dense refreshes of a 64-phase scan, in one solve_cycles call."""

    REFRESH_PHIS = 2.0 * np.pi * np.arange(0, 32, 8) / 64
    ORDERS = {1: [24], 2: [24, 25], 14: list(range(14, 28))}

    @pytest.fixture(scope="class", params=[0.06, 0.12, 0.18])
    def solved(self, request, target):
        """Per order count: the cases, their batched solve, the seed count of
        each Newton run and the kernel calls; then every case alone, with
        the kernel calls per order."""
        p = FieldParams.from_ratio(E1, OMEGA, request.param, 0.0)
        runs, calls = [], []

        def sized(p, tgt, q, phi, ti, tr):
            runs.append(ti.size)
            return _newton_batch(p, tgt, q, phi, ti, tr)

        def counted(*args):
            calls.append(1)
            return _evaluate(*args)

        batched = {}
        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, 1)      # one Newton run per chunk, all counted here
            mp.setattr(saddle, "_newton_batch", sized)
            mp.setattr(saddle, "_evaluate", counted)
            for n, qs in self.ORDERS.items():
                cases = [(p.with_phi(phi), q) for q in qs for phi in self.REFRESH_PHIS]
                runs.clear()
                calls.clear()
                batched[n] = (cases, saddle.solve_cycles(target, cases),
                              list(runs), len(calls))
            single, single_calls = {}, {}
            for q in self.ORDERS[14]:
                calls.clear()
                for phi in self.REFRESH_PHIS:
                    single[q, phi] = saddle.solve_cycles(target, [(p.with_phi(phi), q)])[0]
                single_calls[q] = len(calls)
        return batched, single, single_calls

    @pytest.mark.parametrize("n_orders", [1, 2, 14])
    def test_batch_equals_per_case_solves(self, solved, n_orders):
        batched, single, _ = solved
        cases, got, _, _ = batched[n_orders]
        assert len(got) == len(cases) == 4 * n_orders
        for (p, q), sads in zip(cases, got):
            ref = single[q, p.phi]
            assert sads and len(sads) == len(ref)
            for a, b in zip(sads, ref):
                assert_identical_fields(a, b)

    def test_runs_are_chunked(self, solved, target):
        # every seed of the 56 cases is solved once, in several runs
        cases, _, runs, _ = solved[0][14]
        assert len(runs) > 1 and max(runs) <= saddle.BATCH_SEEDS
        assert sum(runs) == sum(seed_grid(p, target).ti.size for p, _ in cases)

    def test_batch_halves_kernel_calls_of_a_scan_order(self, solved):
        # the dense refreshes of one order of a 64-phase scan: its four
        # Newton runs, a few slow seeds per call at their ends, run as one
        batched, _, single_calls = solved
        assert batched[1][3] <= 0.5 * single_calls[24]

    def test_fields_must_share_amplitudes(self, params, target):
        with pytest.raises(ValueError, match="only in phi"):
            saddle.solve_cycles(target, [(params, 24), (params.with_ratio(0.2), 24)])


def history_cases(phi, ratio):
    p = FieldParams.from_ratio(E1, OMEGA, ratio, phi)
    return [(p, q) for q in TestSolveCycles.HISTORY]


def refresh_cases(ratio):
    p = FieldParams.from_ratio(E1, OMEGA, ratio, 0.0)
    return [(p.with_phi(phi), q) for q in (24, 25) for phi in TestSolveCases.REFRESH_PHIS]


class TestForkedNewtonBatch:
    """A Newton run split into interleaved slices seeds[w::k], all but the
    first solved in forked children, holds the bytes of one serial run."""

    @pytest.fixture(scope="class")
    def batch(self, params, target, odd_seeds):
        """Three cases, each its seed grid and the odd seeds, and their
        serial run."""
        cols = []
        for q, phi in ((15, 0.0), (24, 0.7), (31, 2.1)):
            seeds = seed_grid(params.with_phi(phi), target)
            ti = np.concatenate([seeds.ti, odd_seeds[0]])
            tr = np.concatenate([seeds.tr, odd_seeds[1]])
            cols.append((np.full(ti.size, q), np.full(ti.size, phi), ti, tr))
        args = [np.concatenate(col) for col in zip(*cols)]
        return args, _newton_batch(params, target, *args)

    @staticmethod
    def forked(params, target, args, monkeypatch, cpus):
        """The split run on ``cpus`` usable CPUs, and the number of forks."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        usable_cpus(monkeypatch, cpus)
        got = saddle._forked_newton_batch(params, target, *args, 3)
        assert_no_child_left()
        return got, len(forks)

    @staticmethod
    def assert_same_bytes(got, ref):
        assert ref[3].sum() > 0 and not ref[3].all()
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("cpus", [2, 3, 8])
    def test_matches_one_worker(self, params, target, batch, monkeypatch, cpus):
        args, ref = batch
        got, forks = self.forked(params, target, args, monkeypatch, cpus)
        assert forks == min(cpus, 3) - 1
        self.assert_same_bytes(got, ref)

    @pytest.fixture(scope="class", params=[
        lambda: history_cases(0.0, 0.12), lambda: history_cases(0.7, 0.06),
        lambda: history_cases(2.1, 0.18), lambda: refresh_cases(0.12),
        lambda: [(FieldParams.from_ratio(E1, OMEGA, 0.12, 0.0), q) for q in (5, 20, 21)]],
        ids=["history-0-0.12", "history-0.7-0.06", "history-2.1-0.18", "refresh",
             "below-threshold"])
    def one_worker(self, request, target):
        """A run's cases and their solve on one worker."""
        cases = request.param()
        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, 1)
            return cases, saddle.solve_cycles(target, cases)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_solve_cycles_matches_one_worker(self, target, one_worker, monkeypatch,
                                             cpus):
        cases, ref = one_worker
        usable_cpus(monkeypatch, cpus)
        got = saddle.solve_cycles(target, cases)
        assert_no_child_left()
        assert len(got) == len(ref) == len(cases) and sum(map(len, ref)) > 0
        for sads, refs in zip(got, ref):
            assert len(sads) == len(refs)
            for a, b in zip(sads, refs):
                assert_identical_fields(a, b)

    def test_failed_child_is_run_again(self, params, target, batch, monkeypatch):
        args, ref = batch
        parent, newton, here = os.getpid(), saddle._newton_batch, []

        def exit_in_child(*a):
            if os.getpid() != parent:
                os._exit(3)
            here.append(1)
            return newton(*a)

        monkeypatch.setattr(saddle, "_newton_batch", exit_in_child)
        got, forks = self.forked(params, target, args, monkeypatch, 3)
        assert forks == 2 and len(here) == 3
        self.assert_same_bytes(got, ref)

    def test_failed_fork_runs_the_slice_here(self, params, target, batch, monkeypatch):
        args, ref = batch

        def refuse():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", refuse)
        usable_cpus(monkeypatch, 2)
        self.assert_same_bytes(saddle._forked_newton_batch(params, target, *args, 3), ref)

    def test_interrupt_reaps_every_child(self, params, target, batch, monkeypatch):
        args, _ = batch
        parent, newton = os.getpid(), saddle._newton_batch

        def interrupt_here(*a):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return newton(*a)

        monkeypatch.setattr(saddle, "_newton_batch", interrupt_here)
        usable_cpus(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            saddle._forked_newton_batch(params, target, *args, 3)
        assert_no_child_left()

    @pytest.mark.parametrize("cpus, threads, cases", [(1, 1, 9), (4, 2, 9), (4, 1, 1)],
                             ids=["one-cpu", "live-thread", "one-case"])
    def test_serial_runs_never_fork(self, params, target, monkeypatch, cpus, threads,
                                    cases):
        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(saddle.threading, "active_count", lambda: threads)
        usable_cpus(monkeypatch, cpus)
        assert all(saddle.solve_cycles(target, history_cases(0.0, 0.12)[:cases]))


def assert_same_point(a, b):
    """Bit-for-bit equality of every SaddlePoint field."""
    assert a.ti == b.ti and a.tr == b.tr
    assert a.ps.tobytes() == b.ps.tobytes()
    assert a.action == b.action
    assert a.q == b.q and a.residual == b.residual
    assert a.hess.tobytes() == b.hess.tobytes()
    assert a.k_rec.tobytes() == b.k_rec.tobytes()


def assert_same_outcome(got, ref):
    if isinstance(ref, Exception):
        assert type(got) is type(ref)
        assert str(got) == str(ref)
    else:
        assert isinstance(got, SaddlePoint)
        assert_same_point(got, ref)


def single_solve(p, tgt, q, ti, tr):
    """newton_solve's point, or the exception it raises."""
    try:
        return newton_solve(p, tgt, q, ti, tr)
    except (NoConvergenceError, CoalescenceError) as exc:
        return exc


def single_build(p, tgt, q, ti, tr):
    """Reference: the SaddlePoint at (ti, tr) from a one-point kernel call
    through the public functions' path, with numpy-scalar arithmetic."""
    t, state, ps = saddle._terms_at(p, ti, tr)
    f_rec, f_ion = saddle._equations(p, tgt, q, state[3:5], state[5:7])
    hess = saddle._hessian(state)[0]
    action = saddle._action(p, tgt, q, t[0], t[1], state[0], ps)
    return SaddlePoint(ti=complex(ti), tr=complex(tr), ps=ps, action=complex(action),
                       q=float(q), residual=float(np.abs((f_rec, f_ion)).max()),
                       hess=hess, k_rec=state[3:5])


class TestBatchBuiltPoints:
    """The points of one Newton run are built from one kernel call, each
    bit-identical to a point built alone on its own field."""

    RATIOS = (0.06, 0.12, 0.18, 0.5, 1.0)

    @pytest.fixture(scope="class", params=RATIOS, ids=lambda r: f"R{r}")
    def cases(self, request, params, target):
        # one run over four orders, each at its own phase
        p = params.with_ratio(request.param)
        cases = [(p.with_phi(0.37 * k + 0.1), q) for k, q in enumerate((14, 21, 28, 35))]
        return cases, saddle.solve_cycles(target, cases)

    def test_solve_cycles(self, target, cases):
        cases, got = cases
        assert sum(len(sads) for sads in got) > 20
        for (p, q), reps in zip(cases, got):
            for sp in reps:
                assert_same_point(sp, single_build(p, target, q, sp.ti, sp.tr))

    def test_solve_seeds(self, target, cases):
        cases, solved = cases
        reps = [(p, q, sp) for (p, q), sads in zip(cases, solved) for sp in sads]
        got = solve_seeds(cases[0][0], target, [q for _, q, _ in reps],
                          [p.phi for p, _, _ in reps],
                          [sp.ti + 0.01 for *_, sp in reps],
                          [sp.tr - 0.01 for *_, sp in reps])
        points = [(p, q, g) for (p, q, _), g in zip(reps, got)
                  if isinstance(g, SaddlePoint)]
        assert len(points) > 20
        for p, q, g in points:
            assert_same_point(g, single_build(p, target, q, g.ti, g.tr))


class TestSolveSeeds:
    @pytest.fixture(scope="class")
    def mixed_seeds(self, params, target):
        sp = solve_cycle(params, target, 24)[0]
        return [
            (sp.ti + 0.3, sp.tr - 0.2),                  # converges
            (np.conj(sp.ti), np.conj(sp.tr)),            # Im(ti) < 0 partner
            (3.0 + 1j, 3.0 + 1j),                        # tr == ti
            (5.0 + 2000j, 40.0 + 1j),                    # residual not finite
            (sp.ti - 0.2, sp.tr + 0.3),                  # converges
            (10.0 + 0.1j, 10.5 + 0.1j),                  # conjugate basin
        ]

    @pytest.mark.parametrize("max_iter", [100, 2])
    def test_matches_newton_solve(self, params, target, mixed_seeds, max_iter,
                                  monkeypatch):
        ti, tr = zip(*mixed_seeds)
        monkeypatch.setattr(saddle, "NEWTON_MAX_ITER", max_iter)
        got = solve_seeds(params, target, 24, params.phi, ti, tr)
        ref = [single_solve(params, target, 24, a, b) for a, b in mixed_seeds]
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same_outcome(g, r)
        messages = " | ".join(str(r) for r in ref if isinstance(r, Exception))
        for reason in ("tr == ti", "no convergence", "Im(ti) < 0"):
            assert reason in messages

    def test_per_seed_orders(self, params, target):
        sads = solve_cycle(params, target, 20)[:3]
        qs = [19.0, 20.0, 21.0, 19.0, 20.0, 21.0]
        ti = [sp.ti for sp in sads] * 2
        tr = [sp.tr for sp in sads] * 2
        got = solve_seeds(params, target, qs, params.phi, ti, tr)
        for g, q, a, b in zip(got, qs, ti, tr):
            assert_same_outcome(g, single_solve(params, target, q, a, b))

    def test_empty_batch(self, params, target):
        assert solve_seeds(params, target, 20, params.phi, [], []) == []


class TestFoldDistance:
    def test_arrays_give_the_per_pair_bits(self):
        # one modulus per pair, the same in the array path as for scalars
        rng = np.random.default_rng(7)
        period = 110.0
        d_ti = (rng.uniform(-2, 2, 500) * period
                + 1j * rng.uniform(-30, 30, 500)) * 10.0 ** rng.integers(-9, 1, 500)
        d_tr = d_ti + rng.standard_normal(500) + 1j * rng.standard_normal(500)
        near, both = _fold_distance(d_ti, d_tr, period)
        for k in range(d_ti.size):
            for a, b in ((d_ti[k], d_tr[k]), (complex(d_ti[k]), complex(d_tr[k]))):
                one = _fold_distance(a, b, period)
                assert np.float64(one[0]).tobytes() == near[k].tobytes()
                assert np.float64(one[1]).tobytes() == both[k].tobytes()


def greedy_dedup(ti, tr, period):
    """Reference: accept pairs one at a time against all accepted so far."""
    accepted = []
    for k in np.lexsort((tr.real, ti.real)):
        dup = any(abs(ti[k] - ti[a] - s) + abs(tr[k] - tr[a] - s) < DEDUP_TOL
                  for a in accepted for s in (-period, 0.0, period))
        if not dup:
            accepted.append(k)
    return accepted


class TestDedup:
    def test_matches_greedy_loop(self):
        rng = np.random.default_rng(3)
        period = 110.0
        base_ti = rng.uniform(0, period, 12) + 1j * rng.uniform(5, 40, 12)
        base_tr = base_ti.real + rng.uniform(10, 100, 12) + 1j * rng.uniform(-5, 5, 12)
        pick = rng.integers(0, 12, 40)
        jitter = DEDUP_TOL / 8 * (rng.standard_normal((2, 40))
                                  + 1j * rng.standard_normal((2, 40)))
        # copies shifted by one period fold onto their base; two copies a
        # full 2 T apart would not, so the shifts stay within one period
        shift = period * rng.integers(0, 2, 40)
        ti = np.concatenate([base_ti, base_ti[pick] + jitter[0] + shift])
        tr = np.concatenate([base_tr, base_tr[pick] + jitter[1] + shift])
        perm = rng.permutation(ti.size)
        ti, tr = ti[perm], tr[perm]
        got = _dedup(ti, tr, 2 * period)
        assert list(got) == greedy_dedup(ti, tr, period)
        assert len(got) == 12

    def test_near_tolerance_pairs(self):
        # pairs straddling DEDUP_TOL, chained so that greedy order matters
        ti = np.array([1.0, 1.0 + 0.6 * DEDUP_TOL, 1.0 + 1.2 * DEDUP_TOL,
                       1.0 + 2.5 * DEDUP_TOL]) + 2j
        tr = np.full(ti.shape, 51.0 + 2j)
        got = _dedup(ti, tr, 220.0)
        assert list(got) == greedy_dedup(ti, tr, 110.0)
        # the second pair is a duplicate of the first; the third is kept,
        # since it is compared with accepted pairs only
        assert list(got) == [0, 2, 3]

    def test_empty(self):
        assert list(_dedup(np.empty(0, complex), np.empty(0, complex), 1.0)) == []

    def test_half_cycle_images_merge(self):
        # a pair T/2 on in both times is the same orbit; one T/2 on in ti
        # only is not
        period = 220.0
        ti = np.array([10.0 + 5j, 10.0 + 0.5 * period + 5j])
        assert list(_dedup(ti, ti + 60.0 - 1j, period)) == [0]
        assert list(_dedup(ti, np.full(2, 70.0 - 1j), period)) == [0, 1]


def reference_continuation(p, tgt, q, sp, to_value, max_halvings=10):
    """Per-branch phi continuation with single-seed solves; returns the
    continued point (or None when lost) and the number of step halvings."""
    cur, cur_val, step, halvings = sp, p.phi, to_value - p.phi, 0
    while cur_val != to_value:
        nxt = cur_val + step
        if (step > 0 and nxt > to_value) or (step < 0 and nxt < to_value):
            nxt = to_value
        try:
            cand = newton_solve(p.with_phi(nxt), tgt, q, cur.ti, cur.tr)
            if abs(cand.ti - cur.ti) > 0.25 * p.period:
                raise NoConvergenceError("branch jump")
        except (NoConvergenceError, CoalescenceError):
            halvings += 1
            if halvings > max_halvings:
                return None, halvings
            step *= 0.5
            continue
        cur, cur_val = cand, nxt
    return cur, halvings


class TestContinueBranches:
    @pytest.fixture(scope="class")
    def h24(self, params, target):
        return solve_cycle(params, target, 24)

    @pytest.mark.parametrize("max_halvings", [10, 0])
    def test_batched_step_matches_per_branch(self, params, target, h24,
                                             max_halvings, monkeypatch):
        # a 0.8 rad phi step makes some H24 branches halve their step
        monkeypatch.setattr(saddle, "CONTINUATION_HALVINGS", max_halvings)
        got = continue_branches(params, target, 24, h24, "phi", 0.8)
        refs = [reference_continuation(params, target, 24, sp, 0.8,
                                       max_halvings=max_halvings)
                for sp in h24]
        assert any(h > 0 for _, h in refs)
        for g, (ref, _) in zip(got, refs):
            if ref is None:
                assert isinstance(g, BranchLostError)
            else:
                assert_same_point(g, ref)
        if max_halvings == 0:
            assert any(isinstance(g, BranchLostError) for g in got)

    def test_one_newton_run_per_round(self, params, target, h24, monkeypatch):
        # the branches that halve their step advance together: the 0.8 rad
        # step takes three rounds, each one Newton run over the branches
        # still short of the target
        runs = []
        batch = saddle._newton_batch

        def counted_batch(p, tgt, q, phi, ti, tr):
            runs.append(len(ti))
            return batch(p, tgt, q, phi, ti, tr)

        monkeypatch.setattr(saddle, "_newton_batch", counted_batch)
        got = continue_branches(params, target, 24, h24, "phi", 0.8)
        assert_no_branch_lost(got)
        assert len(runs) == 3
        assert runs[0] == len(h24)
        assert sum(runs) == 14

    def test_empty_branch_list(self, params, target):
        assert continue_branches(params, target, 24, [], "phi", 0.5) == []

    def test_one_call_over_orders_and_segments(self, params, target):
        # H14 and H15 at R = 0.06 over the first step of two refresh
        # segments of a 32-phase scan, in one call with a (q, start,
        # target) per branch; at phi = 0 one branch of each order is lost
        p = params.with_ratio(0.06)
        phis = 2.0 * np.pi * np.arange(32) / 32
        branches = []
        for q in (14, 15):
            for j in (0, 8):
                sads = solve_cycle(p.with_phi(phis[j]), target, q)
                branches += [(q, j, sp) for sp in sads[:len(sads) // 2]]
        got = continue_branches(p, target, [q for q, _, _ in branches],
                                [sp for *_, sp in branches], "phi",
                                [phis[j + 1] for _, j, _ in branches],
                                start=[phis[j] for _, j, _ in branches])
        assert len(got) == len(branches)
        lost = 0
        for (q, j, sp), g in zip(branches, got):
            (ref,) = continue_branches(p.with_phi(phis[j]), target, q, [sp], "phi",
                                       phis[j + 1])
            if isinstance(ref, BranchLostError):
                lost += 1
                assert isinstance(g, BranchLostError)
                assert str(g) == str(ref)
                assert str(g).startswith("lost continuing phi -> 0.196")
            else:
                assert_same_point(g, ref)
        assert lost >= 2
