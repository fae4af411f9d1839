"""Per-orbit dipole contributions, harmonic dipole sum, spectrum shape."""

import numpy as np
import pytest

from twocolor_hhg import (HarmonicDipole, OracleConfig, PoleError, SaddlePoint,
                          SamplingError, classify, contribution, direct_dipole,
                          dme, harmonic_dipole, intensity, run_scan,
                          solve_cycle, spectrum)
from twocolor_hhg import dipole, saddle
from twocolor_hhg.dipole import ionisation_amplitude

from conftest import AR_IP


class TestDme:
    def test_zero_momentum(self):
        assert np.allclose(dme(np.zeros(2, dtype=complex), AR_IP), 0.0)

    def test_odd_parity(self):
        g = np.random.default_rng(3)
        for _ in range(10):
            k = g.normal(size=2) + 1j * g.normal(size=2)
            assert np.allclose(dme(-k, AR_IP), -dme(k, AR_IP))

    def test_small_k_linearity_both_forms(self):
        k = np.array([1e-4, 2e-4], dtype=complex)
        for form in ("paper", "hydrogenic"):
            d1 = dme(k, AR_IP, form=form)
            d2 = dme(2 * k, AR_IP, form=form)
            assert np.allclose(d2, 2 * d1, rtol=1e-3)

    def test_pole_raises(self):
        # k^2 = -sqrt(2 Ip) is on the paper-form pole manifold
        k = np.array([1j * (2 * AR_IP) ** 0.25, 0.0])
        with pytest.raises(PoleError):
            dme(k, AR_IP)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            dme(np.array([0.1, 0.1], dtype=complex), AR_IP, form="bogus")


class TestContribution:
    def test_factorization_invariant(self, params, target, wide_orbits):
        for sp, lab in wide_orbits.by_q[20]:
            c = contribution(target, sp, lab)
            rebuilt = (c.hess_factor * np.asarray(c.d_rec) * c.ion_amp
                       * c.spread * c.phase)
            assert np.max(np.abs(rebuilt - np.asarray(c.total))) \
                <= 1e-12 * np.max(np.abs(c.total))

    def test_relevant_phases_bounded(self, params, target, wide_orbits):
        for sp, lab in wide_orbits.by_q[20]:
            if lab.relevant:
                c = contribution(target, sp, lab)
                assert abs(c.phase) <= 1.0 + 1e-12

    def test_long_spreads_more_than_short(self, params, target, wide_orbits):
        labelled = wide_orbits.by_q[20]
        spreads = {}
        for sp, lab in labelled:
            if lab.relevant and lab.half_cycle == 0:
                c = contribution(target, sp, lab)
                spreads[lab.family] = abs(c.spread)
        assert spreads["long"] < spreads["short"]

    def test_ionisation_amplitude_constant(self, target):
        assert ionisation_amplitude(target) == pytest.approx(
            1.0 / (2.0 * np.pi * np.sqrt(AR_IP)))


class TestHarmonicDipole:
    def test_half_cycle_partner_identity(self, params, target, wide_orbits):
        # partner contribution = e^{i q pi} diag(-1, 1) (first contribution)
        for q in (20, 21):
            labelled = wide_orbits.by_q[q]
            rel = [(sp, lab) for sp, lab in labelled if lab.relevant]
            for fam in ("short", "long"):
                pair = sorted(((sp, lab) for sp, lab in rel
                               if lab.family == fam),
                              key=lambda t: t[0].ti.real)
                assert len(pair) == 2
                c0 = contribution(target, *pair[0])
                c1 = contribution(target, *pair[1])
                pred = np.exp(1j * q * np.pi) * np.array(
                    [-c0.total[0], c0.total[1]])
                err = np.max(np.abs(pred - np.asarray(c1.total)))
                assert err < 1e-8 * np.max(np.abs(c0.total))

    def test_even_q_purely_y_odd_purely_x(self, params, target, wide_orbits):
        for q, axis in ((20, 1), (21, 0)):
            labelled = wide_orbits.by_q[q]
            hd = harmonic_dipole(params, target, q, labelled)
            d = np.array([hd.Dx, hd.Dy])
            assert abs(d[1 - axis]) < 1e-8 * abs(d[axis])

    def test_mono_dy_zero(self, mono, target):
        sads = solve_cycle(mono, target, 21)
        labelled = classify(mono, sads)
        hd = harmonic_dipole(mono, target, 21, labelled)
        assert hd.Dy == 0.0
        assert abs(hd.Dx) > 0.0

    def test_empty_set_flagged(self, params, target):
        hd = harmonic_dipole(params, target, 20, [])
        assert hd.below_threshold
        assert hd.Dx == 0.0 and hd.Dy == 0.0


class TestIntensity:
    def test_zero_dipole(self, params):
        hd = HarmonicDipole(q=21.0, Dx=0j, Dy=0j, contributions=())
        assert intensity(hd, params.omega) == (0.0, 0.0, 0.0)

    def test_quadratic_scaling(self, params):
        a = HarmonicDipole(q=21.0, Dx=1.0 + 2j, Dy=0.5j, contributions=())
        b = HarmonicDipole(q=21.0, Dx=2.0 + 4j, Dy=1.0j, contributions=())
        ia = intensity(a, params.omega)
        ib = intensity(b, params.omega)
        assert ib == pytest.approx(tuple(4 * x for x in ia), rel=1e-12)

    def test_global_phase_invariance(self, params):
        z = np.exp(0.7j)
        a = HarmonicDipole(q=21.0, Dx=1.0 + 2j, Dy=0.5j, contributions=())
        b = HarmonicDipole(q=21.0, Dx=z * (1.0 + 2j), Dy=z * 0.5j,
                           contributions=())
        assert intensity(a, params.omega)[2] == pytest.approx(
            intensity(b, params.omega)[2], rel=1e-12)


@pytest.fixture(scope="module")
def wide(params, target):
    return spectrum(params, target, np.arange(25, 38))


class TestSpectrum:
    def test_beyond_cutoff_drop(self, wide):
        # >= 2 orders of magnitude across the 8-order window past the
        # plateau edge, with the window start within +-2 orders of H27
        qs = list(wide.qs)
        drops = []
        for q0 in (25, 26, 27, 28, 29):
            i, j = qs.index(q0), qs.index(q0 + 8)
            drops.append(wide.Itotal[i] / wide.Itotal[j])
        assert max(drops) >= 100.0

    def test_audit_records_discards(self, wide):
        assert any("discarded" in line for line in wide.audit)

    def test_phi_periodicity(self, params, target):
        qs = np.arange(18, 22)
        a = spectrum(params.with_phi(0.7), target, qs)
        b = spectrum(params.with_phi(0.7 + np.pi), target, qs)
        rel = np.abs(a.Itotal - b.Itotal) / np.max(a.Itotal)
        assert np.max(rel) < 1e-8

    def test_below_threshold_orders_flagged(self, params, target):
        spec = spectrum(params, target, [5, 6])
        assert np.all(spec.Itotal == 0.0)
        assert all(hd.below_threshold for hd in spec.dipoles)

    def test_coalescent_saddle_is_audited(self, params, target, monkeypatch):
        # a saddle whose Hessian is singular (two saddles merged) fails in
        # the stationary-phase prefactor; the order is skipped with an audit
        # entry, not a traceback
        def solve_cycles(tgt, cases):
            t = 20.0 + 5.0j
            return [saddle.with_partners(p, [SaddlePoint(
                ti=t, tr=t + 30.0, ps=np.zeros(2, dtype=complex), action=0j,
                hessdet=0j, q=float(q), residual=0.0,
                hess=np.ones((2, 2), dtype=complex),
                k_rec=np.ones(2, dtype=complex))]) for p, q in cases]

        monkeypatch.setattr(dipole, "solve_cycles", solve_cycles)
        spec = spectrum(params, target, [20, 21])
        assert np.all(spec.Itotal == 0.0)
        skipped = [line for line in spec.audit if "skipped" in line]
        assert len(skipped) == 2
        assert all("coalesced" in line for line in skipped)

    def test_off_grid_order_rejected(self, params, target):
        # branch histories run in unit steps from the lowest order, so 20.5
        # would never be solved
        with pytest.raises(ValueError, match=r"20\.5"):
            spectrum(params, target, [20, 20.5, 21])

    @pytest.mark.parametrize("call", [
        lambda p, tgt: spectrum(p, tgt, []),
        lambda p, tgt: direct_dipole(p, tgt, OracleConfig(), []),
        lambda p, tgt: run_scan(p, tgt, [], 32),
        lambda p, tgt: dipole.history_orders([]),
    ], ids=["spectrum", "direct_dipole", "run_scan", "history_orders"])
    def test_empty_order_list_refused(self, params, target, call):
        with pytest.raises(SamplingError, match="need at least 1 orders, got 0"):
            call(params, target)

    def test_one_coalescence_error(self):
        assert dipole.CoalescenceError is saddle.CoalescenceError

    def test_dme_form_preserves_selection_rules(self, params, target):
        spec = spectrum(params, target, [20, 21], dme_form="hydrogenic")
        assert spec.Ix[0] < 1e-12 * spec.Iy[0]   # even: y-polarized
        assert spec.Iy[1] < 1e-12 * spec.Ix[1]   # odd: x-polarized
