"""Per-orbit dipole contributions, harmonic dipole sum, spectrum shape."""

import dataclasses

import numpy as np
import pytest

from twocolor_hhg import (FieldParams, HarmonicDipole, OracleConfig, PoleError,
                          SaddlePoint, SamplingError, TargetParams, classify,
                          contribution, direct_dipole, dme, harmonic_dipole,
                          intensity, labelled_orbits, relevance_mask, run_scan,
                          solve_cycle, spectrum)
from twocolor_hhg import dipole, saddle
from twocolor_hhg.dipole import build_history, history_orders, ionisation_amplitude
from twocolor_hhg.taxonomy import MIN_BRANCH_SUPPORT

from conftest import AR_IP, E1, OMEGA, assert_identical_fields


class TestDme:
    def test_zero_momentum(self, target):
        assert np.allclose(dme(np.zeros(2, dtype=complex), target), 0.0)

    def test_odd_parity(self, target):
        g = np.random.default_rng(3)
        for _ in range(10):
            k = g.normal(size=2) + 1j * g.normal(size=2)
            assert np.allclose(dme(-k, target), -dme(k, target))

    def test_small_k_linearity_both_forms(self):
        k = np.array([1e-4, 2e-4], dtype=complex)
        for form in ("paper", "hydrogenic"):
            tgt = TargetParams(AR_IP, dme_form=form)
            d1 = dme(k, tgt)
            d2 = dme(2 * k, tgt)
            assert np.allclose(d2, 2 * d1, rtol=1e-3)

    def test_pole_raises(self, target):
        # k^2 = -sqrt(2 Ip) is on the paper-form pole manifold
        k = np.array([1j * (2 * AR_IP) ** 0.25, 0.0])
        with pytest.raises(PoleError):
            dme(k, target)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="dme_form: unknown form 'bogus'"):
            TargetParams(AR_IP, dme_form="bogus")


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
        assert not hd.contributions
        assert hd.Dx == 0.0 and hd.Dy == 0.0

    def test_contributions_are_the_summed_orbits(self, params, target, wide_orbits):
        # one contribution per relevant orbit, in the order of the sum
        labelled = wide_orbits.by_q[20]
        hd = harmonic_dipole(params, target, 20, labelled)
        summed = [lab for _, lab in labelled if lab.relevant]
        assert 0 < len(summed) < len(labelled)
        assert [c.label for c in hd.contributions] == summed
        total = sum((c.total for c in hd.contributions), np.zeros(2, dtype=complex))
        assert (hd.Dx, hd.Dy) == tuple(total / params.period)

    @pytest.mark.parametrize("broken", [
        {"hess": np.ones((2, 2), dtype=complex)},               # det S'' = 0
        {"k_rec": np.array([1j * (2 * AR_IP) ** 0.25, 0.0])},   # on the dme pole
    ], ids=["singular-hessian", "dme-pole"])
    def test_orbit_outside_the_sum_cannot_fail_it(self, params, target, wide_orbits,
                                                  broken):
        # an orbit that relevance excluded is not evaluated: a saddle on
        # which its contribution would raise leaves the dipole's bits alone
        labelled = wide_orbits.by_q[20]
        k = next(k for k, (_, lab) in enumerate(labelled) if not lab.relevant)
        sp, lab = labelled[k]
        sp = dataclasses.replace(sp, **broken)
        with pytest.raises((saddle.CoalescenceError, PoleError)):
            contribution(target, sp, lab)
        spoilt = list(labelled)
        spoilt[k] = (sp, lab)
        ref = harmonic_dipole(params, target, 20, labelled)
        hd = harmonic_dipole(params, target, 20, spoilt)
        assert (hd.Dx, hd.Dy) == (ref.Dx, ref.Dy)

    def test_below_threshold_is_an_empty_sum(self, params, target, wide_orbits):
        # a sum with orbits, one with none relevant, and the placeholder of
        # a spectrum's order below threshold (a skipped order's:
        # test_coalescent_saddle_is_audited); an empty sum says nothing of
        # the threshold, so the dipole carries no threshold flag
        labelled = wide_orbits.by_q[20]
        none = [(sp, dataclasses.replace(lab, relevant=False)) for sp, lab in labelled]
        dipoles = [harmonic_dipole(params, target, 20, labelled),
                   harmonic_dipole(params, target, 20, none),
                   *spectrum(params, target, [5]).dipoles]
        assert [not hd.contributions for hd in dipoles] == [False, True, True]
        assert not hasattr(HarmonicDipole, "below_threshold")


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
        assert all(not hd.contributions and saddle.below_threshold(params, target, hd.q)
                   for hd in spec.dipoles)

    def test_coalescent_saddle_is_audited(self, params, target, monkeypatch):
        # a saddle whose Hessian is singular (two saddles merged) fails in
        # the stationary-phase prefactor; the order is skipped with an audit
        # entry, not a traceback
        def solve_cycles(tgt, cases):
            t = 20.0 + 5.0j
            return [[SaddlePoint(
                ti=t, tr=t + 30.0, ps=np.zeros(2, dtype=complex), action=0j,
                q=float(q), residual=0.0,
                hess=np.ones((2, 2), dtype=complex),
                k_rec=np.ones(2, dtype=complex))] for p, q in cases]

        monkeypatch.setattr(dipole, "solve_cycles", solve_cycles)
        spec = spectrum(params, target, [20, 21])
        assert np.all(spec.Itotal == 0.0)
        skipped = [line for line in spec.audit if "skipped" in line]
        assert len(skipped) == 2
        assert all("coalesced" in line for line in skipped)
        assert all(not hd.contributions and not saddle.below_threshold(params, target, hd.q)
                   for hd in spec.dipoles)

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
        spec = spectrum(params, TargetParams(target.Ip, dme_form="hydrogenic"),
                        [20, 21])
        assert spec.Ix[0] < 1e-12 * spec.Iy[0]   # even: y-polarized
        assert spec.Iy[1] < 1e-12 * spec.Ix[1]   # odd: x-polarized


class TestHistoryOrders:
    """The branch history of an order range runs MIN_BRANCH_SUPPORT - 1
    orders past it: as far as the relevance rules look."""

    def test_ends_min_branch_support_minus_one_past_the_range(self):
        assert MIN_BRANCH_SUPPORT == 3
        assert history_orders([21, 20]).tolist() == [20.0, 21.0, 22.0, 23.0]

    @pytest.mark.parametrize("field, qs", [
        ((0.0, 0.12), range(12, 36)),
        ((2.1, 0.18), range(12, 36)),
        ((0.0, 1.0), range(12, 36)),
        # a one-order history past q 23 judges q 23 differently
        ((0.0, 0.5), range(20, 24)),
    ], ids=["0-0.12", "2.1-0.18", "0-1.0", "0-0.5"])
    def test_one_more_order_judges_no_orbit_differently(self, target, field, qs):
        p = FieldParams.from_ratio(E1, OMEGA, field[1], field[0])
        qs = np.asarray(qs, dtype=float)
        per_q, history = build_history(
            p, target, np.arange(qs[0], qs[-1] + MIN_BRANCH_SUPPORT + 1))
        got = dict(labelled_orbits(p, target, qs))
        assert list(got) == qs.tolist()
        for q in qs:
            mask = relevance_mask(p, target, q, per_q[q], history=history)
            want = classify(p, per_q[q], relevant_mask=mask)
            assert [lab for _, lab in got[q]] == [lab for _, lab in want], q
            for (a, _), (b, _) in zip(got[q], want):
                assert_identical_fields(a, b)


class TestRangeDependence:
    """The branch history starts at the lowest requested order, so the
    support and pair rules can judge an order differently in a band than
    in a wider range around it."""

    @pytest.mark.parametrize("field", [
        (0.0, 0.12),
        (0.7, 0.06),
        pytest.param((1.3, 0.3), marks=pytest.mark.xfail(strict=True, reason=(
            "q 18-23 differ: the q 12..35 history drops the dominant orbits "
            "past closest approaches at q_c = 13 and 14, below the band"))),
    ], ids=["0-0.12", "0.7-0.06", "1.3-0.3"])
    def test_band_equals_the_same_orders_of_a_wider_range(self, target, field):
        p = FieldParams.from_ratio(E1, OMEGA, field[1], field[0])
        band = spectrum(p, target, np.arange(18, 24))
        full = spectrum(p, target, np.arange(12, 36))
        np.testing.assert_allclose(band.Itotal, full.Itotal[6:12], rtol=1e-9, atol=0)
