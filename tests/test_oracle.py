"""Direct-integration oracle: symmetries, additivity, cross-method checks."""

import numpy as np
import pytest

from twocolor_hhg import (FieldParams, OracleConfig, ResolutionError,
                          contribution, direct_dipole, spectrum,
                          windowed_dipole)

from conftest import E1, OMEGA


CFG = OracleConfig()
# (phi, R) fields and orders of the absolute saddle-versus-oracle check
NORM_FIELDS = ((0.0, 0.12), (np.pi / 2, 0.12), (0.7, 0.06), (2.1, 0.18))
NORM_ORDERS = np.arange(15, 28)


class TestConfig:
    def test_invalid_configs_rejected(self, params):
        with pytest.raises(ValueError):
            OracleConfig(steps_per_period=256).validate(params)
        with pytest.raises(ValueError):
            OracleConfig(tau_max_periods=1.0).validate(params)
        with pytest.raises(ValueError):
            OracleConfig(eps=0.0).validate(params)
        with pytest.raises(ValueError):
            OracleConfig(n_cycles=0).validate(params)

    def test_nyquist_guard(self, params, target):
        with pytest.raises(ResolutionError):
            direct_dipole(params, target, OracleConfig(steps_per_period=400),
                          [1500])


class TestDirectDipole:
    def test_mono_odd_only_comb(self, mono, target):
        spec = direct_dipole(mono, target, CFG, np.arange(15, 23))
        odd = spec.Itotal[spec.qs % 2 == 1]
        even = spec.Itotal[spec.qs % 2 == 0]
        assert np.max(even) < 1e-6 * np.min(odd)

    def test_phi_periodicity(self, params, target):
        qs = [19, 20]
        a = direct_dipole(params.with_phi(0.6), target, CFG, qs)
        b = direct_dipole(params.with_phi(0.6 + np.pi), target, CFG, qs)
        rel = np.abs(a.Itotal - b.Itotal) / np.max(a.Itotal)
        assert np.max(rel) < 1e-6

    def test_method_tag(self, params, target):
        spec = direct_dipole(params, target, CFG, [19])
        assert spec.method == "direct"


class TestWindowedDipole:
    def test_band_additivity(self, params, target):
        # sharp disjoint bands covering the full tau range reproduce the
        # unrestricted integral exactly
        tau_top = CFG.tau_max_periods * params.period
        edges = [0.0, 0.3 * tau_top, 0.7 * tau_top, tau_top]
        total = direct_dipole(params, target, CFG, [20]).dipoles[0]
        parts = sum(windowed_dipole(params, target, CFG, 20, (lo, hi))
                    for lo, hi in zip(edges, edges[1:]))
        assert np.max(np.abs(parts - total)) < 1e-10 * np.max(np.abs(total))

    def test_tapered_bands_still_additive(self, params, target):
        tau_top = CFG.tau_max_periods * params.period
        mid = 0.65 * params.period
        taper = 0.4 * params.period
        total = direct_dipole(params, target, CFG, [20]).dipoles[0]
        a = windowed_dipole(params, target, CFG, 20, (0.0, mid), taper=taper)
        b = windowed_dipole(params, target, CFG, 20, (mid, tau_top),
                            taper=taper)
        assert np.max(np.abs(a + b - total)) < 1e-10 * np.max(np.abs(total))

    def test_empty_band_zero(self, params, target):
        # a band narrower than the grid spacing holds no tau samples
        dt = CFG.dt(params)
        val = windowed_dipole(params, target, CFG, 20, (0.1 * dt, 0.2 * dt))
        assert np.max(np.abs(val)) == 0.0

    def test_invalid_band_rejected(self, params, target):
        with pytest.raises(ValueError):
            windowed_dipole(params, target, CFG, 20, (0.5, 0.1))
        with pytest.raises(ValueError):
            windowed_dipole(params, target, CFG, 20, (0.0, 0.5), taper=-1.0)

    def test_short_family_dominates_h20(self, params, target):
        # the excursion-windowed oracle confirms the saddle-point family
        # ordering: the short-trajectory band outweighs the long one at H20
        mid = 0.65 * params.period
        taper = 0.4 * params.period
        tau_top = CFG.tau_max_periods * params.period
        short = windowed_dipole(params, target, CFG, 20, (0.0, mid),
                                taper=taper)
        long_ = windowed_dipole(params, target, CFG, 20, (mid, tau_top),
                                taper=taper)
        assert np.linalg.norm(short) > np.linalg.norm(long_)

    def test_family_amplitudes_match_saddle_contributions(self, params,
                                                          target, wide_orbits):
        # windowed-band amplitude vs summed saddle contributions of the same
        # family (methods are independent; the saddle side is rescaled by
        # the projection-window convention factor T).  The short band is
        # clean and agrees within a factor of 2; the long band additionally
        # integrates the longer-excursion families the saddle long pair
        # excludes, so only order-of-magnitude agreement is asserted there.
        mid = 0.65 * params.period
        taper = 0.4 * params.period
        tau_top = CFG.tau_max_periods * params.period
        bands = {"short": (0.0, mid), "long": (mid, tau_top)}
        windows = {"short": (0.5, 2.0), "long": (0.1, 10.0)}
        for q in (18, 20, 22, 24):
            fam_sum = {"short": np.zeros(2, complex),
                       "long": np.zeros(2, complex)}
            for sp, lab in wide_orbits.by_q[q]:
                if lab.relevant and lab.family in fam_sum:
                    fam_sum[lab.family] += np.asarray(
                        contribution(params, target, q, sp, lab).total)
            for fam, band in bands.items():
                oracle_amp = np.linalg.norm(
                    windowed_dipole(params, target, CFG, q, band,
                                    taper=taper))
                saddle_amp = np.linalg.norm(fam_sum[fam]) / params.period
                lo, hi = windows[fam]
                assert lo < saddle_amp / oracle_amp < hi


@pytest.fixture(scope="module")
def log_ratios(target):
    """log10(I_saddle / I_direct) over NORM_ORDERS at each of NORM_FIELDS."""
    out = {}
    for phi, ratio in NORM_FIELDS:
        p = FieldParams.from_ratio(E1, OMEGA, ratio, phi)
        sad = spectrum(p, target, NORM_ORDERS)
        dirc = direct_dipole(p, target, CFG, NORM_ORDERS)
        out[(phi, ratio)] = np.log10(sad.Itotal / dirc.Itotal)
    return out


class TestAbsoluteNormalisation:
    def test_median_offset_within_015_decades(self, log_ratios):
        # both sides are Fourier coefficients over one period; a saddle sum
        # not divided by T sits log10 T^2 = 4.09 decades above the oracle
        for field, lr in log_ratios.items():
            assert abs(np.median(lr)) <= 0.15, (field, lr)

    @pytest.mark.xfail(strict=True, reason=(
        "single orders are still up to 1.3 decades off the oracle: q = 15 "
        "at (0, 0.12), (pi/2, 0.12) and (2.1, 0.18), q = 18 and 19 at "
        "(pi/2, 0.12), q = 26 at (0.7, 0.06), q = 18 at (2.1, 0.18)"))
    def test_every_order_within_half_a_decade(self, log_ratios):
        for field, lr in log_ratios.items():
            assert np.max(np.abs(lr)) <= 0.5, (field, lr)


class TestConvergence:
    def test_dt_halving_stable(self, params, target):
        qs = [19, 21]
        a = direct_dipole(params, target, CFG, qs)
        fine = OracleConfig(steps_per_period=2 * CFG.steps_per_period)
        b = direct_dipole(params, target, fine, qs)
        rel = np.abs(a.Itotal - b.Itotal) / b.Itotal
        assert np.max(rel) < 0.05

    def test_eps_stable(self, params, target):
        qs = [19, 21]
        a = direct_dipole(params, target, CFG, qs)
        for eps in (0.5 * CFG.eps, 2.0 * CFG.eps):
            b = direct_dipole(params, target,
                              OracleConfig(eps=eps), qs)
            rel = np.abs(a.Itotal - b.Itotal) / a.Itotal
            assert np.max(rel) < 0.05
