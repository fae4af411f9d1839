"""Direct-integration oracle: symmetries, additivity, cross-method checks."""

import tracemalloc

import numpy as np
import pytest

from twocolor_hhg import (FieldParams, OracleConfig, ResolutionError,
                          contribution, direct_dipole, spectrum,
                          windowed_dipole)
from twocolor_hhg import oracle
from twocolor_hhg.dipole import dme, ionisation_amplitude
from twocolor_hhg.field import apot, apot_integral, apot_sq_integral

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


def whole_grid_rows(p, tgt, cfg, dme_form="paper"):
    """(tr, rows): every tau term of every tr row in one (2, n_tr, n_tau)
    array, times dt, in the oracle's arithmetic order."""
    dt = cfg.dt(p)
    tr = dt * np.arange(cfg.n_cycles * cfg.steps_per_period)
    n_tau = int(round(cfg.tau_max_periods * cfg.steps_per_period))
    tau = dt * (np.arange(n_tau) + 0.5)
    trg = tr[:, None]
    taug = tau[None, :]
    tig = trg - taug
    ps = -apot_integral(p, tig, trg) / taug
    d_rec = dme(ps + apot(p, trg), tgt.Ip, form=dme_form)
    spread = (2.0 * np.pi / (1j * (taug + 1j * cfg.eps))) ** 1.5
    ps2 = (ps * ps).sum(axis=0)
    s0 = -tgt.Ip * taug + 0.5 * ps2 * taug - 0.5 * apot_sq_integral(p, tig, trg)
    rows = d_rec * (ionisation_amplitude(tgt) * spread * np.exp(1j * s0))
    return tr, rows * dt


class TestBlockedGrid:
    QS = [19, 20, 21]

    @pytest.fixture(scope="class", params=[(512, 1), (1024, 1), (512, 2)])
    def whole_grid(self, request, params, target):
        steps, n_cycles = request.param
        cfg = OracleConfig(steps_per_period=steps, n_cycles=n_cycles)
        return cfg, *whole_grid_rows(params, target, cfg)

    @staticmethod
    def on_whole_grid(monkeypatch, tr, rows):
        """Make the oracle take its tau sums from the whole-grid rows."""
        def tau_sums(p, tgt, cfg, dme_form="paper", weight=None):
            return tr, (rows if weight is None else rows * weight).sum(axis=-1)
        monkeypatch.setattr(oracle, "_tau_sums", tau_sums)

    def test_direct_dipole_bytes(self, params, target, whole_grid, monkeypatch):
        cfg, tr, rows = whole_grid
        got = direct_dipole(params, target, cfg, self.QS)
        self.on_whole_grid(monkeypatch, tr, rows)
        ref = direct_dipole(params, target, cfg, self.QS)
        assert got.Itotal.tobytes() == ref.Itotal.tobytes()
        for a, b in zip(got.dipoles, ref.dipoles):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("taper_periods", [0.0, 0.1, 0.4])
    def test_windowed_dipole_bytes(self, params, target, whole_grid,
                                   monkeypatch, taper_periods):
        cfg, tr, rows = whole_grid
        band = (0.3 * params.period, 0.9 * params.period)
        taper = taper_periods * params.period
        got = windowed_dipole(params, target, cfg, 20, band, taper=taper)
        self.on_whole_grid(monkeypatch, tr, rows)
        ref = windowed_dipole(params, target, cfg, 20, band, taper=taper)
        assert got.tobytes() == ref.tobytes()

    def test_memory_bounded_by_the_block(self, params, target):
        # the whole grid at T/1024 would hold about 300 MB of temporaries
        tracemalloc.start()
        try:
            direct_dipole(params, target, OracleConfig(steps_per_period=1024),
                          [20])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


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

    @pytest.mark.xfail(strict=True, reason=(
        "at (2.1, 0.18) a spurious branch past the cutoff is judged relevant "
        "at q = 34 and 35, which sit 6.5 and 4.1 decades above the oracle"))
    def test_cutoff_orders_within_half_a_decade(self, target):
        p = FieldParams.from_ratio(E1, OMEGA, 0.18, 2.1)
        qs = np.arange(30, 36)
        lr = np.log10(spectrum(p, target, qs).Itotal
                      / direct_dipole(p, target, CFG, qs).Itotal)
        assert np.max(np.abs(lr)) <= 0.5, lr


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
