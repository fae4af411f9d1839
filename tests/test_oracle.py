"""Direct-integration oracle: symmetries, additivity, cross-method checks."""

import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from twocolor_hhg import (FieldParams, OracleConfig, ResolutionError,
                          contribution, direct_dipole, spectrum,
                          windowed_dipole)
from twocolor_hhg import oracle, saddle
from twocolor_hhg.dipole import PoleError, dme, ionisation_amplitude
from twocolor_hhg.field import (_apot, _apot_integral, _apot_sq_antideriv,
                                _phases, apot, apot_integral, apot_sq_integral)

from conftest import E1, OMEGA, assert_no_child_left, usable_cpus


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

    @pytest.mark.parametrize("cfg, message", [
        (OracleConfig(eps=np.nan), "eps must be"),
        (OracleConfig(eps=np.inf), "eps must be"),
        (OracleConfig(tau_max_periods=np.nan), "tau_max must be"),
        (OracleConfig(tau_max_periods=np.inf), "tau_max must be"),
    ], ids=["eps-nan", "eps-inf", "tau_max-nan", "tau_max-inf"])
    def test_non_finite_values_rejected(self, params, target, cfg, message):
        # a NaN or infinite eps made NaN intensities with only a warning; an
        # infinite tau_max overflowed in the grid and a NaN one failed there
        with pytest.raises(ValueError, match=message):
            cfg.validate(params)
        with pytest.raises(ValueError, match=message):
            direct_dipole(params, target, cfg, [20])

    def test_odd_step_count_rejected(self, params, target):
        # the half-period mirror needs tr + T/2 on the grid
        with pytest.raises(ValueError, match="even"):
            OracleConfig(steps_per_period=513).validate(params)
        with pytest.raises(ValueError, match="even"):
            direct_dipole(params, target, OracleConfig(steps_per_period=1025),
                          [20])

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


def full_period_dipoles(p, tgt, cfg, qs):
    """The dipoles at ``qs`` from the whole (tr, tau) grid of all n_cycles
    periods, as the oracle summed it before the half-period mirror; built
    64 tr rows at a time, which gives the same bytes as one whole grid."""
    dt = cfg.dt(p)
    tr = dt * np.arange(cfg.n_cycles * cfg.steps_per_period)
    n_tau = int(round(cfg.tau_max_periods * cfg.steps_per_period))
    taug = dt * (np.arange(n_tau) + 0.5)[None, :]
    spread = (2.0 * np.pi / (1j * (taug + 1j * cfg.eps))) ** 1.5
    g = np.empty((2, tr.size), dtype=complex)
    for start in range(0, tr.size, 64):
        trg = tr[start:start + 64, None]
        tig = trg - taug
        ps = -apot_integral(p, tig, trg) / taug
        d_rec = dme(ps + apot(p, trg), tgt)
        ps2 = (ps * ps).sum(axis=0)
        s0 = -tgt.Ip * taug + 0.5 * ps2 * taug - 0.5 * apot_sq_integral(p, tig, trg)
        terms = d_rec * (ionisation_amplitude(tgt) * spread * np.exp(1j * s0)) * dt
        g[:, start:start + 64] = terms.sum(axis=-1)
    return np.array([(g * np.exp(1j * q * p.omega * tr)).sum(axis=-1) * dt
                     / (cfg.n_cycles * p.period) for q in qs])


def half_period_rows(p, tgt, cfg):
    """(tr, rows): every tau term of every tr row of the first half period in
    one (2, n_tr, n_tau) array, times dt, in the oracle's arithmetic order."""
    dt = cfg.dt(p)
    n_tr = cfg.steps_per_period // 2
    n_tau = int(round(cfg.tau_max_periods * cfg.steps_per_period))
    tr = dt * np.arange(n_tr)
    tau = dt * (np.arange(n_tau) + 0.5)
    # ti = tr - tau on the grid, from one table per quantity in descending ti
    ti = dt * (n_tr - 1.5 - np.arange(n_tr + n_tau - 1))
    x1, x2 = _phases(p, ti)
    si1, si2, fi = (sliding_window_view(t, n_tau)[::-1] for t in
                    (np.sin(x1), np.sin(x2), _apot_sq_antideriv(p, ti)))
    x1, x2 = _phases(p, tr[:, None])
    ps = np.stack(_apot_integral(p, si1, si2, np.sin(x1), np.sin(x2))) / -tau
    d_rec = dme(ps + np.stack(_apot(p, np.cos(x1), np.cos(x2))), tgt)
    spread = (2.0 * np.pi / (1j * (tau + 1j * cfg.eps))) ** 1.5
    ps2 = (ps * ps).sum(axis=0)
    s0 = (-tgt.Ip * tau + 0.5 * ps2 * tau
          - 0.5 * (_apot_sq_antideriv(p, tr[:, None]) - fi))
    rows = d_rec * (ionisation_amplitude(tgt) * spread * np.exp(1j * s0))
    return tr, rows * dt


class TestBlockedGrid:
    """The blocked tau sums equal the whole half-period grid's, byte for
    byte, whatever the block size and the number of usable CPUs."""

    QS = [19, 20, 21]
    SMALL_BLOCK = 5000      # a few rows, and not a whole number of them

    @pytest.fixture(scope="class", params=[(512, 1), (1024, 1), (512, 2)])
    def whole_grid(self, request, params, target):
        steps, n_cycles = request.param
        cfg = OracleConfig(steps_per_period=steps, n_cycles=n_cycles)
        return cfg, *half_period_rows(params, target, cfg)

    @staticmethod
    def on_whole_grid(monkeypatch, tr, rows):
        """Make the oracle take its tau sums from the whole-grid rows."""
        def tau_sums(p, tgt, cfg, weight=None):
            return tr, (rows if weight is None else rows * weight).sum(axis=-1)
        monkeypatch.setattr(oracle, "_tau_sums", tau_sums)

    def assert_direct_bytes(self, params, target, whole_grid, monkeypatch):
        cfg, tr, rows = whole_grid
        got = direct_dipole(params, target, cfg, self.QS)
        self.on_whole_grid(monkeypatch, tr, rows)
        ref = direct_dipole(params, target, cfg, self.QS)
        assert got.Itotal.tobytes() == ref.Itotal.tobytes()
        for a, b in zip(got.dipoles, ref.dipoles):
            assert a.tobytes() == b.tobytes()

    def assert_windowed_bytes(self, params, target, whole_grid, monkeypatch,
                              taper_periods):
        cfg, tr, rows = whole_grid
        band = (0.3 * params.period, 0.9 * params.period)
        taper = taper_periods * params.period
        got = windowed_dipole(params, target, cfg, 20, band, taper=taper)
        self.on_whole_grid(monkeypatch, tr, rows)
        ref = windowed_dipole(params, target, cfg, 20, band, taper=taper)
        assert got.tobytes() == ref.tobytes()

    def test_direct_dipole_bytes(self, params, target, whole_grid, monkeypatch):
        self.assert_direct_bytes(params, target, whole_grid, monkeypatch)

    def test_direct_dipole_bytes_small_block(self, params, target, whole_grid,
                                             monkeypatch):
        monkeypatch.setattr(oracle, "BLOCK_POINTS", self.SMALL_BLOCK)
        self.assert_direct_bytes(params, target, whole_grid, monkeypatch)

    @pytest.mark.parametrize("taper_periods", [0.0, 0.1, 0.4])
    def test_windowed_dipole_bytes(self, params, target, whole_grid,
                                   monkeypatch, taper_periods):
        self.assert_windowed_bytes(params, target, whole_grid, monkeypatch,
                                   taper_periods)

    @pytest.mark.parametrize("taper_periods", [0.0, 0.4])
    def test_windowed_dipole_bytes_small_block(self, params, target, whole_grid,
                                               monkeypatch, taper_periods):
        monkeypatch.setattr(oracle, "BLOCK_POINTS", self.SMALL_BLOCK)
        self.assert_windowed_bytes(params, target, whole_grid, monkeypatch,
                                   taper_periods)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("block", [None, SMALL_BLOCK],
                             ids=["default-block", "small-block"])
    def test_direct_dipole_bytes_on_usable_cpus(self, params, target, whole_grid,
                                                monkeypatch, cpus, block):
        # each thread sums a contiguous range of whole tr rows
        usable_cpus(monkeypatch, cpus)
        if block:
            monkeypatch.setattr(oracle, "BLOCK_POINTS", block)
        threads = threading.active_count()
        self.assert_direct_bytes(params, target, whole_grid, monkeypatch)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("block", [None, SMALL_BLOCK],
                             ids=["default-block", "small-block"])
    @pytest.mark.parametrize("taper_periods", [0.0, 0.4])
    def test_windowed_dipole_bytes_on_usable_cpus(self, params, target, whole_grid,
                                                  monkeypatch, cpus, block,
                                                  taper_periods):
        usable_cpus(monkeypatch, cpus)
        if block:
            monkeypatch.setattr(oracle, "BLOCK_POINTS", block)
        threads = threading.active_count()
        self.assert_windowed_bytes(params, target, whole_grid, monkeypatch,
                                   taper_periods)
        assert threading.active_count() == threads

    @staticmethod
    def peak_bytes(params, target):
        """tracemalloc's peak over one direct_dipole call at T/1024."""
        tracemalloc.start()
        try:
            direct_dipole(params, target, OracleConfig(steps_per_period=1024),
                          [20])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_bounded_by_the_block(self, params, target):
        # the whole grid at T/1024 would hold about 150 MB of temporaries
        assert self.peak_bytes(params, target) < 16e6

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_memory_bounded_by_the_block_on_usable_cpus(self, params, target,
                                                        monkeypatch, cpus):
        # the blocks of all threads in flight together hold BLOCK_POINTS
        # points, so k threads take about the memory of one (a whole block
        # per thread took 2x and 3.3x at 2 and 4 CPUs)
        with monkeypatch.context() as mp:
            usable_cpus(mp, 1)
            alone = self.peak_bytes(params, target)
        usable_cpus(monkeypatch, cpus)
        peak = self.peak_bytes(params, target)
        assert peak < 16e6 and peak < 1.25 * alone


class TestThreads:
    """No thread outlives an oracle call, and an error in any of them
    reaches the caller."""

    @staticmethod
    def raising_dme(monkeypatch, where):
        """Make dme raise PoleError naming its thread, in the threads
        ``where`` accepts."""
        def pole(*args, **kwargs):
            here = threading.current_thread()
            if where(here):
                raise PoleError(f"pole in {here.name}")
            return dme(*args, **kwargs)

        monkeypatch.setattr(oracle, "dme", pole)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_worker_error_reaches_the_caller(self, params, target, monkeypatch,
                                             cpus):
        usable_cpus(monkeypatch, cpus)
        self.raising_dme(monkeypatch, lambda t: t is not threading.main_thread())
        threads = threading.active_count()
        with pytest.raises(PoleError, match="pole in"):
            direct_dipole(params, target, CFG, [20])
        assert threading.active_count() == threads

    def test_lowest_range_error_wins(self, params, target, monkeypatch):
        # the calling thread sums range 0, so its error is the one raised
        usable_cpus(monkeypatch, 3)
        self.raising_dme(monkeypatch, lambda t: True)
        threads = threading.active_count()
        with pytest.raises(PoleError, match=threading.main_thread().name):
            windowed_dipole(params, target, CFG, 20, (0.0, params.period))
        assert threading.active_count() == threads

    def test_calling_thread_interrupt_joins_the_workers(self, params, target,
                                                        monkeypatch):
        # a BaseException that is not an Exception, raised in range 0 while
        # the workers still sum theirs, leaves no worker behind
        class Interrupt(BaseException):
            pass

        def interrupt(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                raise Interrupt
            return dme(*args, **kwargs)

        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(oracle, "dme", interrupt)
        threads = threading.active_count()
        with pytest.raises(Interrupt):
            direct_dipole(params, target, CFG, [20])
        assert threading.active_count() == threads

    def test_rows_survive_frequent_thread_switches(self, params, target,
                                                   monkeypatch):
        # more threads than cores, switching every microsecond, each writing
        # its rows of one shared array: a lost or misplaced row write would
        # change the bytes
        qs = TestBlockedGrid.QS
        usable_cpus(monkeypatch, 1)
        ref = direct_dipole(params, target, CFG, qs)
        usable_cpus(monkeypatch, 8)
        monkeypatch.setattr(oracle, "BLOCK_POINTS", TestBlockedGrid.SMALL_BLOCK)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = direct_dipole(params, target, CFG, qs)
        finally:
            sys.setswitchinterval(interval)
        assert np.array(got.dipoles).tobytes() == np.array(ref.dipoles).tobytes()

    def test_one_usable_cpu_starts_no_thread(self, params, target, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(threading, "Thread", refuse)
        direct_dipole(params, target, CFG, [20])

    def test_newton_run_still_forks_after_a_threaded_call(self, params, target,
                                                          monkeypatch):
        # _forked_newton_batch forks only while no other thread is alive
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        usable_cpus(monkeypatch, 2)
        direct_dipole(params, target, CFG, [20])
        assert all(saddle.solve_cycles(target, [(params, q) for q in (24, 25)]))
        assert_no_child_left()
        assert len(forks) == 1


# (phi, R) of the half-period checks: a benchmark field whose q = 22
# selection rule the full-period sums broke by round-off, the NORM_FIELDS
# and two highly bichromatic fields
MIRROR_FIELDS = ((5.805, 0.091), *NORM_FIELDS, (0.0, 0.5), (1.0, 1.0))


class TestHalfPeriodMirror:
    """t -> t + T/2 maps (Ex, Ey) to (-Ex, Ey): the oracle integrates the
    first half period and adds the second through that symmetry."""

    @pytest.mark.parametrize("steps", [512, 1024])
    def test_forbidden_components_exactly_zero(self, target, steps):
        p = FieldParams.from_ratio(E1, OMEGA, 0.0910, 5.805)
        spec = direct_dipole(p, target, OracleConfig(steps_per_period=steps),
                             np.arange(15, 28))
        odd = spec.qs % 2 == 1
        assert np.all(spec.Ix[~odd] == 0.0) and np.all(spec.Iy[odd] == 0.0)
        assert np.all(spec.Ix[odd] > 0.0) and np.all(spec.Iy[~odd] > 0.0)

    @pytest.mark.parametrize("taper_periods", [0.0, 0.4])
    def test_windowed_forbidden_components_exactly_zero(self, target,
                                                        taper_periods):
        p = FieldParams.from_ratio(E1, OMEGA, 0.0910, 5.805)
        band = (0.65 * p.period, CFG.tau_max_periods * p.period)
        for q in (21, 22):
            d = windowed_dipole(p, target, CFG, q, band,
                                taper=taper_periods * p.period)
            assert d[q % 2] == 0.0 and d[1 - q % 2] != 0.0

    @pytest.mark.parametrize("steps", [512, 1024])
    @pytest.mark.parametrize("phi, ratio", MIRROR_FIELDS)
    def test_matches_the_full_period_sums(self, target, phi, ratio, steps):
        # the full-period sums differ only by their round-off, of which the
        # forbidden component is the visible part; relative to its own order
        # the allowed component moves by up to 1.04e-6 (q = 22 at
        # (5.805, 0.091), T/1024, where the order's dipole is small)
        p = FieldParams.from_ratio(E1, OMEGA, ratio, phi)
        cfg = OracleConfig(steps_per_period=steps)
        qs = np.arange(12, 36)
        old = full_period_dipoles(p, target, cfg, qs)
        new = np.array(direct_dipole(p, target, cfg, qs).dipoles)
        assert np.max(np.abs(new - old)) <= 2e-8 * np.max(np.abs(old))
        allowed = np.arange(qs.size), 1 - qs.astype(int) % 2
        rel = (np.abs(new[allowed] - old[allowed])
               / np.linalg.norm(old, axis=1))
        assert np.max(rel) <= 2e-6

    @pytest.mark.parametrize("n_cycles", [1, 2, 3])
    def test_non_integer_orders(self, params, target, n_cycles):
        # off-integer q takes the factors e^{i pi q} (second half period)
        # and the closed-form cycle sum, where neither is exact
        cfg = OracleConfig(n_cycles=n_cycles)
        qs = [19.5, 20.25, 20.999]
        old = full_period_dipoles(params, target, cfg, qs)
        new = np.array([windowed_dipole(params, target, cfg, q,
                                        (0.0, cfg.tau_max_periods * params.period))
                        for q in qs])
        assert np.max(np.abs(new - old)) <= 1e-8 * np.max(np.abs(old))
        spec = direct_dipole(params, target, cfg, qs)
        assert np.array(spec.dipoles).tobytes() == new.tobytes()


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

    @pytest.mark.parametrize("taper", [np.nan, np.inf])
    def test_non_finite_taper_rejected(self, params, target, taper):
        # a NaN or infinite taper gave NaN weights without a warning
        with pytest.raises(ValueError, match="taper width"):
            windowed_dipole(params, target, CFG, 20, (0.0, 0.5), taper=taper)

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
                        contribution(target, sp, lab).total)
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
