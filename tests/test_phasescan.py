"""Relative-phase scans, Fourier modulation fits, modality classification."""

import numpy as np
import pytest

from twocolor_hhg import (ClassificationRefusedError, IllConditionedFitError,
                          align_shift, classify_modality, fourier_fit,
                          phasescan, run_scan)


GRID64 = 2.0 * np.pi * np.arange(64) / 64


class TestFourierFit:
    def test_pure_cosine(self):
        fit = fourier_fit(2.0 + np.cos(GRID64), GRID64)
        assert fit.a0 == pytest.approx(2.0, abs=1e-10)
        assert fit.a1 == pytest.approx(1.0, abs=1e-10)
        for c in (fit.b1, fit.a2, fit.b2):
            assert abs(c) < 1e-10
        assert fit.rms < 1e-10

    def test_pure_sin2(self):
        fit = fourier_fit(np.sin(2 * GRID64), GRID64)
        assert fit.b2 == pytest.approx(1.0, abs=1e-10)
        for c in (fit.a0, fit.a1, fit.b1, fit.a2):
            assert abs(c) < 1e-10

    def test_bimodal_needs_extension(self):
        y = 1.0 + 0.2 * np.cos(2 * GRID64) + 0.6 * np.cos(4 * GRID64)
        fit = fourier_fit(y, GRID64)
        assert fit.extended
        assert fit.a2 == pytest.approx(0.2, abs=1e-10)
        assert fit.a4 == pytest.approx(0.6, abs=1e-10)
        assert fit.rms < 1e-10

    def test_too_few_points(self):
        g = 2.0 * np.pi * np.arange(4) / 4
        with pytest.raises((ValueError, IllConditionedFitError)):
            fourier_fit(np.cos(g), g)

    def test_evaluate_applies_tau(self):
        from dataclasses import replace
        fit = fourier_fit(np.cos(GRID64), GRID64)
        shifted = replace(fit, tau=0.4)
        assert shifted.evaluate(0.4) == pytest.approx(1.0, abs=1e-10)


class TestAlignShift:
    def test_self_fit(self):
        y = 1.0 + 0.3 * np.cos(2 * GRID64)
        fit = fourier_fit(y, GRID64)
        assert align_shift(fit, y, GRID64) == pytest.approx(0.0, abs=1e-6)

    def test_known_shift(self):
        y = 1.0 + 0.3 * np.cos(2 * GRID64)
        fit = fourier_fit(y, GRID64)
        measured = 1.0 + 0.3 * np.cos(2 * (GRID64 - 0.7))
        tau = align_shift(fit, measured, GRID64)
        # pi-periodic series: tau is recovered modulo pi
        assert min(abs(tau - 0.7), abs(tau - 0.7 - np.pi),
                   abs(tau - 0.7 + np.pi)) < 1e-3

    def test_noisy_shift(self):
        g = np.random.default_rng(21)
        y = 1.0 + 0.3 * np.cos(2 * GRID64)
        fit = fourier_fit(y, GRID64)
        noisy = (1.0 + 0.3 * np.cos(2 * (GRID64 - 0.7))
                 + 0.03 * g.normal(size=64))
        tau = align_shift(fit, noisy, GRID64)
        assert min(abs(tau - 0.7), abs(tau - 0.7 - np.pi),
                   abs(tau - 0.7 + np.pi)) < 0.05

    def test_constant_reference_degenerate(self):
        flat = np.full(64, 2.0)
        fit = fourier_fit(flat, GRID64)
        with pytest.warns(UserWarning, match="degenerate"):
            assert align_shift(fit, flat, GRID64) == 0.0


class TestClassifyModality:
    def test_monomodal(self):
        label, n = classify_modality(1.0 + 0.5 * np.cos(2 * GRID64), GRID64)
        assert label == "monomodal"
        assert n == 1

    def test_bimodal(self):
        y = 1.0 + 0.2 * np.cos(2 * GRID64) + 0.6 * np.cos(4 * GRID64)
        label, n = classify_modality(y, GRID64)
        assert label == "bimodal"
        assert n >= 2

    def test_constant_refused(self):
        with pytest.raises(ClassificationRefusedError):
            classify_modality(np.full(64, 3.0), GRID64)

    def test_non_pi_periodic_refused(self):
        with pytest.raises(ClassificationRefusedError):
            classify_modality(1.0 + 0.5 * np.cos(GRID64), GRID64)


@pytest.fixture(scope="module")
def scan17(params, target):
    return run_scan(params, target, [17], 32)


class TestRunScan:
    def test_minimum_grid_enforced(self, params, target):
        with pytest.raises(ValueError):
            run_scan(params, target, [17], 16)

    def test_pi_periodic(self, scan17):
        s = scan17.series(17)
        assert not np.any(np.isnan(s))
        defect = np.max(np.abs(s - np.roll(s, 16)))
        assert defect < 1e-8 * np.max(s)

    def test_odd_order_carried_by_x(self, scan17):
        assert np.nanmax(scan17.Iy[0] / scan17.Ix[0]) < 1e-12

    def test_axes_tracked_for_principal_orbits(self, scan17):
        bids = {bid for (q, bid) in scan17.axes}
        assert {"h0-short", "h0-long"} <= bids

    def test_unknown_order_rejected(self, scan17):
        with pytest.raises(KeyError):
            scan17.series(23)

    def test_programming_error_in_a_cell_propagates(self, params, target,
                                                    monkeypatch):
        # only a cell's solver failure modes become gaps; any other error,
        # such as a shape mismatch, must not turn into a silent gap
        def broken_cell(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(phasescan, "_scan_cell", broken_cell)
        with pytest.raises(ValueError, match="broadcast"):
            run_scan(params, target, [17], 32)
