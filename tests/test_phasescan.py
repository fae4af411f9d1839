"""Relative-phase scans, Fourier modulation fits, modality classification."""

import numpy as np
import pytest

from twocolor_hhg import (BranchLostError, ClassificationRefusedError,
                          IllConditionedFitError, NoConvergenceError,
                          NonFiniteSampleError, PoleError, align_shift,
                          classify_modality, fourier_fit, harmonic_dipole,
                          phasescan, run_scan)
from twocolor_hhg.taxonomy import amplitude


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


class TestNonFiniteSamples:
    """A NaN (a failed scan cell) or infinity is refused, not fitted."""

    @pytest.fixture(params=[np.nan, np.inf], ids=["nan", "inf"])
    def bad(self, request):
        y = 1.0 + 0.3 * np.cos(2 * GRID64)
        y[5] = request.param
        return y

    def test_fourier_fit(self, bad):
        with pytest.raises(NonFiniteSampleError, match="1 of 64 series"):
            fourier_fit(bad, GRID64)

    def test_align_shift(self, bad):
        fit = fourier_fit(1.0 + 0.3 * np.cos(2 * GRID64), GRID64)
        with pytest.raises(NonFiniteSampleError, match="1 of 64 series"):
            align_shift(fit, bad, GRID64)

    def test_classify_modality(self, bad):
        with pytest.raises(NonFiniteSampleError, match="1 of 64 series"):
            classify_modality(bad, GRID64)

    def test_phase_grid(self):
        grid = GRID64.copy()
        grid[3] = np.nan
        with pytest.raises(NonFiniteSampleError, match="1 of 64 phase grid"):
            fourier_fit(np.cos(2 * GRID64), grid)


class TestCoarseShiftSearch:
    def test_matches_direct_model_evaluation(self, monkeypatch):
        # the coarse tau grid's argmin is the one the model evaluated at
        # every (tau, phi) point gives, for shifted noisy bimodal series
        # (the bounded refinement starts from it)
        from dataclasses import replace
        import scipy.optimize

        starts = []
        real = scipy.optimize.minimize_scalar

        def spy(f, bounds, **kwargs):
            starts.append(bounds[0] + phasescan.TAU_GRID_STEP)
            return real(f, bounds=bounds, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize_scalar", spy)
        rng = np.random.default_rng(4)
        y = 1.0 + 0.2 * np.cos(2 * GRID64) + 0.3 * np.sin(GRID64) + 0.6 * np.cos(4 * GRID64)
        fit = fourier_fit(y, GRID64)
        taus = np.arange(0.0, 2.0 * np.pi, phasescan.TAU_GRID_STEP)
        for _ in range(20):
            tau = 2.0 * np.pi * rng.random()
            measured = (fit.evaluate(GRID64 - tau)
                        * (1.0 + 0.01 * rng.standard_normal(64)))
            model = replace(fit, tau=0.0).evaluate(GRID64[None, :] - taus[:, None])
            want = taus[np.argmin(((model - measured) ** 2).sum(axis=1))]
            starts.clear()
            align_shift(fit, measured, GRID64)
            assert starts[0] == pytest.approx(want, abs=1e-9)


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
        # only a cell's dipole failure modes (PoleError, CoalescenceError)
        # become gaps; any other error, such as a shape mismatch or a Newton
        # failure that continuation should have returned as a value, must
        # not turn into a silent gap, in the cell or around it
        for exc in (ValueError("operands could not be broadcast together"),
                    NoConvergenceError("no convergence from seed")):
            def broken(*args, **kwargs):
                raise exc

            for name in ("_scan_cell", "harmonic_dipole"):
                with monkeypatch.context() as mp:
                    mp.setattr(phasescan, name, broken)
                    with pytest.raises(type(exc), match=str(exc)):
                        run_scan(params, target, [17], 32)

    def test_partners_share_relevance_in_every_cell(self, params, target,
                                                    monkeypatch):
        # the H14-H27 scan over 32 phases of acceptance criterion 1: in every
        # cell each saddle has its exact t + T/2 image, with the same flag and
        # family, in the other half-cycle
        cells = []

        def recording_dipole(p, tgt, q, labelled, dme_form="paper"):
            cells.append((p.period, labelled))
            return harmonic_dipole(p, tgt, q, labelled, dme_form=dme_form)

        monkeypatch.setattr(phasescan, "harmonic_dipole", recording_dipole)
        scan = run_scan(params, target, range(14, 28), 32)
        assert len(cells) == np.count_nonzero(np.isfinite(scan.Itotal[:, :16]))
        for period, labelled in cells:
            labels = {sp.ti: lab for sp, lab in labelled}
            pairs = [(lab, labels[sp.ti + period / 2])
                     for sp, lab in labelled if sp.ti + period / 2 in labels]
            assert 2 * len(pairs) == len(labelled)
            for rep, partner in pairs:
                assert partner.relevant == rep.relevant
                assert partner.family == rep.family
                assert partner.half_cycle == 1 - rep.half_cycle

    def test_comparable_intensities_pair_every_branch(self, params, target):
        # at R = 1.0 continuation carries representatives out of [0, T/2);
        # every axes key still names half-cycle 0 or 1, and each h0 branch
        # has its h1 twin
        scan = run_scan(params.with_ratio(1.0), target, [24], 32)
        ids = {bid for _, bid in scan.axes}
        assert ids
        assert all(bid.startswith(("h0-", "h1-")) for bid in ids)
        assert {bid[3:] for bid in ids if bid.startswith("h0-")} == \
            {bid[3:] for bid in ids if bid.startswith("h1-")}


    def test_continued_branch_is_judged_against_its_own_predecessor(
            self, params, target, monkeypatch):
        # at R = 0.06 a continued branch can lie nearer another branch's
        # predecessor than its own; each one inherits the ban flag of, and
        # compares its amplitude with, the branch it was continued from
        steps, cells = {}, {}
        cont, cell = phasescan.continue_branches, phasescan._scan_cell

        def recording_continue(p, tgt, q, saddles, parameter, to_value):
            steps[(q, to_value)] = cont(p, tgt, q, saddles, parameter, to_value)
            return steps[(q, to_value)]

        def recording_cell(p, tgt, q, reps, *args, **kwargs):
            res = cell(p, tgt, q, reps, *args, **kwargs)
            cells[(q, p.phi)] = (reps, res[-1])
            return res

        monkeypatch.setattr(phasescan, "continue_branches", recording_continue)
        monkeypatch.setattr(phasescan, "_scan_cell", recording_cell)
        scan = run_scan(params.with_ratio(0.06), target, range(14, 22), 32)
        assert len(steps) == 8 * 14     # 16 cells per order, 2 refreshes
        for (q, phi), out in steps.items():
            prev_reps, prev_banned = cells[(q, scan.phis[scan.phis < phi][-1])]
            reps, banned = cells[(q, phi)]
            kept = [(k, sp) for k, sp in enumerate(out)
                    if not isinstance(sp, BranchLostError)]
            assert all(sp is rep for (_, sp), rep in zip(kept, reps))
            assert len(kept) == len(reps)
            for (k, sp), flag in zip(kept, banned):
                grows = (amplitude(sp) > phasescan.PHI_GROWTH_FACTOR
                         * amplitude(prev_reps[k]))
                assert flag == (prev_banned[k] or grows), (q, phi, k)


class TestFailedCell:
    """A cell whose dipole fails mid-segment is a gap; the sweep continues
    from that cell's orbits, so every other cell is that of the unpatched
    scan."""

    FAILED = 3          # not a refresh cell; the segment runs to cell 8

    def test_gap_and_nothing_else_changes(self, params, target, monkeypatch):
        step = 2.0 * np.pi / 64
        failed = []

        def failing_dipole(p, tgt, q, labelled, dme_form="paper"):
            if round(p.phi / step) == self.FAILED and not failed:
                failed.append(p.phi)
                raise PoleError("injected pole")
            return harmonic_dipole(p, tgt, q, labelled, dme_form=dme_form)

        ref = run_scan(params, target, [24], 64)
        monkeypatch.setattr(phasescan, "harmonic_dipole", failing_dipole)
        got = run_scan(params, target, [24], 64)
        gap = (24.0, failed[0], "injected pole")
        assert [g for g in got.gaps if g != gap] == list(ref.gaps)
        assert got.gaps.count(gap) == 1
        lost = [self.FAILED, self.FAILED + 32]
        same = [j for j in range(64) if j not in lost]
        for name in ("Ix", "Iy", "Itotal"):
            a, b = getattr(got, name)[0], getattr(ref, name)[0]
            assert np.isnan(a[lost]).all()
            assert a[same].tobytes() == b[same].tobytes()
