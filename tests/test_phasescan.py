"""Relative-phase scans, Fourier modulation fits, modality classification."""

import numpy as np
import pytest

from scipy.optimize import brentq

from twocolor_hhg import (BranchLostError, ClassificationRefusedError,
                          IllConditionedFitError, NoConvergenceError,
                          NonFiniteSampleError, PoleError, SamplingError,
                          align_shift, classify_modality, fourier_fit,
                          harmonic_dipole, phasescan, run_scan)
from twocolor_hhg.cli import main, read_table
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
        # (the zooms start from it)
        from dataclasses import replace

        found = []
        real = phasescan._best_shift

        def spy(taus, *args):
            found.append(real(taus, *args))
            return found[-1]

        monkeypatch.setattr(phasescan, "_best_shift", spy)
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
            found.clear()
            align_shift(fit, measured, GRID64)
            assert len(found) == 3
            assert found[0] == pytest.approx(want, abs=1e-9)


class TestShiftAccuracy:
    """The zoomed grid search lands on the least-squares minimum: within
    1e-8 rad of a bounded Brent minimization to 1e-12."""

    SHAPES = {
        "monomodal": 1.0 + 0.3 * np.cos(2 * GRID64),
        "bimodal": 1.0 + 0.2 * np.cos(2 * GRID64) + 0.6 * np.cos(4 * GRID64),
        "bimodal-odd": (1.0 + 0.2 * np.cos(2 * GRID64) + 0.3 * np.sin(GRID64)
                        + 0.6 * np.cos(4 * GRID64)),
    }

    @pytest.mark.parametrize("noise", [0.0, 0.01, 0.05])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_a_tight_minimizer(self, shape, noise):
        from dataclasses import replace
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(7)
        fit = fourier_fit(self.SHAPES[shape], GRID64)
        base = replace(fit, tau=0.0)
        # random shifts, and shifts whose coarse cell or zoom window
        # straddles the 0 / 2 pi wrap
        shifts = [*(2.0 * np.pi * rng.random(8)), 2e-4, 7e-4, 1.3e-3,
                  2.0 * np.pi - 5e-5, 2.0 * np.pi - 3e-4, 2.0 * np.pi - 1.2e-3]
        for shift in shifts:
            measured = (fit.evaluate(GRID64 - shift)
                        * (1.0 + noise * rng.standard_normal(64)))
            tau = align_shift(fit, measured, GRID64)
            assert 0.0 <= tau < 2.0 * np.pi
            ref = minimize_scalar(
                lambda t: float(((base.evaluate(GRID64 - t) - measured) ** 2).sum()),
                bounds=(tau - 2e-3, tau + 2e-3), method="bounded",
                options={"xatol": 1e-12}).x
            assert abs((tau - ref + np.pi) % (2.0 * np.pi) - np.pi) <= 1e-8

    @staticmethod
    def derivative_root(fit, measured, phis, tau):
        """The root next to ``tau`` of sum r dr/dtau, r = the model at
        phi - tau minus the data (brentq to 1e-15)."""
        ks = np.array([1.0, 2.0, 4.0])[:, None]
        a = np.array([fit.a1, fit.a2, fit.a4])[:, None]
        b = np.array([fit.b1, fit.b2, fit.b4])[:, None]

        def slope(t):
            x = ks * (phis - t)
            dr = (ks * (a * np.sin(x) - b * np.cos(x))).sum(axis=0)
            return float((fit.evaluate(phis - t) - measured) @ dr)

        return brentq(slope, tau - 1e-6, tau + 1e-6, xtol=1e-15)

    @pytest.mark.parametrize("noise", [0.0, 0.01, 0.05])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_at_the_root_of_the_derivative(self, shape, noise):
        rng = np.random.default_rng(11)
        fit = fourier_fit(self.SHAPES[shape], GRID64)
        for shift in [*(2.0 * np.pi * rng.random(8)), 2e-4, 2.0 * np.pi - 3e-4]:
            measured = (fit.evaluate(GRID64 - shift)
                        * (1.0 + noise * rng.standard_normal(64)))
            tau = align_shift(fit, measured, GRID64)
            assert abs(tau - self.derivative_root(fit, measured, GRID64, tau)) <= 1e-11

    def test_at_the_root_for_scans_at_two_ratios(self, tmp_path):
        # H24 at R = 0.06 against the fit of H24 at R = 0.18: the misfit is
        # large, so the sum of squares is flat to round-off over ~1e-8 rad
        series = {}
        for ratio in (0.06, 0.18):
            out = tmp_path / str(ratio)
            assert main(["scan", "--q-min", "24", "--q-max", "24", "--n-phi", "64",
                         "--ratio", str(ratio), "--outdir", str(out)]) == 0
            cols = read_table(out / "scan.csv")[1]
            series[ratio] = cols["phi"], cols["Itotal"]
        fit = fourier_fit(series[0.18][1], series[0.18][0])
        phis, measured = series[0.06]
        tau = align_shift(fit, measured, phis)
        assert abs(tau - 1.5171867634) <= 1e-10
        assert abs(tau - self.derivative_root(fit, measured, phis, tau)) <= 1e-11

    @pytest.mark.parametrize("gap", [5e-7, 2e-6])
    def test_minimum_just_below_the_wrap(self, gap):
        # only a minimum within the last zoom step (1e-9) of 2 pi snaps to 0
        fit = fourier_fit(self.SHAPES["monomodal"], GRID64)
        shift = 2.0 * np.pi - gap
        tau = align_shift(fit, fit.evaluate(GRID64 - shift), GRID64)
        assert abs((tau - shift + np.pi / 2) % np.pi - np.pi / 2) <= 1e-8


class TestSampleChecks:
    """One input check for the three phase-series functions."""

    FIT = fourier_fit(1.0 + 0.3 * np.cos(2 * GRID64), GRID64)
    CALLS = {
        "fourier_fit": fourier_fit,
        "align_shift": lambda y, g: align_shift(TestSampleChecks.FIT, y, g),
        "classify_modality": classify_modality,
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_length_mismatch(self, name):
        y = 1.0 + 0.3 * np.cos(2 * GRID64)
        with pytest.raises(ValueError, match="differ in length"):
            self.CALLS[name](y, GRID64[:32])

    @pytest.mark.parametrize("n", [1, 7])
    def test_align_shift_needs_eight_samples(self, n):
        g = 2.0 * np.pi * np.arange(n) / n
        with pytest.raises(SamplingError, match=f"at least 8 points, got {n}"):
            align_shift(self.FIT, 1.0 + 0.3 * np.cos(2 * g), g)


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

        def recording_continue(p, tgt, q, saddles, parameter, to_value, start=None):
            out = cont(p, tgt, q, saddles, parameter, to_value, start=start)
            # one call carries every cell of a phi step, each cell's
            # branches in order: file each result under its (q, phi) cell
            for qk, phi, res in zip(q, to_value, out):
                steps.setdefault((qk, phi), []).append(res)
            return out

        def recording_cell(p, tgt, q, reps, *args, **kwargs):
            res = cell(p, tgt, q, reps, *args, **kwargs)
            cells[(q, p.phi)] = (reps, res[-1])
            return res

        monkeypatch.setattr(phasescan, "continue_branches", recording_continue)
        monkeypatch.setattr(phasescan, "_scan_cell", recording_cell)
        scan = run_scan(params.with_ratio(0.06), target, range(14, 22), 32)
        continued = [(q, phi) for q in scan.qs for j, phi in enumerate(scan.phis[:16])
                     if j % phasescan.REFRESH_EVERY]
        assert sorted(steps) == sorted(continued)
        assert len(steps) == 8 * 14     # 16 cells per order, 2 refreshes
        for (q, phi), out in steps.items():
            prev_reps, prev_banned = cells[(q, scan.phis[scan.phis < phi][-1])]
            reps, banned = cells[(q, phi)]
            assert len(out) == len(prev_reps)
            kept = [(k, sp) for k, sp in enumerate(out)
                    if not isinstance(sp, BranchLostError)]
            assert all(sp is rep for (_, sp), rep in zip(kept, reps))
            assert len(kept) == len(reps)
            for (k, sp), flag in zip(kept, banned):
                grows = (amplitude(sp) > phasescan.PHI_GROWTH_FACTOR
                         * amplitude(prev_reps[k]))
                assert flag == (prev_banned[k] or grows), (q, phi, k)

    def test_one_continuation_per_phi_step(self, params, target, monkeypatch):
        # every order and every refresh segment advances in one call per
        # phi step: REFRESH_EVERY - 1 calls, not one per continued cell
        calls = []
        cont = phasescan.continue_branches

        def counted_continue(*args, **kwargs):
            calls.append(len(args[3]))
            return cont(*args, **kwargs)

        monkeypatch.setattr(phasescan, "continue_branches", counted_continue)
        run_scan(params.with_ratio(0.06), target, range(14, 22), 32)
        assert len(calls) == phasescan.REFRESH_EVERY - 1 == 7
        assert all(calls)


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
