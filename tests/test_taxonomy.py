"""Orbit labelling, branch tracking, relevance selection, cutoff flag."""

from dataclasses import replace

import numpy as np
import pytest

from twocolor_hhg import (SaddlePoint, classify, find_cutoff, relevance_mask,
                          saddle, solve_cycle, taxonomy, track_branches)
from twocolor_hhg.dipole import build_history
from twocolor_hhg.saddle import solve_seeds


class TestClassify:
    def test_empty(self, params):
        assert classify(params, []) == []

    def test_mono_short_long_per_half_cycle(self, mono, target):
        sads = solve_cycle(mono, target, 21)
        labelled = classify(mono, sads)
        fams = sorted((lab.half_cycle, lab.family) for _, lab in labelled)
        assert fams == [(0, "long"), (0, "short"), (1, "long"), (1, "short")]

    def test_families_ordered_by_excursion(self, mono, target):
        sads = solve_cycle(mono, target, 21)
        for sp, lab in classify(mono, sads):
            assert lab.excursion == pytest.approx(sp.excursion)
        by_half = {}
        for sp, lab in classify(mono, sads):
            by_half.setdefault(lab.half_cycle, {})[lab.family] = sp.excursion
        for fams in by_half.values():
            assert fams["short"] < fams["long"]

    def test_branch_id_format(self, mono, target):
        sads = solve_cycle(mono, target, 21)
        ids = {lab.branch_id for _, lab in classify(mono, sads)}
        assert ids == {"h0-short", "h0-long", "h1-short", "h1-long"}

    def test_output_sorted_like_input(self, params, target):
        sads = solve_cycle(params, target, 20)
        labelled = classify(params, sads)
        for sp, (sp2, _) in zip(sads, labelled):
            assert sp is sp2

    def test_irrelevant_saddles_keep_extra_numbering(self, params, target):
        # with a relevance mask, short/long go to relevant orbits only and
        # the rest get extra-k names starting past the reserved slots
        sads = solve_cycle(params, target, 20)
        mask = [False] * (len(sads) // 2)
        labelled = classify(params, sads, relevant_mask=mask)
        for _, lab in labelled:
            assert lab.family.startswith("extra-")
            assert int(lab.family.split("-")[1]) >= 3


class TestTrackBranches:
    def test_histories_are_continuous(self, mono, target):
        per_q = {q: solve_cycle(mono, target, q) for q in range(19, 25)}
        assignment, history = track_branches(per_q, mono.period)
        for q, sads in per_q.items():
            assert len(assignment[q]) == len(sads)
        # the four principal branches persist through the whole window
        spans = sorted(len(v) for v in history.values())
        assert spans[-4:] == [6, 6, 6, 6]

    def test_branch_entries_move_slowly(self, mono, target):
        per_q = {q: solve_cycle(mono, target, q) for q in range(19, 25)}
        _, history = track_branches(per_q, mono.period)
        for entries in history.values():
            for (qa, a), (qb, b) in zip(entries, entries[1:]):
                assert qb - qa == 1
                assert abs(a.ti - b.ti) + abs(a.tr - b.tr) < 0.12 * mono.period


class TestRelevance:
    def test_plateau_all_principal_relevant(self, wide_orbits):
        rel = sorted((lab.half_cycle, lab.family)
                     for _, lab in wide_orbits.by_q[20] if lab.relevant)
        assert rel == [(0, "long"), (0, "short"), (1, "long"), (1, "short")]

    def test_mono_beyond_cutoff_short_discarded(self, mono, mono_orbits):
        # identify the short/long branches by their plateau labels, then
        # check that past the cutoff the short continuation is dropped and
        # the long one kept (branch identity, not the degenerate post-cutoff
        # excursion ordering)
        by_q = mono_orbits.by_q
        assignment, _ = track_branches(
            {q: [sp for sp, _ in labelled] for q, labelled in by_q.items()},
            mono.period)
        fam_key = {}
        for (sp, lab), key in zip(by_q[25], assignment[25]):
            if lab.relevant and lab.half_cycle == 0:
                fam_key[lab.family] = key
        assert set(fam_key) == {"short", "long"}
        key_to_mask = {key: lab.relevant
                       for (_, lab), key in zip(by_q[35], assignment[35])}
        assert key_to_mask[fam_key["short"]] == False  # noqa: E712
        assert key_to_mask[fam_key["long"]] == True    # noqa: E712
        assert any(line.startswith("q=35.0 ") and "closest approach" in line
                   for line in mono_orbits.audit)

    def test_negative_im_ti_irrelevant(self, params, target):
        sads = solve_cycle(params, target, 20)
        bad = replace(sads[0], ti=sads[0].ti.conjugate(), residual=0.0)
        mask = relevance_mask(params, target, 20, [bad])
        assert not mask[0]

    def test_partner_symmetry(self, params, wide_orbits):
        half = params.period / 2
        for q in (18, 22, 26):
            labelled = wide_orbits.by_q[q]
            for sp, lab in labelled:
                for other, other_lab in labelled:
                    d = min(abs(other.ti - sp.ti - s) + abs(other.tr - sp.tr - s)
                            for s in (half, -half))
                    if d < 1e-6 * half:
                        assert lab.relevant == other_lab.relevant

    def test_audit_lines_have_reasons(self, wide_orbits):
        audit = [line for line in wide_orbits.audit if line.startswith("q=20.0 ")]
        assert audit
        for line in audit:
            assert "discarded" in line


class TestFindCutoff:
    def test_mono_flag_near_cutoff(self, mono, target):
        _, _, history = build_history(mono, target, np.arange(20, 39))
        hit = find_cutoff(history, mono.period)
        assert hit is not None
        q_c, d_min = hit
        assert 29 <= q_c <= 33
        assert d_min < 0.1 * mono.period

    def test_no_flag_inside_plateau(self, params, target):
        per_q, _, history = build_history(params, target, np.arange(18, 23))
        assert find_cutoff(history, params.period) is None


class TestGrowthSlope:
    """relevance_mask's growth slope is the exact d ln|e^{iS}|/dq = -w Im(tr)."""

    CASES = [(0.0, 0.12, 20), (0.7, 0.06, 26), (2.1, 0.18, 31)]

    @pytest.mark.parametrize("phi,ratio,q", CASES)
    def test_matches_centred_difference(self, params, target, phi, ratio, q):
        p = params.with_ratio(ratio).with_phi(phi)
        sads = solve_cycle(p, target, q)
        reps = sads[:len(sads) // 2]
        assert reps
        h = 1e-3
        for sp in reps:
            lo, hi = solve_seeds(p, target, [q - h, q + h], [sp.ti] * 2, [sp.tr] * 2)
            assert isinstance(lo, SaddlePoint) and isinstance(hi, SaddlePoint)
            centred = (lo.action.imag - hi.action.imag) / (2 * h)
            assert abs(-p.omega * sp.tr.imag - centred) < 1e-7

    @pytest.mark.parametrize("phi,ratio,q", CASES)
    def test_audit_quotes_the_exact_slope(self, params, target, monkeypatch,
                                          phi, ratio, q):
        # with the growth bound at -inf, every saddle that reaches the
        # growth rule is discarded by it and its audit line quotes the slope
        p = params.with_ratio(ratio).with_phi(phi)
        sads = solve_cycle(p, target, q)
        reps = sads[:len(sads) // 2]
        monkeypatch.setattr(taxonomy, "GROWTH_LOG_SLOPE", -np.inf)
        audit = []
        relevance_mask(p, target, q, reps, audit=audit)
        quoted = [line for line in audit if "grows with order" in line]
        assert quoted
        for line in quoted:
            sp = next(s for s in reps if f"ti={s.ti:.3f}:" in line)
            assert f"(log-slope {-p.omega * sp.tr.imag:.2f})" in line


class TestNoNewtonSolves:
    def _forbid_newton(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("relevance_mask started a Newton solve")
        monkeypatch.setattr(saddle, "_newton_batch", refuse)

    def test_without_history(self, params, target, monkeypatch):
        sads = solve_cycle(params, target, 27)
        self._forbid_newton(monkeypatch)
        mask = relevance_mask(params, target, 27, sads[:len(sads) // 2])
        assert mask.any()

    def test_with_history(self, params, target, monkeypatch):
        per_q, assignment, history = build_history(params, target, np.arange(20, 30))
        self._forbid_newton(monkeypatch)
        n = len(per_q[24]) // 2
        mask = relevance_mask(params, target, 24, per_q[24][:n], history=history,
                              keys=assignment[24][:n])
        assert mask.any()
