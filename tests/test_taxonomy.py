"""Orbit labelling, branch tracking, relevance selection, cutoff flag."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from twocolor_hhg import (SaddlePoint, classify, dipole, find_cutoff,
                          relevance_mask, saddle, solve_cycle, spectrum,
                          taxonomy, track_branches)
from twocolor_hhg.dipole import build_history
from twocolor_hhg.saddle import solve_seeds

# (phi, R) of five fields across the ratio range
FIELDS = [(0.0, 0.12), (0.7, 0.06), (2.1, 0.18), (0.0, 1.0), (np.pi / 2, 0.5)]


def representatives(p, tgt, q):
    """The representatives of order q, as the pipelines carry them."""
    return saddle.solve_cycles(tgt, [(p, q)])[0]


class TestClassify:
    def test_empty(self, params):
        assert classify(params, []) == []

    def test_mono_short_long_per_half_cycle(self, mono, target):
        labelled = classify(mono, representatives(mono, target, 21))
        fams = sorted((lab.half_cycle, lab.family) for _, lab in labelled)
        assert fams == [(0, "long"), (0, "short"), (1, "long"), (1, "short")]

    def test_families_ordered_by_excursion(self, mono, target):
        by_half = {}
        for sp, lab in classify(mono, representatives(mono, target, 21)):
            by_half.setdefault(lab.half_cycle, {})[lab.family] = sp.excursion
        for fams in by_half.values():
            assert fams["short"] < fams["long"]

    def test_branch_id_format(self, mono, target):
        ids = {lab.branch_id for _, lab in classify(mono, representatives(mono, target, 21))}
        assert ids == {"h0-short", "h0-long", "h1-short", "h1-long"}

    def test_output_sorted_like_input(self, params, target):
        # the representatives come back as they were given, and the
        # partners as solve_cycle builds them, both in solve_cycle's order
        sads = solve_cycle(params, target, 20)
        reps = sads[:len(sads) // 2]
        labelled = classify(params, reps)
        assert len(labelled) == len(sads)
        for sp, (sp2, _) in zip(sads, labelled):
            assert (sp2.ti, sp2.tr, sp2.action) == (sp.ti, sp.tr, sp.action)
        assert all(sp is sp2 for sp, (sp2, _) in zip(reps, labelled))

    def test_irrelevant_saddles_keep_extra_numbering(self, params, target):
        # with a relevance mask, short/long go to relevant orbits only and
        # the rest get extra-k names starting past the reserved slots
        reps = representatives(params, target, 20)
        labelled = classify(params, reps, relevant_mask=[False] * len(reps))
        for _, lab in labelled:
            assert lab.family.startswith("extra-")
            assert int(lab.family.split("-")[1]) >= 3


class TestTrackBranches:
    def test_histories_are_continuous(self, mono, target):
        per_q, history = build_history(mono, target, np.arange(19, 25))
        for q, reps in per_q.items():
            assert len(history.assignment[q]) == len(reps)
        # the two principal branches (each with its partner) persist
        # through the whole window
        spans = sorted(len(v) for v in history.branches.values())
        assert spans[-2:] == [6, 6]

    def test_branch_entries_move_slowly(self, mono, target):
        # one unit step in q moves a branch by under 0.12 T modulo T/2
        _, history = build_history(mono, target, np.arange(19, 25))
        for entries in history.branches.values():
            for (qa, a), (qb, b) in zip(entries, entries[1:]):
                assert qb - qa == 1
                dist = saddle._fold_distance(a.ti - b.ti, a.tr - b.tr, mono.period)[1]
                assert dist < 0.12 * mono.period

    def test_history_holds_representatives_only(self, params, target):
        # every entry lies in the first half-cycle: a branch is an orbit
        # and its partner at once
        half = 0.5 * params.period
        for phi, ratio in FIELDS:
            p = params.with_ratio(ratio).with_phi(phi)
            _, history = build_history(p, target, np.arange(24, 30))
            entries = [sp for branch in history.branches.values() for _, sp in branch]
            assert entries
            assert all(0.0 <= sp.ti.real < half for sp in entries)

    def test_orbit_crossing_re_ti_zero_is_one_branch(self, params, target):
        # at (pi/2, 0.5) the orbit ti = 0.33 + 18.1i at q = 30 crosses
        # Re ti = 0 (= T) after q = 31; modulo T/2 its branch runs on as its
        # partner's image over all nine orders
        p = params.with_ratio(0.5).with_phi(np.pi / 2)
        per_q, history = build_history(p, target, np.arange(30, 39))
        (i,) = [i for i, sp in enumerate(per_q[30])
                if abs(sp.ti - (0.33 + 18.1j)) < 0.05]
        branch = history.branches[history.assignment[30][i]]
        assert [q for q, _ in branch] == list(range(30, 39))


class TestMatchBranches:
    PERIOD = 100.0
    TOL = taxonomy.MATCH_TOL_PERIODS * PERIOD

    @staticmethod
    def stubs(*tis, excursion=40.0):
        """Stub saddles at the given ti, each returning ``excursion`` later."""
        return [SimpleNamespace(ti=complex(ti), tr=complex(ti) + excursion)
                for ti in tis]

    def match(self, prev, reps):
        return taxonomy.match_branches(prev, reps, self.PERIOD).tolist()

    def test_nearer_representative_takes_a_shared_predecessor(self):
        # both lie nearest the predecessor at 10; the nearer one takes it and
        # the other its next candidate within tolerance (distances count
        # d ti and d tr, here twice |d ti|)
        prev = self.stubs(10 + 5j, 14 + 5j)
        assert self.match(prev, self.stubs(10.5 + 5j, 10.2 + 5j)) == [1, 0]
        # ... or no predecessor when none is left within tolerance
        assert self.match(prev[:1], self.stubs(10.5 + 5j, 10.2 + 5j)) == [-1, 0]

    def test_tolerance_is_inclusive(self):
        prev = self.stubs(0j, excursion=0.0)
        at = [SimpleNamespace(ti=complex(self.TOL / 2), tr=complex(self.TOL / 2))]
        past = np.nextafter(self.TOL / 2, np.inf)
        beyond = [SimpleNamespace(ti=complex(past), tr=complex(past))]
        assert self.match(prev, at) == [0]
        assert self.match(prev, beyond) == [-1]

    def test_matches_modulo_half_a_period(self):
        half = 0.5 * self.PERIOD
        prev = self.stubs(10 + 5j)
        # the partner image T/2 on
        assert self.match(prev, self.stubs(10.1 + half + 5j)) == [0]
        # a pair on either side of Re ti = 0, and the first-half-cycle image
        # of the one below it
        prev = self.stubs(0.2 + 5j)
        assert self.match(prev, self.stubs(-0.3 + 5j)) == [0]
        assert self.match(prev, self.stubs(half - 0.3 + 5j)) == [0]


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
        by_q = {q: [(sp, lab) for sp, lab in labelled if lab.half_cycle == 0]
                for q, labelled in mono_orbits.by_q.items()}
        assignment = track_branches(
            {q: [sp for sp, _ in reps] for q, reps in by_q.items()},
            mono.period).assignment
        fam_key = {}
        for (sp, lab), key in zip(by_q[25], assignment[25]):
            if lab.relevant:
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
        _, history = build_history(mono, target, np.arange(20, 39))
        hit = find_cutoff(history)
        assert hit is not None
        q_c, d_min = hit
        assert 29 <= q_c <= 33
        assert d_min < 0.1 * mono.period

    def test_no_flag_inside_plateau(self, params, target):
        _, history = build_history(params, target, np.arange(18, 23))
        assert find_cutoff(history) is None


class TestCloseApproaches:
    def test_found_once_per_history(self, params, target, monkeypatch):
        # one spectrum tracks one branch history and searches each pair of
        # its branches once, however many orders judge the pair rule
        histories, calls = [], []
        track, closest = taxonomy.track_branches, taxonomy.closest_approach

        def tracked(per_q, period):
            histories.append(track(per_q, period))
            return histories[-1]

        def counted(entry_a, entry_b, period):
            calls.append(1)
            return closest(entry_a, entry_b, period)

        monkeypatch.setattr(dipole, "track_branches", tracked)
        monkeypatch.setattr(taxonomy, "closest_approach", counted)
        spec = spectrum(params, target, np.arange(12, 36))
        (history,) = histories
        n = len(history.branches)
        assert len(calls) == n * (n - 1) // 2
        assert history.approaches
        assert any("closest approach" in line for line in spec.audit)

    PERIOD = 100.0      # far above every distance, so no pair is folded

    @staticmethod
    def two_branches(distances):
        """Branch histories over q = 1, 2, ... whose ti (and tr) lie
        ``distances`` apart."""
        qs = range(1, len(distances) + 1)
        return ([(q, SimpleNamespace(ti=0j, tr=0j)) for q in qs],
                [(q, SimpleNamespace(ti=complex(d), tr=complex(d)))
                 for q, d in zip(qs, distances)])

    @pytest.mark.parametrize("distances, hit", [
        ([0.5, 0.05, 0.5], (2, 0.05)),
        ([0.05, 0.5], None),                    # under three common orders
    ])
    def test_global_minimum_if_interior(self, distances, hit):
        assert taxonomy.closest_approach(*self.two_branches(distances),
                                         self.PERIOD) == hit

    @pytest.mark.xfail(strict=True, reason=(
        "closest_approach returns None when the global minimum of |d ti| "
        "lies at an end of the common support, so this interior local "
        "minimum is missed (ROADMAP item 10)"))
    def test_interior_local_minimum(self):
        a, b = self.two_branches([0.01, 0.5, 0.05, 0.5, 0.6])
        assert taxonomy.closest_approach(a, b, self.PERIOD) == (3, 0.05)


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
            lo, hi = solve_seeds(p, target, [q - h, q + h], p.phi, [sp.ti] * 2,
                                [sp.tr] * 2)
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
        per_q, history = build_history(params, target, np.arange(20, 30))
        self._forbid_newton(monkeypatch)
        mask = relevance_mask(params, target, 24, per_q[24], history=history)
        assert mask.any()
