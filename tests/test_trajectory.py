"""Real-space displacement orbits and their half-cycle symmetry."""

import numpy as np
import pytest

from twocolor_hhg import closure_defect, displacement, solve_cycle

from conftest import relevant


class TestDisplacement:
    def test_sample_endpoints(self, params, plateau_orbits):
        sp, lab = relevant(plateau_orbits.by_q[24])[0]
        orb = displacement(params, sp, n_samples=64, label=lab)
        assert orb.t[0] == pytest.approx(sp.ti.real)
        assert orb.t[-1] == pytest.approx(sp.tr.real)
        assert orb.sx.shape == orb.t.shape == orb.sy.shape

    def test_minimum_samples(self, params, plateau_orbits):
        sp, _ = relevant(plateau_orbits.by_q[24])[0]
        with pytest.raises(ValueError):
            displacement(params, sp, n_samples=8)

    def test_closure_defect_zero(self, params, plateau_orbits):
        for q in (20, 24, 25):
            for sp, _ in relevant(plateau_orbits.by_q[q]):
                assert closure_defect(params, sp) < 1e-10

    def test_monochromatic_no_y_motion(self, mono, target):
        for sp in solve_cycle(mono, target, 21):
            orb = displacement(mono, sp, n_samples=64)
            assert np.max(np.abs(orb.sy)) == 0.0

    def test_short_orbit_excursion_scale(self, params, plateau_orbits):
        # dominant short orbits of the H24/H25 plateau region reach
        # |sx| ~ 13 a.u. and sy ~ 4.5 a.u.
        for q in (24, 25):
            pair = [t for t in relevant(plateau_orbits.by_q[q])
                    if t[1].family == "short"]
            for sp, lab in pair:
                orb = displacement(params, sp, n_samples=512, label=lab)
                assert 9.0 <= np.max(np.abs(orb.sx)) <= 17.0
                assert 3.5 <= np.max(orb.sy) <= 6.5

    def test_half_cycle_partner_orbit_flipped(self, params, plateau_orbits):
        # partner orbit = diag(-1, 1) x first orbit, shifted by T/2
        half = params.period / 2
        for q in (24, 25):
            pair = sorted((t for t in relevant(plateau_orbits.by_q[q])
                           if t[1].family == "short"),
                          key=lambda t: t[0].ti.real)
            (sa, la), (sb, lb) = pair
            oa = displacement(params, sa, n_samples=128, label=la)
            ob = displacement(params, sb, n_samples=128, label=lb)
            assert np.max(np.abs(ob.t - (oa.t + half))) < 1e-8
            assert np.max(np.abs(ob.sx + oa.sx)) < 1e-8
            assert np.max(np.abs(ob.sy - oa.sy)) < 1e-8
