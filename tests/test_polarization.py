"""Polarization-ellipse decomposition and signed axis series."""

import numpy as np
import pytest

from twocolor_hhg import (UndefinedEllipseError, classify, contribution,
                          decompose, signed_axes, signed_axis_series)

from conftest import relevant


def short_pair_decompositions(tgt, q, orbits):
    """Ellipses of the two relevant short orbits of order q, by Re(ti)."""
    pair = sorted(((sp, lab) for sp, lab in relevant(orbits.by_q[q])
                   if lab.family == "short"),
                  key=lambda t: t[0].ti.real)
    return [decompose(np.asarray(contribution(tgt, sp, lab).total))
            for sp, lab in pair]


class TestDecompose:
    def test_linear_x(self):
        e = decompose(np.array([1.0, 0.0], dtype=complex))
        assert np.allclose(e.M, [1.0, 0.0])
        assert np.allclose(e.N, 0.0)
        assert e.ellipticity == 0.0

    def test_circular(self):
        e = decompose(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        assert e.ellipticity == pytest.approx(1.0, abs=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(UndefinedEllipseError):
            decompose(np.zeros(2, dtype=complex))

    def test_orthogonality_and_ordering(self):
        g = np.random.default_rng(11)
        for _ in range(50):
            d = g.normal(size=2) + 1j * g.normal(size=2)
            e = decompose(d)
            assert abs(np.dot(e.M, e.N)) < 1e-10 * np.dot(e.M, e.M)
            assert np.linalg.norm(e.M) >= np.linalg.norm(e.N)

    def test_reconstruction(self):
        g = np.random.default_rng(12)
        for _ in range(50):
            d = g.normal(size=2) + 1j * g.normal(size=2)
            e = decompose(d)
            back = np.exp(1j * e.gamma) * (e.M + 1j * e.N)
            assert np.max(np.abs(back - d)) < 1e-10 * np.max(np.abs(d))

    def test_energy_split(self):
        g = np.random.default_rng(13)
        for _ in range(20):
            d = g.normal(size=2) + 1j * g.normal(size=2)
            e = decompose(d)
            lhs = np.dot(e.M, e.M) + np.dot(e.N, e.N)
            rhs = abs(d[0]) ** 2 + abs(d[1]) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_global_phase_invariance(self):
        g = np.random.default_rng(14)
        d = g.normal(size=2) + 1j * g.normal(size=2)
        a = decompose(d)
        for alpha in (0.3, 1.2, 2.9):
            b = decompose(np.exp(1j * alpha) * d)
            assert b.ellipticity == pytest.approx(a.ellipticity, abs=1e-10)
            # M, N agree up to the +-M representative
            same = (np.allclose(b.M, a.M, atol=1e-10)
                    and np.allclose(b.N, a.N, atol=1e-10))
            flipped = (np.allclose(b.M, -a.M, atol=1e-10)
                       and np.allclose(b.N, -a.N, atol=1e-10))
            assert same or flipped
            assert (b.gamma - a.gamma - alpha) % np.pi == pytest.approx(
                0.0, abs=1e-9) or (b.gamma - a.gamma - alpha) % np.pi \
                == pytest.approx(np.pi, abs=1e-9)


class TestOrbitAxes:
    def test_even_q_partner_axes_mirror_in_x(self, params, target,
                                             plateau_orbits):
        # partners: Mx opposite, My equal (up to the +-M representative)
        a, b = short_pair_decompositions(target, 24, plateau_orbits)
        flip = np.array([-a.M[0], a.M[1]])
        d = min(np.max(np.abs(b.M - flip)), np.max(np.abs(b.M + flip)))
        assert d < 1e-8 * np.max(np.abs(a.M))

    def test_odd_q_partner_axes_mirror_in_y(self, params, target,
                                            plateau_orbits):
        a, b = short_pair_decompositions(target, 25, plateau_orbits)
        flip = np.array([a.M[0], -a.M[1]])
        d = min(np.max(np.abs(b.M - flip)), np.max(np.abs(b.M + flip)))
        assert d < 1e-8 * np.max(np.abs(a.M))

    def test_dominant_orbit_ellipticity_small(self, params, target,
                                              plateau_orbits):
        for q in (24, 25):
            a, b = short_pair_decompositions(target, q, plateau_orbits)
            assert a.ellipticity < 0.15
            assert b.ellipticity < 0.15

    def test_mono_axes_along_x(self, mono, target):
        from twocolor_hhg import solve_cycle
        sads = solve_cycle(mono, target, 21)
        labelled = classify(mono, sads)
        for sp, lab in labelled:
            e = decompose(np.asarray(
                contribution(target, sp, lab).total))
            assert abs(e.M[1]) < 1e-12 * abs(e.M[0])


class TestSignedSeries:
    def test_starts_positive_and_stays_continuous(self):
        phis = np.linspace(0.0, np.pi, 40)
        raw = np.stack([-np.cos(phis), -np.sin(phis)], axis=1)
        # randomly pre-flip samples; the signed series must undo this
        g = np.random.default_rng(5)
        flips = g.choice([-1.0, 1.0], size=40)[:, None]
        signed, start = signed_axis_series(raw * flips)
        assert signed[0][0] > 0
        steps = np.linalg.norm(np.diff(signed, axis=0), axis=1)
        assert np.max(steps) < 0.2

    def test_partner_inherits_leading_flip(self):
        phis = np.linspace(0.0, np.pi, 40)
        lead = np.stack([-np.cos(phis), -np.sin(phis)], axis=1)
        partner = np.stack([np.cos(phis), -np.sin(phis)], axis=1)
        ls, ps = signed_axes((lead, partner))
        # mirror symmetry of the pair survives the sign convention
        assert np.allclose(ls[:, 1], ps[:, 1], atol=1e-12) or \
            np.allclose(ls[:, 1], -ps[:, 1], atol=1e-12)
        steps = np.linalg.norm(np.diff(ps, axis=0), axis=1)
        assert np.max(steps) < 0.2
