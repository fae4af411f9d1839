"""Field, vector potential, closed-form integrals, units, Lissajous."""

import numpy as np
import pytest
from scipy.integrate import quad

from twocolor_hhg import (FieldParams, apot, apot_integral, apot_sq_integral,
                          convert_units, efield, lissajous)
from twocolor_hhg.field import _sincos

from conftest import E1, OMEGA, RATIO


def rng():
    return np.random.default_rng(7)


def random_complex_times(n, scale=200.0):
    g = rng()
    return g.uniform(-scale, scale, n) + 1j * g.uniform(-20.0, 20.0, n)


class TestFieldParams:
    def test_ratio_consistency(self, params):
        assert params.E2 / params.E1 == pytest.approx(np.sqrt(RATIO), abs=1e-15)
        assert params.R == pytest.approx(RATIO, abs=1e-15)

    def test_phi_wrapped(self):
        p = FieldParams.from_ratio(E1, OMEGA, RATIO, 7.5)
        assert 0.0 <= p.phi < 2.0 * np.pi
        assert p.phi == pytest.approx(7.5 - 2.0 * np.pi)

    def test_invalid_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            FieldParams(E1=-1.0, E2=0.0, omega=OMEGA, phi=0.0)
        with pytest.raises(ValueError):
            FieldParams(E1=E1, E2=0.0, omega=0.0, phi=0.0)

    def test_with_phi_and_ratio(self, params):
        assert params.with_phi(1.0).phi == pytest.approx(1.0)
        assert params.with_ratio(0.0).E2 == 0.0


class TestEfield:
    def test_zero_at_origin_phi0(self, params):
        assert np.allclose(efield(params, 0.0), 0.0)

    def test_phi_half_pi_y_component(self):
        p = FieldParams.from_ratio(E1, OMEGA, RATIO, np.pi / 2)
        ex, ey = efield(p, 0.0)
        assert ex == 0.0
        assert ey == pytest.approx(p.E2, rel=1e-15)

    def test_real_time_gives_real_field(self, params):
        e = efield(params, np.linspace(0.0, params.period, 17))
        assert np.max(np.abs(np.imag(e))) == 0.0

    def test_half_cycle_symmetry(self, params):
        # E(t + T/2) = diag(-1, +1) E(t) for every phi
        for phi in (0.0, 0.4, np.pi / 2, 2.1):
            p = params.with_phi(phi)
            t = np.linspace(0.0, p.period, 33)
            a = efield(p, t + p.period / 2)
            b = efield(p, t)
            assert np.max(np.abs(a[0] + b[0])) < 1e-12
            assert np.max(np.abs(a[1] - b[1])) < 1e-12

    def test_phi_shift_pi_flips_y(self, params):
        t = np.linspace(0.0, params.period, 33)
        a = efield(params.with_phi(np.pi), t)
        b = efield(params, t)
        assert np.max(np.abs(a[0] - b[0])) < 1e-12
        assert np.max(np.abs(a[1] + b[1])) < 1e-12


class TestApot:
    def test_value_at_origin(self, params):
        ax, ay = apot(params, 0.0)
        assert ax == pytest.approx(params.E1 / params.omega, rel=1e-15)
        assert ay == pytest.approx(params.E2 / (2 * params.omega), rel=1e-15)

    def test_mono_half_period(self, mono):
        ax, ay = apot(mono, np.pi / mono.omega)
        assert ax == pytest.approx(-mono.E1 / mono.omega, rel=1e-12)
        assert ay == 0.0

    def test_derivative_identity(self, params):
        # d/dt apot = -efield at random complex times (central differences)
        ts = random_complex_times(100)
        h = 1e-3
        d1 = (apot(params, ts + h) - apot(params, ts - h)) / (2 * h)
        d2 = (apot(params, ts + 2 * h) - apot(params, ts - 2 * h)) / (4 * h)
        der = (4.0 * d1 - d2) / 3.0   # Richardson, O(h^4)
        e = efield(params, ts)
        assert np.max(np.abs(der + e)) / np.max(np.abs(e)) < 1e-10


class TestApotIntegral:
    def test_empty_interval(self, params):
        assert np.allclose(apot_integral(params, 3.7, 3.7), 0.0)

    def test_full_period_vanishes(self, params):
        val = apot_integral(params, 1.3, 1.3 + params.period)
        assert np.max(np.abs(val)) < 1e-10

    def test_additivity(self, params):
        a, b, c = 0.7, 31.0, 88.5
        lhs = apot_integral(params, a, b) + apot_integral(params, b, c)
        rhs = apot_integral(params, a, c)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_against_quadrature(self, params):
        # straight-segment quadrature oracle at random complex endpoints
        g = rng()
        for _ in range(5):
            ta = g.uniform(0, 100) + 1j * g.uniform(0, 10)
            tb = g.uniform(0, 100) + 1j * g.uniform(0, 10)
            exact = apot_integral(params, ta, tb)
            for comp in range(2):
                def f(s, c=comp):
                    t = ta + s * (tb - ta)
                    return apot(params, t)[c] * (tb - ta)
                re = quad(lambda s: f(s).real, 0, 1, epsabs=1e-13)[0]
                im = quad(lambda s: f(s).imag, 0, 1, epsabs=1e-13)[0]
                assert abs(exact[comp] - (re + 1j * im)) < 1e-10 * max(
                    1.0, abs(exact[comp]))

    def test_squared_integral_against_quadrature(self, params):
        ta, tb = 11.0 + 2.0j, 95.0 - 1.5j
        exact = apot_sq_integral(params, ta, tb)

        def f(s):
            t = ta + s * (tb - ta)
            a = apot(params, t)
            return (a[0] ** 2 + a[1] ** 2) * (tb - ta)

        re = quad(lambda s: f(s).real, 0, 1, epsabs=1e-13)[0]
        im = quad(lambda s: f(s).imag, 0, 1, epsabs=1e-13)[0]
        assert abs(exact - (re + 1j * im)) < 1e-9 * abs(exact)


class TestSinCos:
    """The sines and cosines of both field phases, from one real sin, cos,
    sinh and cosh per complex time."""

    @pytest.mark.parametrize("phi", [0.0, 0.4, np.pi / 2, 2.1, 5.9])
    def test_complex_times_match_numpy(self, params, phi):
        # the Newton kernel's range: |Im t| <= 1e3
        g = rng()
        ts = np.concatenate([random_complex_times(2000),
                             g.uniform(-200, 200, 2000) + 1j * g.uniform(-1e3, 1e3, 2000)])
        p = params.with_phi(phi)
        w = p.omega
        exact = (np.sin(w * ts), np.cos(w * ts),
                 np.sin(2.0 * w * ts + p.phi), np.cos(2.0 * w * ts + p.phi))
        for got, ref in zip(_sincos(p, ts), exact):
            assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_point_equals_batch(self, params):
        # a numpy scalar gives the bits of the same time inside an array, also
        # with one phase per time
        ts = random_complex_times(64)
        phis = np.linspace(0.0, 6.0, 64)
        batch = _sincos(params, ts, phis)
        for k in range(ts.size):
            point = _sincos(params, ts[k], phis[k])
            for b, s in zip(batch, point):
                assert np.ndim(s) == 0 and b[k].tobytes() == s.tobytes()

    def test_real_times_keep_numpy_sin_and_cos(self, params):
        # real t gives real arrays with the bits of numpy's sin and cos of the
        # phases
        ts = np.linspace(-300.0, 300.0, 1001)
        p = params.with_phi(2.1)
        x1, x2 = p.omega * ts, 2.0 * p.omega * ts + p.phi
        e, a = efield(p, ts), apot(p, ts)
        ia = apot_integral(p, 0.5, ts)
        assert e.dtype == a.dtype == ia.dtype == np.float64
        assert e.tobytes() == np.stack([p.E1 * np.sin(x1), p.E2 * np.sin(x2)]).tobytes()
        assert a.tobytes() == np.stack([(p.E1 / p.omega) * np.cos(x1),
                                        (p.E2 / (2.0 * p.omega)) * np.cos(x2)]).tobytes()
        w, (xa1, xa2) = p.omega, (p.omega * 0.5, 2.0 * p.omega * 0.5 + p.phi)
        assert ia.tobytes() == np.stack(
            [(p.E1 / w ** 2) * (np.sin(x1) - np.sin(xa1)),
             (p.E2 / (4.0 * w ** 2)) * (np.sin(x2) - np.sin(xa2))]).tobytes()


class TestConvertUnits:
    def test_wavelength(self):
        omega, _ = convert_units(800.0, 1.0e14)
        assert omega == pytest.approx(0.056954, abs=1e-6)

    def test_intensity(self):
        _, e = convert_units(800.0, 1.5e14)
        assert e == pytest.approx(0.06538, abs=1e-5)

    def test_ratio_squares_back(self):
        _, ea = convert_units(800.0, 1.5e14)
        _, eb = convert_units(800.0, 1.8e13)
        assert (eb / ea) ** 2 == pytest.approx(0.12, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            convert_units(-800.0, 1.0e14)
        with pytest.raises(ValueError):
            convert_units(800.0, 0.0)


class TestLissajous:
    def test_point_symmetry_phi0(self, params):
        pts = np.asarray(lissajous(params, 512))
        # t -> t + T/2 maps (Ex, Ey) -> (-Ex, Ey); combined with the odd
        # x-curve this makes the figure-of-eight point-symmetric: for every
        # sample, -sample is also on the curve.
        for s in pts[::37]:
            d = np.min(np.linalg.norm(pts + s, axis=1))
            assert d < 1e-3 * np.max(np.abs(pts))

    def test_mirror_symmetry_phi_half_pi(self, params):
        p = params.with_phi(np.pi / 2)
        pts = np.asarray(lissajous(p, 512))
        flipped = pts * np.array([-1.0, 1.0])
        for s in flipped[::37]:
            d = np.min(np.linalg.norm(pts - s, axis=1))
            assert d < 1e-3 * np.max(np.abs(pts))

    def test_monochromatic_on_x_axis(self, mono):
        pts = np.asarray(lissajous(mono, 64))
        assert np.max(np.abs(pts[:, 1])) == 0.0

    def test_minimum_samples(self, params):
        with pytest.raises(ValueError):
            lissajous(params, 4)
