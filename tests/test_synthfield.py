import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from antfis import dataset
from antfis.dataset import write_dataset_csv
from antfis.errors import UsageError
from antfis.synthfield import (PlumeParams, ReactorGeometry, fields_at,
                               generate_dataset)

GEOM = ReactorGeometry()
PARAMS = PlumeParams()


class TestHoldup:
    def test_on_axis_peak(self):
        # far above the sparger the ramp is 1 and r = 0
        assert fields_at(0.0, 0.0, 2.0, GEOM, PARAMS)[2] == pytest.approx(
            PARAMS.alpha_max, abs=1e-15)

    def test_below_sparger_is_zero(self):
        assert fields_at(0.05, 0.0, 0.3, GEOM, PARAMS)[2] == 0.0

    def test_axis_symmetry_of_width(self):
        z = 1.7
        sigma = PARAMS.sigma0 + PARAMS.spread * (z - GEOM.sparger_height)
        a = fields_at(sigma, 0.0, z, GEOM, PARAMS)[2]
        b = fields_at(0.0, sigma, z, GEOM, PARAMS)[2]
        assert a == pytest.approx(b, abs=1e-15)
        assert a == pytest.approx(PARAMS.alpha_max * math.exp(-0.5), abs=1e-12)

    def test_outside_cylinder_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            fields_at(GEOM.radius * 1.01, 0.0, 1.0, GEOM, PARAMS)
        with pytest.raises(ValueError, match="outside"):
            fields_at(0.0, 0.0, GEOM.height + 0.1, GEOM, PARAMS)
        with pytest.raises(ValueError, match="outside"):
            fields_at(0.0, 0.0, -0.1, GEOM, PARAMS)

    @pytest.mark.parametrize("point", [(math.nan, 0.0, 1.0),
                                       (0.0, math.nan, 1.0),
                                       (0.0, 0.0, math.nan)])
    def test_nan_coordinate_rejected(self, point):
        with pytest.raises(ValueError, match="NaN"):
            fields_at(*point, GEOM, PARAMS)
        # one NaN point in a batch fails the whole call
        x, y, z = np.column_stack([point, (0.0, 0.0, 1.0)])
        with pytest.raises(ValueError, match="NaN"):
            fields_at(x, y, z, GEOM, PARAMS)

    def test_points_broadcast(self):
        rr = np.linspace(0.0, GEOM.radius, 7)
        fields = fields_at(rr, 0.0, 1.2, GEOM, PARAMS)
        assert all(np.shape(f) == (7,) for f in fields)
        for i, r in enumerate(rr):
            for f, one in zip(fields, fields_at(r, 0.0, 1.2, GEOM, PARAMS)):
                assert f[i] == pytest.approx(one, rel=1e-15, abs=1e-15)

    @given(theta=st.floats(0.0, 2.0 * math.pi), r=st.floats(0.0, GEOM.radius),
           z=st.floats(0.0, GEOM.height))
    @settings(max_examples=80, deadline=None)
    def test_axisymmetry(self, theta, r, z):
        p0 = (r, 0.0, z)
        p1 = (r * math.cos(theta), r * math.sin(theta), z)
        for f1, f0 in zip(fields_at(*p1, GEOM, PARAMS),
                          fields_at(*p0, GEOM, PARAMS)):
            assert f1 == pytest.approx(f0, abs=1e-12)

    def test_radially_non_increasing(self):
        for z in (0.6, 1.3, 2.5):
            rr = np.linspace(0.0, GEOM.radius, 50)
            vals = fields_at(rr, 0.0, z, GEOM, PARAMS)[2]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestPressure:
    def test_top_is_ambient(self):
        assert fields_at(0.0, 0.0, GEOM.height, GEOM, PARAMS)[0] \
            == pytest.approx(PARAMS.p_atm)

    def test_pure_hydrostatic_limit(self):
        params = PlumeParams(alpha_max=1e-15)
        expected = PARAMS.p_atm + params.rho_liquid * params.g * GEOM.height
        assert fields_at(0.0, 0.0, 0.0, GEOM, params)[0] \
            == pytest.approx(expected, rel=1e-9)

    def test_mean_holdup_against_quadrature(self):
        # numerical disc integral of the radial Gaussian profile
        z = 1.3
        sigma = PARAMS.sigma0 + PARAMS.spread * (z - GEOM.sparger_height)
        R = GEOM.radius

        def integrand(r):
            return PARAMS.alpha_max * math.exp(-r**2 / (2 * sigma**2)) \
                * 2 * math.pi * r

        integral, _ = integrate.quad(integrand, 0.0, R, epsabs=1e-14)
        expected = integral / (math.pi * R**2)
        # the pressure carries the mean holdup (about 0.03) times
        # rho g (H - z) = 12,727 Pa of about 113,666 Pa, so rel 1e-9 on
        # the pressure holds the mean holdup to about 3e-7 relative
        expected_p = PARAMS.p_atm + PARAMS.rho_liquid * PARAMS.g \
            * (GEOM.height - z) * (1.0 - expected)
        assert fields_at(0.0, 0.0, z, GEOM, PARAMS)[0] \
            == pytest.approx(expected_p, rel=1e-9)

    def test_non_increasing_in_z(self):
        zz = np.linspace(0.0, GEOM.height, 200)
        vals = fields_at(0.01, 0.02, zz, GEOM, PARAMS)[0]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


class TestVelocity:
    def test_on_axis_peak(self):
        assert fields_at(0.0, 0.0, 2.0, GEOM, PARAMS)[1] \
            == pytest.approx(PARAMS.u_max, abs=1e-15)

    def test_below_sparger(self):
        assert fields_at(0.0, 0.0, 0.2, GEOM, PARAMS)[1] == 0.0

    def test_constant_ratio_to_holdup(self):
        # same Gaussian shape, so u / alpha = u_max / alpha_max wherever ramp = 1
        rng = np.random.default_rng(5)
        for _ in range(10):
            r = rng.random() * GEOM.radius * 0.9
            theta = rng.random() * 2 * math.pi
            z = GEOM.sparger_height + 0.1 + rng.random() \
                * (GEOM.height - GEOM.sparger_height - 0.1)
            p = (r * math.cos(theta), r * math.sin(theta), z)
            _, velocity, holdup = fields_at(*p, GEOM, PARAMS)
            ratio = velocity / holdup
            assert ratio == pytest.approx(PARAMS.u_max / PARAMS.alpha_max,
                                          rel=1e-12)


class TestGenerateDataset:
    def test_determinism_bytewise(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_dataset_csv(generate_dataset(GEOM, PARAMS, 1500, seed=7), a)
        write_dataset_csv(generate_dataset(GEOM, PARAMS, 1500, seed=7), b)
        assert a.read_bytes() == b.read_bytes()

    def test_all_rows_inside_cylinder(self):
        data = generate_dataset(GEOM, PARAMS, 1500, seed=7)
        x, y, z = data.X[:, :3].T
        assert (x**2 + y**2 <= GEOM.radius**2 * (1 + 1e-12)).all()
        assert ((0.0 <= z) & (z <= GEOM.height)).all()

    def test_radial_density(self):
        # uniform sampling over the disc: P(r <= t) = t^2 / R^2
        data = generate_dataset(GEOM, PARAMS, 100_000, seed=11)
        r = np.hypot(data.X[:, 0], data.X[:, 1])
        res = stats.kstest(r, lambda t: (t / GEOM.radius) ** 2)
        assert res.pvalue > 1e-4

    def test_targets_clamped_under_heavy_noise(self):
        params = PlumeParams(noise_sd=0.8)
        data = generate_dataset(GEOM, params, 2000, seed=3)
        t = data.targets()
        assert t.min() >= 0.0 and t.max() <= 1.0

    def test_noise_free_target_is_exact_field(self):
        params = PlumeParams(noise_sd=0.0)
        data = generate_dataset(GEOM, params, 200, seed=9)
        x, y, z, pressure, velocity = data.X.T
        fields = fields_at(x, y, z, GEOM, params)
        assert np.array_equal(pressure, fields[0])
        assert np.array_equal(velocity, fields[1])
        assert np.array_equal(data.y, fields[2])

    def test_n_validation(self):
        with pytest.raises(ValueError):
            generate_dataset(GEOM, PARAMS, 0, seed=1)

    def test_overflowing_pressure_is_usage_error_naming_row(self):
        with pytest.raises(UsageError, match=r"row 0: non-finite value.*"
                           r"--p-atm, --rho-liquid, --g, --height, "
                           r"--sigma0 or --spread"):
            generate_dataset(GEOM, PlumeParams(rho_liquid=1e308), 10, seed=1)


def one_shot_oracle(geom, params, n, seed):
    """The generator as one full-length pass: every column built whole."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, 3))
    eps = rng.standard_normal(n)
    r = geom.radius * np.sqrt(u[:, 0])
    theta = 2.0 * math.pi * u[:, 1]
    x, y, z = r * np.cos(theta), r * np.sin(theta), geom.height * u[:, 2]
    two_s2 = 2.0 * (params.sigma0 + params.spread
                    * np.maximum(z - geom.sparger_height, 0.0)) ** 2
    ramp = np.clip((z - geom.sparger_height) / 0.1, 0.0, 1.0)
    R2 = geom.radius ** 2
    mean = params.alpha_max * ramp * (two_s2 / R2
                                      * (1.0 - np.exp(-R2 / two_s2)))
    pressure = params.p_atm + params.rho_liquid * params.g \
        * (geom.height - z) * (1.0 - mean)
    profile = np.exp(-(x ** 2 + y ** 2) / two_s2)
    alpha = params.alpha_max * profile * ramp
    alpha += params.noise_sd * eps
    np.clip(alpha, 0.0, 1.0, out=alpha)
    velocity = params.u_max * profile * ramp
    return np.column_stack([x, y, z, pressure, velocity]), alpha


class TestRowBlocks:
    B = 64

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1, 3 * B + 7])
    def test_blocked_bytes_equal_one_shot(self, monkeypatch, n):
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", self.B)
        params = PlumeParams(noise_sd=0.05)
        data = generate_dataset(GEOM, params, n, seed=n)
        X, y = one_shot_oracle(GEOM, params, n, seed=n)
        assert data.X.tobytes() == X.tobytes()
        assert data.y.tobytes() == y.tobytes()

    def test_memory_about_one_table(self):
        tracemalloc.start()
        try:
            data = generate_dataset(GEOM, PARAMS, 100_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * (data.X.nbytes + data.y.nbytes)


class TestParamValidation:
    def test_geometry(self):
        with pytest.raises(ValueError):
            ReactorGeometry(height=0.4, sparger_height=0.5)
        with pytest.raises(ValueError):
            ReactorGeometry(diameter=0.0)

    def test_plume(self):
        with pytest.raises(ValueError):
            PlumeParams(alpha_max=0.0)
        with pytest.raises(ValueError):
            PlumeParams(alpha_max=1.0)
        with pytest.raises(ValueError):
            PlumeParams(noise_sd=-0.1)
