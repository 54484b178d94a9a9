"""Unit and property tests for the eccentric drive decomposition."""

import numpy as np
import pytest

from labmech import (
    EccentricSpec,
    HingePair,
    eccentric_transform,
    factor_transforms,
    orbit_point,
)


class TestComposite:
    def test_zero_angle(self):
        m = eccentric_transform(EccentricSpec(1.0), 0.0)
        np.testing.assert_array_equal(m, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])

    def test_quarter_turn(self):
        m = eccentric_transform(EccentricSpec(1.0), np.pi / 2)
        np.testing.assert_allclose(m[:2, 2], [0.0, 1.0], atol=1e-15)
        np.testing.assert_array_equal(m[:2, :2], np.eye(2))

    def test_zero_throw_is_identity(self):
        m = eccentric_transform(EccentricSpec(0.0), 1.234)
        np.testing.assert_array_equal(m, np.eye(3))

    def test_rejects_negative_throw(self):
        with pytest.raises(ValueError):
            EccentricSpec(-0.5)


class TestFactors:
    def test_zero_angle_factors(self):
        first, second = factor_transforms(EccentricSpec(1.0), 0.0)
        np.testing.assert_array_equal(first, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        np.testing.assert_array_equal(second, np.eye(3))

    def test_half_turn_product(self):
        first, second = factor_transforms(EccentricSpec(2.0), np.pi)
        product = first @ second
        np.testing.assert_allclose(product[:2, :2], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(product[:2, 2], [-2.0, 0.0], atol=1e-15)

    def test_product_equals_composite(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            spec = EccentricSpec(rng.uniform(0.0, 3.0))
            theta = rng.uniform(-4 * np.pi, 4 * np.pi)
            first, second = factor_transforms(spec, theta)
            err = np.abs(first @ second - eccentric_transform(spec, theta)).max()
            assert err <= 1e-12

    def test_factor_structure(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            spec = EccentricSpec(rng.uniform(0.0, 2.0))
            theta = rng.uniform(-10, 10)
            for factor in factor_transforms(spec, theta):
                np.testing.assert_array_equal(factor[2], [0.0, 0.0, 1.0])
                rot = factor[:2, :2]
                np.testing.assert_allclose(rot @ rot.T, np.eye(2), atol=1e-12)
                assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_angles_cancel(self):
        rng = np.random.default_rng(53)
        for theta in rng.uniform(-8, 8, 100):
            first, second = factor_transforms(EccentricSpec(1.5), theta)
            a1 = np.arctan2(first[1, 0], first[0, 0])
            a2 = np.arctan2(second[1, 0], second[0, 0])
            # angles wrap, so compare the sum on the circle
            assert np.sin(a1 + a2) == pytest.approx(0.0, abs=1e-12)
            assert np.cos(a1 + a2) == pytest.approx(1.0, abs=1e-12)


class TestOrbit:
    def test_radius_equals_throw(self):
        rng = np.random.default_rng(59)
        for _ in range(500):
            t = rng.uniform(0.0, 5.0)
            theta = rng.uniform(0.0, 2 * np.pi)
            trans = eccentric_transform(EccentricSpec(t), theta)[:2, 2]
            assert abs(np.linalg.norm(trans) - t) <= 1e-12

    def test_periodicity(self):
        spec = EccentricSpec(1.7)
        rng = np.random.default_rng(61)
        for theta in rng.uniform(-6, 6, 200):
            a = eccentric_transform(spec, theta)
            b = eccentric_transform(spec, theta + 2 * np.pi)
            assert np.abs(a - b).max() <= 1e-12

    def test_orbit_point_matches_transform(self):
        spec = EccentricSpec(0.8)
        for theta in np.linspace(0, 2 * np.pi, 17):
            np.testing.assert_array_equal(
                orbit_point(spec, theta), eccentric_transform(spec, theta)[:2, 2]
            )


class TestHingePair:
    def test_angles_sum_to_zero_exactly(self):
        pair = HingePair(EccentricSpec(1.0))
        for theta in np.linspace(-7, 7, 23):
            pair.set_angle(theta)
            a, b = pair.angles
            assert a + b == 0.0

    def test_either_hinge_drives_the_other(self):
        pair = HingePair(EccentricSpec(1.0))
        pair.set_angle(0.4)
        assert pair.angles == (0.4, -0.4)
        pair.set_angle(-0.9)  # the second hinge driven to 0.9
        assert pair.angles == (-0.9, 0.9)
        assert sum(pair.angles) == 0.0

    def test_platform_matches_composite(self):
        pair = HingePair(EccentricSpec(2.5))
        pair.set_angle(1.1)
        np.testing.assert_array_equal(
            pair.platform, eccentric_transform(pair.spec, 1.1)
        )
        first, second = pair.transforms
        np.testing.assert_allclose(first @ second, pair.platform, atol=1e-12)
