"""Geometry metric tests, including a rotation-matrix brute-force oracle."""

import math
import random

import pytest

from dogfight.geometry import (
    angle_off,
    aspect_angle,
    ata,
    bearing_to,
    clockwise_sign_to,
    distance,
    turn_sign,
    wrap_heading,
)

from helpers import XY, heading_vector


def _rotate_to_north(heading_deg, dx, dy):
    """Rotate (dx, dy) by the explicit 2x2 matrix that maps the compass
    heading direction onto +y. Independent of the trig path under test."""
    t = math.radians(heading_deg)
    rx = math.cos(t) * dx - math.sin(t) * dy
    ry = math.sin(t) * dx + math.cos(t) * dy
    return rx, ry


def ata_oracle(pos_a, heading_a, pos_b):
    rx, ry = _rotate_to_north(heading_a, pos_b.x - pos_a.x, pos_b.y - pos_a.y)
    return abs(math.degrees(math.atan2(rx, ry)))


def angle_off_oracle(heading_a, heading_b):
    hv = heading_vector(heading_b)
    rx, ry = _rotate_to_north(heading_a, hv.x, hv.y)
    return abs(math.degrees(math.atan2(rx, ry)))


def aspect_oracle(pos_a, pos_b, heading_b):
    return ata_oracle(pos_b, heading_b + 180.0, pos_a)


class TestBearing:
    def test_due_north(self):
        assert bearing_to(XY(0, 0), XY(0, 5)) == pytest.approx(0.0)

    def test_due_east(self):
        assert bearing_to(XY(0, 0), XY(5, 0)) == pytest.approx(90.0)

    def test_southwest(self):
        # atan2(-3, -3) = -135 deg -> compass 225
        assert bearing_to(XY(0, 0), XY(-3, -3)) == pytest.approx(225.0)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            bearing_to(XY(1, 1), XY(1, 1))


class TestAngleOff:
    def test_equal_headings(self):
        assert angle_off(0, 0) == 0.0

    def test_wraparound(self):
        assert angle_off(10, 350) == pytest.approx(20.0)

    def test_opposite(self):
        assert angle_off(90, 270) == pytest.approx(180.0)

    def test_symmetric_and_bounded(self):
        rng = random.Random(7)
        for _ in range(500):
            a = rng.uniform(0, 360)
            b = rng.uniform(0, 360)
            assert angle_off(a, b) == pytest.approx(angle_off(b, a), abs=1e-12)
            assert 0.0 <= angle_off(a, b) <= 180.0


class TestAta:
    def test_facing_target(self):
        assert ata(XY(0, 0), 0, XY(0, 5)) == pytest.approx(0.0)

    def test_target_on_beam(self):
        assert ata(XY(0, 0), 90, XY(0, 5)) == pytest.approx(90.0)

    def test_facing_away(self):
        assert ata(XY(0, 0), 180, XY(0, 5)) == pytest.approx(180.0)

    def test_coincident_is_zero(self):
        assert ata(XY(2, 2), 45, XY(2, 2)) == 0.0

    def test_rotation_invariance(self):
        # Rotating all positions and headings together must not change ATA.
        rng = random.Random(11)
        for _ in range(1000):
            a = XY(rng.uniform(-20, 20), rng.uniform(-20, 20))
            b = XY(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if distance(a, b) < 1e-6:
                continue
            h = rng.uniform(0, 360)
            base = ata(a, h, b)
            phi = rng.uniform(0, 360)
            t = math.radians(-phi)  # compass rotation by +phi is clockwise
            rot = lambda p: XY(
                math.cos(t) * p.x - math.sin(t) * p.y,
                math.sin(t) * p.x + math.cos(t) * p.y,
            )
            rotated = ata(rot(a), wrap_heading(h + phi), rot(b))
            assert rotated == pytest.approx(base, abs=1e-9)


class TestAspectAngle:
    def test_on_the_tail(self):
        assert aspect_angle(XY(0, -5), XY(0, 0), 0) == pytest.approx(0.0)

    def test_head_on(self):
        assert aspect_angle(XY(0, 5), XY(0, 0), 0) == pytest.approx(180.0)

    def test_perpendicular(self):
        assert aspect_angle(XY(5, 0), XY(0, 0), 0) == pytest.approx(90.0)

    def test_tail_angle_identity(self):
        # aspect(a, b, h_b) == ata from b with reversed heading toward a
        rng = random.Random(13)
        for _ in range(500):
            a = XY(rng.uniform(-20, 20), rng.uniform(-20, 20))
            b = XY(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if distance(a, b) < 1e-6:
                continue
            h = rng.uniform(0, 360)
            assert aspect_angle(a, b, h) == ata(b, wrap_heading(h + 180.0), a)


class TestBruteForceOracle:
    def test_angle_metrics_match_rotation_matrices(self):
        rng = random.Random(17)
        for _ in range(1000):
            a = XY(rng.uniform(-30, 30), rng.uniform(-30, 30))
            b = XY(rng.uniform(-30, 30), rng.uniform(-30, 30))
            if distance(a, b) < 1e-6:
                continue
            ha = rng.uniform(0, 360)
            hb = rng.uniform(0, 360)
            assert ata(a, ha, b) == pytest.approx(ata_oracle(a, ha, b), abs=1e-9)
            assert aspect_angle(a, b, hb) == pytest.approx(
                aspect_oracle(a, b, hb), abs=1e-9
            )
            assert angle_off(ha, hb) == pytest.approx(
                angle_off_oracle(ha, hb), abs=1e-9
            )


class TestTurnSign:
    def test_right_of_ray(self):
        assert turn_sign(XY(0, 0), XY(0, 1), XY(1, 0)) == -1

    def test_left_of_ray(self):
        assert turn_sign(XY(0, 0), XY(0, 1), XY(-1, 0)) == 1

    def test_collinear(self):
        assert turn_sign(XY(0, 0), XY(0, 1), XY(0, 2)) == 0

    def test_exhaustive_integer_grid(self):
        pts = [XY(x, y) for x in range(-3, 4) for y in range(-3, 4)]
        for a in pts:
            for b in pts:
                for c in pts:
                    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
                    expected = (det > 0) - (det < 0)
                    assert turn_sign(a, b, c) == expected

    def test_reflection_antisymmetry(self):
        # Mirroring C across the AB line flips the sign.
        rng = random.Random(19)
        for _ in range(300):
            a = XY(rng.uniform(-5, 5), rng.uniform(-5, 5))
            d = rng.uniform(0, 360)
            b = a + heading_vector(d)
            c = XY(rng.uniform(-5, 5), rng.uniform(-5, 5))
            # reflect c across line a->b
            t = math.radians(d)
            ux, uy = math.sin(t), math.cos(t)
            rx, ry = c.x - a.x, c.y - a.y
            dot = rx * ux + ry * uy
            mirrored = XY(
                a.x + 2 * dot * ux - rx,
                a.y + 2 * dot * uy - ry,
            )
            assert turn_sign(a, b, mirrored) == -turn_sign(a, b, c)


class TestClockwiseSign:
    def test_target_right_turns_clockwise(self):
        assert clockwise_sign_to(XY(0, 0), 0, XY(5, 0)) == 1

    def test_target_left_turns_counterclockwise(self):
        assert clockwise_sign_to(XY(0, 0), 0, XY(-5, 0)) == -1

    def test_aligned_is_zero(self):
        assert clockwise_sign_to(XY(0, 0), 0, XY(0, 5)) == 0


class TestDistance:
    def test_zero(self):
        assert distance(XY(0, 0), XY(0, 0)) == 0.0

    def test_pythagorean(self):
        assert distance(XY(0, 0), XY(3, 4)) == pytest.approx(5.0)

    def test_translation_invariant(self):
        assert distance(XY(1, 1), XY(4, 5)) == pytest.approx(5.0)
