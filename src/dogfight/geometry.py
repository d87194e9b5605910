"""2D combat geometry: compass bearings, angular metrics, turn direction.

Coordinates are flat Cartesian kilometers, x east and y north. Headings are
compass degrees in [0, 360): 0 = north, increasing clockwise. All public
functions return degrees.
"""

from __future__ import annotations

import math
from typing import Protocol


class Point(Protocol):
    """Any object with float `x` and `y` in km, such as an aircraft or a rocket."""

    x: float
    y: float


def wrap_heading(deg: float) -> float:
    """Wrap an angle in degrees into compass range [0, 360)."""
    wrapped = math.fmod(deg, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    # fmod can return 360.0 - epsilon rounding artifacts; normalize exactly
    return 0.0 if wrapped == 360.0 else wrapped


def distance(a: Point, b: Point) -> float:
    """Euclidean distance in kilometers."""
    return math.hypot(b.x - a.x, b.y - a.y)


def bearing_to(origin: Point, target: Point) -> float:
    """Compass bearing from `origin` to `target` in [0, 360).

    Coincident points have no bearing; callers that can produce overlapping
    positions should use `ata`/`aspect_angle`, which substitute 0.
    """
    dx = target.x - origin.x
    dy = target.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("bearing undefined for coincident points")
    return wrap_heading(math.degrees(math.atan2(dx, dy)))


def signed_heading_delta(from_deg: float, to_deg: float) -> float:
    """Shortest signed rotation (degrees, clockwise-positive) from one heading
    to another. Result in (-180, 180]."""
    delta = math.fmod(to_deg - from_deg, 360.0)
    if delta > 180.0:
        delta -= 360.0
    elif delta <= -180.0:
        delta += 360.0
    return delta


def angle_off(heading_a: float, heading_b: float) -> float:
    """Unsigned difference between two headings, in [0, 180]."""
    return abs(signed_heading_delta(heading_a, heading_b))


def ata(pos_a: Point, heading_a: float, pos_b: Point) -> float:
    """Antenna train angle: unsigned angle in [0, 180] between a's heading
    and the line of sight from a to b. 0 when a faces b directly.

    Coincident positions return 0 (overlap can occur at spawn).
    """
    if pos_a.x == pos_b.x and pos_a.y == pos_b.y:
        return 0.0
    return angle_off(heading_a, bearing_to(pos_a, pos_b))


def aspect_angle(pos_a: Point, pos_b: Point, heading_b: float) -> float:
    """Aspect angle: angle in [0, 180] from b's tail to a's position.

    0 when a sits directly behind b, 180 when b points straight at a.
    """
    if pos_a.x == pos_b.x and pos_a.y == pos_b.y:
        return 0.0
    # Angle between b's reversed heading and the LOS from b to a.
    return angle_off(wrap_heading(heading_b + 180.0), bearing_to(pos_b, pos_a))


def turn_sign(a: Point, b: Point, c: Point) -> int:
    """Sign of the 2D determinant of (AB, AC): +1 if C lies left of the ray
    A->B (counterclockwise), -1 if right, 0 if collinear."""
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if det > 0.0:
        return 1
    if det < 0.0:
        return -1
    return 0


def clockwise_sign_to(pos: Point, heading_deg: float, target: Point) -> int:
    """+1 if the shorter turn from `heading_deg` toward `target` is clockwise
    (compass-increasing), -1 if counterclockwise, 0 if already aligned or
    directly astern/coincident.

    In compass coordinates a target right of the heading ray has a negative
    (AB, AC) determinant, so the short-way turn is the negated `turn_sign`
    of (pos, pos + unit heading vector, target).
    """
    rad = math.radians(heading_deg)
    # (pos + unit) - pos, not unit, keeps turn_sign's rounding of b - a
    det = (((pos.x + math.sin(rad)) - pos.x) * (target.y - pos.y)
           - ((pos.y + math.cos(rad)) - pos.y) * (target.x - pos.x))
    return (det < 0.0) - (det > 0.0)
