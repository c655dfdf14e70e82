"""Exact piecewise-linear function algebra on a closed interval.

A function is stored as breakpoints x_0 < ... < x_m with values y_i and
linear interpolation in between.  Breakpoints, values and arguments are
`fractions.Fraction`s: a float converts exactly, so every composite and
root below is the exact one of the floats given, with no tolerance.
Composition inserts the preimages of the outer function's breakpoints, so
composites stay exactly piecewise linear; fixed points are then
enumerated segment by segment, including whole intervals where a
composite coincides with the identity.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

from .errors import DomainError

__all__ = ["PiecewiseLinear"]


def _exact(x) -> Fraction:
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        raise DomainError(f"{x!r} is not a finite number") from None


@dataclass(frozen=True)
class PiecewiseLinear:
    xs: tuple[Fraction, ...]
    ys: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(map(_exact, self.xs)))
        object.__setattr__(self, "ys", tuple(map(_exact, self.ys)))
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise DomainError("need matching xs/ys with at least two points")
        if any(b <= a for a, b in pairwise(self.xs)):
            raise DomainError("breakpoints must be strictly increasing")

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.xs[0], self.xs[-1]

    def __call__(self, x) -> Fraction:
        x = _exact(x)
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise DomainError(f"{x} outside domain [{lo}, {hi}]")
        i = min(bisect.bisect_right(self.xs, x), len(self.xs) - 1)
        x0, x1 = self.xs[i - 1], self.xs[i]
        y0, y1 = self.ys[i - 1], self.ys[i]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def compose(self, inner: "PiecewiseLinear") -> "PiecewiseLinear":
        """self o inner: breakpoints are inner's plus the preimages of
        self's breakpoints under each linear piece of inner."""
        cuts = set(inner.xs)
        for (x0, x1), (y0, y1) in zip(pairwise(inner.xs), pairwise(inner.ys)):
            cuts.update(x0 + (z - y0) * (x1 - x0) / (y1 - y0)
                        for z in self.xs if min(y0, y1) < z < max(y0, y1))
        xs = sorted(cuts)
        return PiecewiseLinear(tuple(xs), tuple(self(inner(x)) for x in xs))

    def iterate(self, n: int) -> "PiecewiseLinear":
        """n-fold self-composition (requires range within domain)."""
        if n < 1:
            raise DomainError("n must be >= 1")
        out = self
        for _ in range(n - 1):
            out = out.compose(self)
        return out

    def fixed_points(self) -> tuple[list[Fraction],
                                    list[tuple[Fraction, Fraction]]]:
        """Roots of f(x) = x: isolated points plus identity intervals.

        Segments whose endpoint residuals f(x) - x are both zero lie on
        the diagonal and are reported as intervals, touching ones merged.
        Any other segment whose residuals do not share a sign holds one
        root, solved exactly.
        """
        points: set[Fraction] = set()
        intervals: list[tuple[Fraction, Fraction]] = []
        res = [y - x for x, y in zip(self.xs, self.ys)]
        for (x0, x1), (r0, r1) in zip(pairwise(self.xs), pairwise(res)):
            if r0 == r1 == 0:
                if intervals and intervals[-1][1] == x0:
                    x0 = intervals.pop()[0]
                intervals.append((x0, x1))
            elif r0 * r1 <= 0:
                points.add(x0 + r0 * (x1 - x0) / (r0 - r1))
        return sorted(p for p in points
                      if not any(a <= p <= b for a, b in intervals)), intervals
