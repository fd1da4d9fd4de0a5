"""Inequality verdicts with explicit numeric-error accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


def rounding_allowance(lhs: float, rhs: float) -> float:
    """A few ulps of the float evaluation of both sides: 4e-16 (|lhs| + |rhs| + 1)."""
    return 4.0e-16 * (abs(lhs) + abs(rhs) + 1.0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of one checked inequality ``lhs <= rhs``.

    ``margin = rhs - lhs``.  A quadrature-backed verdict reports holds/fails
    only when the margin clears the numeric error band; anything inside the
    band is inconclusive, never silently classified.
    """

    lhs: float
    rhs: float
    margin: float
    numeric_error: float
    status: str

    @classmethod
    def compare(cls, lhs: float, rhs: float, numeric_error: float, converged: bool = True) -> "Verdict":
        """Strict trichotomy: the margin must clear the error band either way.

        The band is ``numeric_error`` plus the comparison's own
        ``rounding_allowance``; an unconverged computation gets an infinite band.
        """
        numeric_error = numeric_error + rounding_allowance(lhs, rhs) if converged else math.inf
        margin = rhs - lhs
        if margin > numeric_error:
            status = HOLDS
        elif margin < -numeric_error:
            status = FAILS
        else:
            status = INCONCLUSIVE
        return cls(lhs, rhs, margin, numeric_error, status)

    @classmethod
    def exact(cls, lhs: float, rhs: float) -> "Verdict":
        """Closed-form comparison; boundary equality counts as holds.

        Both sides are evaluated in exact arithmetic up to rounding, so the
        inconclusive band collapses: the inequality is non-strict (<=) and an
        exact tie is a valid equality case.  The rounding allowance covers a
        few ulps of float evaluation.
        """
        margin = rhs - lhs
        if math.isinf(lhs) or math.isinf(rhs):
            rounding = 0.0
        else:
            rounding = rounding_allowance(lhs, rhs)
        status = HOLDS if margin >= -rounding else FAILS
        return cls(lhs, rhs, margin, rounding, status)

    @classmethod
    def identity(
        cls, lhs: float, rhs: float, numeric_error: float, atol: float
    ) -> "Verdict":
        """Two sides of an identity: holds when they agree within atol."""
        margin = rhs - lhs
        if abs(margin) <= atol:
            status = HOLDS
        elif abs(margin) > atol + numeric_error:
            status = FAILS
        else:
            status = INCONCLUSIVE
        return cls(lhs, rhs, margin, numeric_error, status)
