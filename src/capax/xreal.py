"""Extended nonnegative real arithmetic helpers.

Operator domains and capacity ranges are [0, 1] ("unit") or [0, inf]
("extended"). The product convention is 0 * inf = inf * 0 = 0 throughout.
"""

from __future__ import annotations

import math

INF = math.inf

UNIT = "unit"
EXTENDED = "extended"


class DomainError(ValueError):
    """An input lies outside the declared range."""


class DegenerateInputError(ValueError):
    """A normalizing quantity is zero or infinite."""


def xmul(a: float, b: float) -> float:
    """Product with the 0 * inf = 0 convention."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def xpow(a: float, s: float) -> float:
    """a**s for a in [0, inf], s > 0, with 0**s = 0, inf**s = inf, and a
    power beyond the largest double inf."""
    if a == 0.0:
        return 0.0
    if math.isinf(a):
        return INF
    try:
        return a**s
    except OverflowError:
        return INF
