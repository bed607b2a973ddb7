"""Extended nonnegative real arithmetic helpers.

Values live in [0, 1] ("unit") or [0, inf] ("extended"). The product
convention is 0 * inf = inf * 0 = 0 throughout.
"""

from __future__ import annotations

import math

INF = math.inf

UNIT = "unit"
EXTENDED = "extended"

#: default ceiling used when a supremum over [0, inf] must be evaluated
#: at a finite point; results touching it are flagged by callers
DEFAULT_CAP = float(2**20)


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
    """a**s for a in [0, inf], s > 0, with 0**s = 0 and inf**s = inf."""
    if a == 0.0:
        return 0.0
    if math.isinf(a):
        return INF
    return a**s


def sup_of(range_tag: str, cap: float = DEFAULT_CAP) -> float:
    return 1.0 if range_tag == UNIT else cap
