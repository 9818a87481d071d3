"""Construction-time checks shared by the configuration types.

A timing constant, rate or bandwidth that is NaN or infinite is never a
valid setting: NaN passes every ``< 0`` comparison, so a hand-written
``if x < 0`` check lets it through, and an infinite time or gap can keep
a run from ever finishing.  :func:`require_finite` is the one check the
configuration types use for such fields.
"""

from __future__ import annotations

import math

__all__ = ["require_finite"]


def require_finite(name: str, value: float, positive: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is finite and ``>= 0``.

    With ``positive`` the value must be ``> 0`` as well.  The check is
    written as one chained comparison that NaN fails.
    """
    if positive:
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    elif not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
