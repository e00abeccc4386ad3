"""One Retry-After policy for every refusal path in the service.

Independent code paths used to compute the ``Retry-After`` header on
refusals — queue-full 429s and shed/drain 503s — each with its own
rounding.  ``round()`` in particular under-hints:
a 1.4-second estimate became ``Retry-After: 1``, inviting clients back
*before* the hinted window had passed.  This module is the single
source of truth:

* :func:`retry_after_header` — seconds -> header value, rounding **up**
  (a hint may overshoot, never undershoot) with a floor of 1 second
  (``Retry-After: 0`` is a retry storm invitation).
* :func:`clamp_retry_after` — policy for *estimated* waits (admission
  shed, cluster failover): at least the configured floor, at most
  :data:`MAX_HINT_S` so a pathological estimate cannot park clients
  for minutes.
"""

from __future__ import annotations

import math

#: Ceiling for estimate-derived hints; a refusal should never tell a
#: client to stay away longer than this.
MAX_HINT_S = 30.0


def retry_after_header(seconds: float) -> str:
    """The ``Retry-After`` header value for a hint of ``seconds``.

    HTTP wants a non-negative integer; we round *up* so the hint always
    covers the estimated wait, and floor at 1 so a sub-second (or
    bogus non-positive) hint still backs clients off for a beat.
    """
    if seconds != seconds or seconds <= 0:  # NaN or non-positive
        return "1"
    return str(max(1, math.ceil(seconds)))


def clamp_retry_after(estimate_s: float, floor_s: float) -> float:
    """An estimate-derived hint, clamped to ``[floor_s, MAX_HINT_S]``.

    ``floor_s`` is the service's configured minimum (``retry_after_s``);
    the cap keeps a wild EWMA estimate from exiling clients.
    """
    if estimate_s != estimate_s:  # NaN estimate: fall back to the floor
        return floor_s
    return max(floor_s, min(estimate_s, MAX_HINT_S))
