"""Resource caps for the enumerative parts of the calculator.

Orbit and coset enumeration, weight multisets and exterior powers can be
asked for objects whose size is exponential in the rank.  Every such entry
point takes an optional ``cap`` argument, DEFAULT_CAP when omitted; no
environment variable is read.  The cap counts elements (orbit points,
weights, subsets, straightenings, root coordinates, the digit products
of a point count's division), not bytes.
_index, the exact-integer check every public entry point applies to a
rank, node, degree, parameter or cap, lives here too, so that rootsys
can check its cap without an import cycle.
"""

from __future__ import annotations

import operator

DEFAULT_CAP = 10_000_000


class ResourceCapExceeded(RuntimeError):
    """An enumeration would exceed the configured element cap."""

    def __init__(self, what: str, needed: int, cap: int):
        self.what = what
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"{what} needs {needed} elements, above the resource cap {cap} "
            "(override with a cap argument or --cap)"
        )


def _index(value, what: str, error: type = ValueError) -> int:
    """operator.index(value); anything but an exact integer raises error."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def resource_cap(override: int | None = None) -> int:
    """The effective cap: the explicit argument, else DEFAULT_CAP."""
    if override is None:
        return DEFAULT_CAP
    cap = _index(override, "resource cap")
    if cap < 1:
        raise ValueError(f"resource cap must be >= 1, got {override!r}")
    return cap


def check_cap(what: str, needed: int, cap: int) -> None:
    if needed > cap:
        raise ResourceCapExceeded(what, needed, cap)
