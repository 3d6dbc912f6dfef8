"""Resource caps for the enumerative parts of the calculator.

Orbit and coset enumeration, weight multisets and exterior powers can be
asked for objects whose size is exponential in the rank.  Every such entry
point takes an optional ``cap`` argument; when omitted, the cap comes from
the ROOFCALC_CAP environment variable, falling back to DEFAULT_CAP.  The
cap counts elements (orbit points, weights, subsets, straightenings, root
coordinates, the digit products of a point count's division), not bytes.
_index, the exact-integer check every public entry point applies to a
rank, node, degree, parameter or cap, lives here too, so that rootsys
can check its cap without an import cycle.
"""

from __future__ import annotations

import operator
import os

DEFAULT_CAP = 10_000_000
ENV_VAR = "ROOFCALC_CAP"


class ResourceCapExceeded(RuntimeError):
    """An enumeration would exceed the configured element cap."""

    def __init__(self, what: str, needed: int, cap: int):
        self.what = what
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"{what} needs {needed} elements, above the resource cap {cap} "
            f"(override with the {ENV_VAR} environment variable or a cap argument)"
        )


def _index(value, what: str, error: type = ValueError) -> int:
    """operator.index(value); anything but an exact integer raises error."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {value!r}") from None


def resource_cap(override: int | None = None) -> int:
    """Resolve the effective cap: explicit argument, then env var, then default."""
    if override is not None:
        cap = _index(override, "resource cap")
        if cap < 1:
            raise ValueError(f"resource cap must be >= 1, got {override!r}")
        return cap
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{ENV_VAR} must be >= 1, got {raw!r}")
    return cap


def check_cap(what: str, needed: int, cap: int) -> None:
    if needed > cap:
        raise ResourceCapExceeded(what, needed, cap)
