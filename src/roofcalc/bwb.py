"""Borel-Weil-Bott cohomology of equivariant bundles on G/P.

For a P-dominant weight chi, the bundle E_P(chi) (dual convention: the
bundle associated to V_P(chi)-dual) has cohomology governed by the dot
action w * chi = w(chi + rho) - rho:

  * if chi + rho is singular (some coroot pairing vanishes), every
    cohomology group is zero;
  * otherwise exactly one degree survives, namely the length of the unique
    w straightening chi + rho into the dominant chamber, and the group
    there is the irreducible G-module with highest weight w * chi.

The straightening is weyl's walk over every node: it reflects the
lowest-index negative coordinate of chi + rho until none is left, and
the image is the dominant conjugate of chi + rho.  chi + rho is singular
exactly when it is W-conjugate to a weight with a zero coordinate, so
the answer Vanishes as soon as one appears: at the start, or on a node
the walk lowers to zero, where the walk stops at the wall.  The
dimension is read off the straightened image by reps._weyl_product,
with no second check.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .reps import _require_dominant, _weyl_product
from .rootsys import Weight
from .weyl import ParabolicSubgroup, _walk

VANISHES = "Vanishes"
SINGLE = "Single"


class CohomologyResult(NamedTuple):
    """Outcome of Borel-Weil-Bott for one equivariant bundle."""

    status: str  # VANISHES or SINGLE
    degree: Optional[int] = None
    g_highest_weight: Optional[Weight] = None
    dimension: Optional[int] = None


def bwb(P: ParabolicSubgroup, chi: Weight) -> CohomologyResult:
    """Cohomology of E_P(chi) on G/P for a P-dominant chi."""
    system = P.system
    v = [x + 1 for x in _require_dominant(chi, P)]  # chi + rho
    if 0 in v:
        return CohomologyResult(status=VANISHES)
    heap = [i for i, x in enumerate(v) if x < 0]  # ascending: a heap
    letters = _walk(
        system._simple_pairs, v, [True] * system.rank, heap,
        len(system.positive_roots), walls=True,
    )
    if letters is None:
        return CohomologyResult(status=VANISHES)
    v = tuple.__new__(Weight, v)
    return CohomologyResult(
        status=SINGLE,
        degree=len(letters),
        g_highest_weight=v - system.rho,
        dimension=_weyl_product(system.root_data, v),
    )

