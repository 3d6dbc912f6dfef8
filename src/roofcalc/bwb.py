"""Borel-Weil-Bott cohomology of equivariant bundles on G/P.

For a P-dominant weight chi, the bundle E_P(chi) (dual convention: the
bundle associated to V_P(chi)-dual) has cohomology governed by the dot
action w * chi = w(chi + rho) - rho:

  * if chi + rho is singular (some coroot pairing vanishes), every
    cohomology group is zero;
  * otherwise exactly one degree survives, namely the length of the unique
    w straightening chi + rho into the dominant chamber, and the group
    there is the irreducible G-module with highest weight w * chi.

The straightening is weyl.straighten over every node: it reflects the
lowest-index negative coordinate of chi + rho until none is left.  Its
image is the dominant conjugate of chi + rho, so chi + rho is singular
exactly when that image has a zero coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from .reps import _require_dominant, weyl_dimension
from .rootsys import Weight, make_weight
from .weyl import ParabolicSubgroup, WeylElement, act, straighten

VANISHES = "Vanishes"
SINGLE = "Single"


@dataclass(frozen=True)
class CohomologyResult:
    """Outcome of Borel-Weil-Bott for one equivariant bundle."""

    status: str  # VANISHES or SINGLE
    degree: Optional[int] = None
    g_highest_weight: Optional[Weight] = None
    dimension: Optional[int] = None

    @property
    def vanishes(self) -> bool:
        return self.status == VANISHES


def dot_action(w: WeylElement, chi: Weight) -> Weight:
    """The rho-shifted action w(chi + rho) - rho."""
    system = w.system
    chi = make_weight(system, chi)
    return act(w, chi + system.rho) - system.rho


def bwb(P: ParabolicSubgroup, chi: Weight) -> CohomologyResult:
    """Cohomology of E_P(chi) on G/P for a P-dominant chi."""
    system = P.system
    chi = _require_dominant(chi, P)
    v, letters = straighten(system, chi + system.rho, range(1, system.rank + 1))
    if 0 in v:
        return CohomologyResult(status=VANISHES)
    ghw = v - system.rho
    return CohomologyResult(
        status=SINGLE,
        degree=len(letters),
        g_highest_weight=ghw,
        dimension=weyl_dimension(system, ghw),
    )


@dataclass(frozen=True)
class BundleCohomology:
    """Aggregated cohomology of a direct sum of equivariant summands.

    summands   (weight, CohomologyResult) per input summand, input order
    by_degree  degree -> total dimension, only the nonzero degrees
    """

    summands: Tuple[Tuple[Weight, CohomologyResult], ...]
    by_degree: Tuple[Tuple[int, int], ...]

    def degrees(self) -> Dict[int, int]:
        return dict(self.by_degree)

    @property
    def vanishes(self) -> bool:
        return not self.by_degree


def bundle_cohomology(
    P: ParabolicSubgroup, summand_weights: Iterable[Weight]
) -> BundleCohomology:
    """Run bwb summand by summand and accumulate dimensions per degree."""
    results = []
    totals: Dict[int, int] = {}
    for chi in summand_weights:
        res = bwb(P, chi)
        results.append((make_weight(P.system, chi), res))
        if res.status == SINGLE:
            totals[res.degree] = totals.get(res.degree, 0) + res.dimension
    return BundleCohomology(
        summands=tuple(results),
        by_degree=tuple(sorted(totals.items())),
    )
