"""Borel-Weil-Bott cohomology of equivariant bundles on G/P.

For a P-dominant weight chi, the bundle E_P(chi) (dual convention: the
bundle associated to V_P(chi)-dual) has cohomology governed by the dot
action w * chi = w(chi + rho) - rho:

  * if chi + rho is singular (some coroot pairing vanishes), every
    cohomology group is zero;
  * otherwise exactly one degree survives, namely the length of the unique
    w straightening chi + rho into the dominant chamber, and the group
    there is the irreducible G-module with highest weight w * chi.

One chamber step, _bott, serves bwb, which checks chi where it enters,
and roofs' Koszul page, which passes each Levi-dominant summand it
built, as a rho-shifted list, unchecked: the step trusts its input and
returns None for a singular chi + rho.  On A, C and D, W permutes the
coordinates of chi + rho along eps_1, ..., eps_m (Bourbaki, Plates I,
III and IV), changing any signs on C and an even number on D, and the
positive coroots pair with them as e_i - e_j (i < j), also e_i + e_j on
C and D, and e_i on C.  So chi + rho is singular exactly when two
coordinates collide, in absolute value on C and D, or one is zero on C;
otherwise the image is one sort.  F4 and G2 straighten chi + rho over
every node by weyl's walk, and a zero in the image means Vanishes.  The
degree, the number of negative coroot pairings of chi + rho (Humphreys,
Reflection Groups and Coxeter Groups, section 1.7), and the dimension
come from reps' one Weyl formula over the full group, read off chi + rho
itself: W permutes the coroots up to sign, so the absolute product is
that of the image.
"""

from __future__ import annotations

from operator import eq
from typing import List, NamedTuple, Optional, Tuple

from .reps import _require_dominant, _weyl_formula
from .rootsys import Weight, _epsilon
from .weyl import ParabolicSubgroup, parabolic, straighten

VANISHES = "Vanishes"
SINGLE = "Single"


class CohomologyResult(NamedTuple):
    """Outcome of Borel-Weil-Bott for one equivariant bundle."""

    status: str  # VANISHES or SINGLE
    degree: Optional[int] = None
    g_highest_weight: Optional[Weight] = None
    dimension: Optional[int] = None


def _bott(G: ParabolicSubgroup, v: List[int]) -> Optional[Tuple[int, int, List[int]]]:
    """(degree, dimension, image) of rho-shifted v over the full group G, or None."""
    system = G.system
    label = system.type_label
    if label in ("A", "C", "D"):
        e = _epsilon(label, v)
        s = sorted(e if label == "A" else map(abs, e), reverse=True)
        if any(map(eq, s, s[1:])) or label == "C" and not s[-1]:
            return None
        if label == "D" and sum(x < 0 for x in e) % 2:
            s[-1] = -s[-1]  # an even number of sign changes
        image = [x - y for x, y in zip(s, s[1:] + [0])][: system.rank]
        if label == "D":
            image = [x // 2 for x in image[:-1]] + [image[-2] // 2 + image[-1]]
    else:
        image, _ = straighten(system, v, range(1, system.rank + 1))
        if 0 in image:
            return None
    return (*_weyl_formula(G, v), image)


def bwb(P: ParabolicSubgroup, chi: Weight) -> CohomologyResult:
    """Cohomology of E_P(chi) on G/P for a P-dominant chi."""
    step = _bott(parabolic(P.system, ()), [x + 1 for x in _require_dominant(chi, P)])
    if step is None:
        return CohomologyResult(status=VANISHES)
    degree, dimension, image = step
    return CohomologyResult(SINGLE, degree, Weight(image) - P.system.rho, dimension)
