"""Borel-Weil-Bott cohomology of equivariant bundles on G/P.

For a P-dominant weight chi, the bundle E_P(chi) (dual convention: the
bundle associated to V_P(chi)-dual) has cohomology governed by the dot
action w * chi = w(chi + rho) - rho:

  * if chi + rho is singular (some coroot pairing vanishes), every
    cohomology group is zero;
  * otherwise exactly one degree survives, namely the length of the unique
    w straightening chi + rho into the dominant chamber, and the group
    there is the irreducible G-module with highest weight w * chi.

On A, C and D, W permutes the coordinates of chi + rho along
eps_1, ..., eps_m (Bourbaki, Plates I, III and IV), changing any signs
on C and an even number on D, and the positive coroots pair with them as
e_i - e_j (i < j), also e_i + e_j on C and D, and e_i on C.  So chi + rho
is singular exactly when two coordinates collide, in absolute value on C
and D, or one is zero on C; otherwise the image is one sort, the degree
is the number of negative pairings (Humphreys, Reflection Groups and
Coxeter Groups, section 1.7) and the dimension the product of the
pairings over that of rho.  F4 and G2 straighten chi + rho over every
node by weyl's walk: a zero in the image means Vanishes, and otherwise
reps._weyl_product reads the dimension off the image.
"""

from __future__ import annotations

from math import prod
from operator import eq
from typing import NamedTuple, Optional

from .reps import _require_dominant, _weyl_product
from .rootsys import Weight, _epsilon, _pairings
from .weyl import ParabolicSubgroup, straighten

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
    label = system.type_label
    v = [x + 1 for x in _require_dominant(chi, P)]  # chi + rho
    if label in ("A", "C", "D"):
        e = _epsilon(label, v)
        s = sorted(e if label == "A" else map(abs, e), reverse=True)
        if any(map(eq, s, s[1:])) or label == "C" and not s[-1]:
            return CohomologyResult(status=VANISHES)
        if label == "D" and sum(x < 0 for x in e) % 2:
            s[-1] = -s[-1]  # an even number of sign changes
        v = [x - y for x, y in zip(s, s[1:] + [0])][: system.rank]
        if label == "D":
            v = [x // 2 for x in v[:-1]] + [v[-2] // 2 + v[-1]]
        rows, rho = _pairings(label, e), _pairings(label, _epsilon(label, system.rho))
        degree = sum(x < 0 for row in rows for x in row)
        dimension = abs(prod(map(prod, rows))) // prod(map(prod, rho))
    else:
        v, letters = straighten(system, v, range(1, system.rank + 1))
        if 0 in v:
            return CohomologyResult(status=VANISHES)
        degree, dimension = len(letters), _weyl_product(system.root_data, v)
    return CohomologyResult(SINGLE, degree, Weight(v) - system.rho, dimension)
