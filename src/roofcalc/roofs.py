"""Homogeneous roofs and their L-equivalence reports.

A roof is a Fano variety carrying two projective-bundle structures with
the same fiber dimension over two bases F_1 and F_2.  The homogeneous
ones are quotients G/Q for a parabolic Q crossing exactly two nodes:
the bases are G/P_1 and G/P_2 for the single-node parabolics, the
projectivized bundles are the equivariant bundles of the sum of the two
crossed fundamental weights, and a general section of the ample line
bundle on the roof cuts a pair of zero loci (Z_1, Z_2) satisfying

    [P^{r-2}] ([F_2] - [F_1]) = L^{r-1} ([Z_1] - [Z_2])

in the Grothendieck ring, with r the bundle rank.  Equal base classes
therefore certify L^{r-1} ([Z_1] - [Z_2]) = 0.

The table _FAMILIES is the one description of each roof family: the
catalog listing, the parameter range, the group and crossed pair at r,
and the closed-form dimensions are all read from its row, and _resolve
turns a row into the family and the parabolics of its two bases.

The pipeline computes both base classes from the Weyl-group degrees
(motive.class_of_quotient), resolves O_{Z_i}(1) by the Koszul complex of
the cutting section, splits every term into Levi irreducibles, in closed
form for a GL or Sp standard dual bundle (every catalog side), else by
Newton's identity in the character basis up to the middle degree and by
duality, Lambda^(n-p) = (Lambda^p)^dual (x) det, above it (no weight of
an exterior power is listed), hands each Levi-dominant summand, twisted
and rho-shifted, to the Borel-Weil-Bott chamber step of bwb without
checking it again, and reads off H^*(Z_i, O(1)) whenever the first page
of the resulting spectral sequence visibly degenerates.  For zero loci of
dimension at least 3 the ample generator restricts from
the base and any isomorphism Z_1 = Z_2 would match the two O(1)
polarizations, so unequal H^0 dimensions witness Z_1 != Z_2 and make
the certificate nontrivial.  Nothing here constructs sections or the
loci themselves; every claim about Z_i is equivariant data on the
bases, and anything short of visible degeneration is reported as
Inconclusive rather than guessed from Euler characteristics.
"""

from __future__ import annotations

from itertools import combinations
from operator import add
from typing import Dict, NamedTuple, Optional, Tuple

from .bwb import _bott
from .limits import _index
from .motive import LPolynomial, class_of_quotient, igr_class, roof_identity_residual
from .reps import (
    _exterior_power_summands,
    _standard_exterior_powers,
    dual_highest_weight,
    is_ample,
    weight_multiset,
    weyl_dimension,
)
from .rootsys import _TYPES, RootSystem, Weight, build_root_system, make_weight
from .weyl import ParabolicSubgroup, height_exponents, parabolic

DETERMINED = "Determined"
INCONCLUSIVE = "Inconclusive"

# The one description of every roof family, in catalog order:
#   label: ((group, crossed pair, roof rank) as catalog text,
#           least r, or None for a fixed member,
#           r -> (group type, group rank, crossed pair),
#           r -> closed-form (base dimension, bundle rank))
# A crossed pair (a, a) names node a in each of two equal factors.
_FAMILIES = {
    "AxA": (("A_r x A_r", "node 1 in each factor", "r+1"), 1,
            lambda r: ("A", r, (1, 1)), lambda r: (r, r + 1)),
    "A_M": (("A_r", "{1, r}", "r"), 2,
            lambda r: ("A", r, (1, r)), lambda r: (r, r)),
    "A_G": (("A_2r", "{r, r+1}", "r+1"), 2,
            lambda r: ("A", 2 * r, (r, r + 1)), lambda r: (r * (r + 1), r + 1)),
    "C": (("C_{3r-1}", "{2r-1, 2r}", "2r"), 1,
          lambda r: ("C", 3 * r - 1, (2 * r - 1, 2 * r)),
          lambda r: (6 * r * r - 3 * r, 2 * r)),
    "D": (("D_r", "{r-1, r}", "r"), 4,
          lambda r: ("D", r, (r - 1, r)), lambda r: (r * (r - 1) // 2, r)),
    "F4": (("F4", "{2, 3}", "3"), None,
           lambda r: ("F4", 4, (2, 3)), lambda r: (20, 3)),
    "G2": (("G2", "{1, 2}", "2"), None,
           lambda r: ("G2", 2, (1, 2)), lambda r: (5, 2)),
}

FAMILY_LABELS = tuple(_FAMILIES)


def catalog() -> Tuple[Dict[str, str], ...]:
    """Rows for the family listing, in fixed order."""
    return tuple(
        {
            "label": label,
            "group": text[0],
            "crossed_pair": text[1],
            "roof_rank": text[2],
            "parameter": "fixed" if least is None else f"r >= {least}",
        }
        for label, (text, least, _, _) in _FAMILIES.items()
    )


class RoofFamily(NamedTuple):
    """One catalog entry, fully resolved at a concrete parameter.

    product marks the one family whose group is a product of two equal
    simple factors; group_type/group_rank then describe a single factor
    and both bases live in it.
    """

    label: str
    r: Optional[int]
    group: str
    group_type: str
    group_rank: int
    product: bool
    crossed_pair: Tuple[int, int]
    base_dims: int
    bundle_rank: int
    bundle_weight: Optional[Weight]

    @property
    def zero_locus_dimension(self) -> int:
        return self.base_dims - self.bundle_rank


def _quotient_dimension(P: ParabolicSubgroup) -> int:
    return sum((h - 1) * e for h, e in height_exponents(P).items())  # the degree of [G/P]


def _fundamental(system: RootSystem, node: int) -> Weight:
    return Weight(int(j == node) for j in range(1, system.rank + 1))


def _resolve(
    label: str, r: Optional[int], cap: Optional[int] = None
) -> Tuple[RoofFamily, ParabolicSubgroup, ParabolicSubgroup]:
    """The family at r with the parabolics P1, P2 of its two bases.

    The group is built under cap.  Derived dimensions are recomputed
    from closed forms and must match the closed-form column of _FAMILIES.
    """
    if label not in _FAMILIES:
        known = ", ".join(FAMILY_LABELS)
        raise ValueError(f"unknown roof family {label!r}; known families: {known}")
    _, least, shape, expected_dims = _FAMILIES[label]
    if least is None:
        if r is not None:
            raise ValueError(f"family {label} is a fixed member and takes no parameter")
    else:
        if r is None:
            raise ValueError(f"family {label} requires the parameter r")
        r = _index(r, f"the parameter r of family {label}", ValueError)
        if r < least:
            raise ValueError(f"family {label} requires r >= {least}, got {r}")
    group_type, group_rank, crossed = shape(r)
    a, b = crossed
    product = a == b

    system = build_root_system(group_type, group_rank, cap=cap)
    P1 = parabolic(system, (a,))
    base_dim = _quotient_dimension(P1)
    if product:
        P2 = P1
        bundle_weight = None
        # fiber of P^r x P^r over either factor is the other factor
        bundle_rank = base_dim + 1
        group = f"A{group_rank} x A{group_rank}"
    else:
        P2 = parabolic(system, (b,))
        bundle_weight = _fundamental(system, a) + _fundamental(system, b)
        other = _quotient_dimension(P2)
        if base_dim != other:
            raise AssertionError(
                f"base dimensions disagree: {base_dim} vs {other} for {label}"
            )
        bundle_rank = weyl_dimension(P1, bundle_weight)
        if bundle_rank != weyl_dimension(P2, bundle_weight):
            raise AssertionError(f"bundle ranks disagree between sides for {label}")
        roof = parabolic(system, (a, b))
        if _quotient_dimension(roof) != base_dim + bundle_rank - 1:
            raise AssertionError(
                f"roof is not a projectivized rank-{bundle_rank} bundle over a "
                f"{base_dim}-dimensional base"
            )
        if not is_ample(bundle_weight, roof):
            raise AssertionError(f"roof line bundle is not ample for {label}")
        # a fixed-rank type label already carries its rank
        group = group_type if _TYPES[group_type].fixed else f"{group_type}{group_rank}"

    expected = expected_dims(r)
    if (base_dim, bundle_rank) != expected:
        raise AssertionError(
            f"derived (dim, rank) {(base_dim, bundle_rank)} does not match "
            f"the table value {expected} for {label}"
        )
    fam = RoofFamily(
        label=label,
        r=r,
        group=group,
        group_type=group_type,
        group_rank=group_rank,
        product=product,
        crossed_pair=crossed,
        base_dims=base_dim,
        bundle_rank=bundle_rank,
        bundle_weight=bundle_weight,
    )
    return fam, P1, P2


def roof_data(label: str, r: Optional[int] = None) -> RoofFamily:
    """Resolve a family label and parameter to concrete roof data.

    The fixed members F4 and G2 reject a parameter; every other family
    requires an integer one, at least the family's least r.
    """
    return _resolve(label, r)[0]


class KoszulResult(NamedTuple):
    """Zero-locus cohomology read off the Koszul spectral sequence.

    first_page lists the nonzero entries (p, q, dim) with term p in
    column -p and cohomology degree q.  When the page admits no
    possible differential the status is Determined and cohomology holds
    the per-degree dimensions of H^*(Z, twist); otherwise both derived
    fields stay None.
    """

    status: str
    first_page: Tuple[Tuple[int, int, int], ...]
    cohomology: Optional[Tuple[Tuple[int, int], ...]]
    h0: Optional[int]


def _collision_free(page: Tuple[Tuple[int, int, int], ...]) -> bool:
    """Sufficient degeneration test for the first page.

    True when all entries sit in pairwise distinct total degrees q - p
    and no pair of entries is joined by a differential of any page, which
    maps (-p, q) to (-p + k, q - k + 1) for some k >= 1.  A single column
    always passes: its cells have distinct q, and no differential stays
    in one column.
    """
    totals = [q - p for p, q, _ in page]
    if len(set(totals)) != len(totals):
        return False
    for (p1, q1, _), (p2, q2, _) in combinations(page, 2):
        for (pa, qa), (pb, qb) in (((p1, q1), (p2, q2)), ((p2, q2), (p1, q1))):
            k = pa - pb
            if k >= 1 and qa - qb == k - 1:
                return False
    return True


def koszul_zero_locus_cohomology(
    P: ParabolicSubgroup,
    bundle_hw: Weight,
    twist: Weight,
    cap: Optional[int] = None,
) -> KoszulResult:
    """Cohomology of O_Z(twist) for Z cut by a general section.

    The section lives in the rank-r bundle of the P-dominant weight
    bundle_hw; the Koszul complex twists O(twist) by the exterior
    powers of the dual bundle, whose Levi decompositions come in closed
    form (reps._standard_exterior_powers) or else in one Newton pass
    (reps._exterior_power_summands).  bwb's chamber step takes every
    summand unchecked, as built Levi-dominant.  The twist must be a
    character of P (zero on every retained node), or O(twist) is no line
    bundle: ValueError otherwise.
    """
    dual = dual_highest_weight(bundle_hw, P)  # validates bundle_hw
    twist = make_weight(P.system, twist)
    for i in sorted(P.retained):
        if twist[i - 1]:
            raise ValueError(
                f"twist {twist!r} is not a character of {P!r}: "
                f"coordinate {twist[i - 1]} at retained node {i}"
            )
    powers = _standard_exterior_powers(P, dual)
    if powers is None:
        powers = _exterior_power_summands(weight_multiset(P, dual, cap=cap), P, cap=cap)
    G = parabolic(P.system, ())
    shift = twist + P.system.rho
    cells: Dict[Tuple[int, int], int] = {}
    for p, summands in enumerate(powers):
        for hw, mult in summands:
            step = _bott(G, list(map(add, hw, shift)))
            if step is not None:
                key = (p, step[0])
                cells[key] = cells.get(key, 0) + mult * step[1]
    page = tuple(sorted((p, q, d) for (p, q), d in cells.items()))
    if not _collision_free(page):
        return KoszulResult(INCONCLUSIVE, page, None, None)
    totals: Dict[int, int] = {}
    for p, q, d in page:
        totals[q - p] = totals.get(q - p, 0) + d
    if any(n < 0 for n in totals):
        raise AssertionError("degenerate page placed cohomology in negative degree")
    cohomology = tuple(sorted(totals.items()))
    return KoszulResult(DETERMINED, page, cohomology, totals.get(0, 0))


class RoofReport(NamedTuple):
    """Everything `roof verify` knows about one family member.

    certificate is present exactly when the base classes agree, and
    reads "L^{r-1}([Z1]-[Z2]) = 0" with r the roof rank.  distinctness
    compares the two H^0 dimensions and is withheld (None) whenever the
    Picard-restriction argument is unavailable or either side's
    cohomology is not pinned down; the notes record why.
    """

    family: RoofFamily
    class_f1: LPolynomial
    class_f2: LPolynomial
    classes_equal: bool
    residual: LPolynomial
    certificate: Optional[str]
    koszul_z1: Optional[KoszulResult]
    koszul_z2: Optional[KoszulResult]
    igr_backend_agrees: Optional[bool]
    lefschetz_applicable: bool
    distinctness: Optional[bool]
    notes: Tuple[str, ...]

    @property
    def h0_z1(self) -> Optional[int]:
        return self.koszul_z1.h0 if self.koszul_z1 is not None else None

    @property
    def h0_z2(self) -> Optional[int]:
        return self.koszul_z2.h0 if self.koszul_z2 is not None else None

    @property
    def nontrivial_equivalence(self) -> bool:
        return self.certificate is not None and self.distinctness is True

    def to_json_dict(self) -> dict:
        fam = self.family

        def koszul_fields(side: Optional[KoszulResult]) -> Tuple[object, object, object]:
            if side is None:
                return None, None, None
            coh = [list(pair) for pair in side.cohomology] if side.cohomology is not None else None
            page = [list(cell) for cell in side.first_page]
            return side.status, coh, page

        status1, coh1, page1 = koszul_fields(self.koszul_z1)
        status2, coh2, page2 = koszul_fields(self.koszul_z2)
        return {
            "family": fam.label,
            "r": fam.r,
            "group": fam.group,
            "crossed_pair": list(fam.crossed_pair),
            "roof_rank": fam.bundle_rank,
            "base_dims": fam.base_dims,
            "bundle_rank": fam.bundle_rank,
            "bundle_weight": list(fam.bundle_weight) if fam.bundle_weight is not None else None,
            "class_f1": list(self.class_f1.coeffs),
            "class_f2": list(self.class_f2.coeffs),
            "classes_equal": self.classes_equal,
            "residual": list(self.residual.coeffs),
            "certificate": self.certificate,
            "koszul_status_z1": status1,
            "koszul_status_z2": status2,
            "cohomology_z1": coh1,
            "cohomology_z2": coh2,
            "first_page_z1": page1,
            "first_page_z2": page2,
            "h0_z1": self.h0_z1,
            "h0_z2": self.h0_z2,
            "igr_backend_agrees": self.igr_backend_agrees,
            "lefschetz_applicable": self.lefschetz_applicable,
            "distinctness": self.distinctness,
            "nontrivial_equivalence": self.nontrivial_equivalence,
            "notes": list(self.notes),
        }

    def render_text(self) -> str:
        fam = self.family
        flag = {True: "yes", False: "no", None: "not assessed"}
        lines = [
            f"roof family {fam.label}"
            + (f" (r = {fam.r})" if fam.r is not None else ""),
            f"  group {fam.group}, crossed nodes {{{fam.crossed_pair[0]}, {fam.crossed_pair[1]}}}",
            f"  roof rank {fam.bundle_rank}, base dimension {fam.base_dims}, "
            f"bundle rank {fam.bundle_rank}",
        ]
        if fam.bundle_weight is not None:
            lines.append(f"  bundle weight {tuple(fam.bundle_weight)}")
        lines.append(f"  class of F1: {self.class_f1}")
        lines.append(f"  class of F2: {self.class_f2}")
        lines.append(f"  classes equal: {flag[self.classes_equal]}")
        lines.append(f"  residual: {self.residual}")
        lines.append(f"  certificate: {self.certificate or 'none'}")
        if self.igr_backend_agrees is not None:
            lines.append(
                f"  point-count backend agrees: {flag[self.igr_backend_agrees]}"
            )
        for name, side in (("Z1", self.koszul_z1), ("Z2", self.koszul_z2)):
            if side is None:
                lines.append(f"  zero locus {name}: not computed")
            elif side.status == DETERMINED:
                table = ", ".join(f"h^{n} = {d}" for n, d in side.cohomology)
                lines.append(
                    f"  zero locus {name}: Determined, {table or 'no cohomology'}"
                )
            else:
                cellstext = ", ".join(
                    f"(p={p}, q={q}, dim={d})" for p, q, d in side.first_page
                )
                lines.append(
                    f"  zero locus {name}: Inconclusive, first page {cellstext or 'empty'}"
                )
        lines.append(f"  lefschetz applicable: {flag[self.lefschetz_applicable]}")
        lines.append(f"  distinctness (h0_z1 != h0_z2): {flag[self.distinctness]}")
        lines.append(
            f"  nontrivial equivalence: {flag[self.nontrivial_equivalence]}"
        )
        if self.notes:
            lines.append("  notes:")
            lines.extend(f"    - {note}" for note in self.notes)
        return "\n".join(lines)


def verify_roof(
    label: str, r: Optional[int] = None, cap: Optional[int] = None
) -> RoofReport:
    """Run the full pipeline for one catalog member and assemble the report."""
    fam, P1, P2 = _resolve(label, r, cap)
    a, b = fam.crossed_pair
    notes = []
    class_f1 = class_of_quotient(P1)
    class_f2 = class_of_quotient(P2)
    classes_equal = class_f1 == class_f2
    residual = roof_identity_residual(class_f1, class_f2, fam.bundle_rank)
    if classes_equal != residual.is_zero:
        raise AssertionError("residual and class comparison disagree")
    certificate = (
        f"L^{fam.bundle_rank - 1}([Z1]-[Z2]) = 0" if classes_equal else None
    )

    igr_backend_agrees = None
    if fam.label == "C":
        igr_backend_agrees = (
            igr_class(a, fam.group_rank) == class_f1
            and igr_class(b, fam.group_rank) == class_f2
        )
        notes.append(
            "base classes recomputed from the isotropic point-count product "
            "formula; backends "
            + ("agree" if igr_backend_agrees else "DISAGREE")
        )

    koszul_z1: Optional[KoszulResult] = None
    koszul_z2: Optional[KoszulResult] = None
    if fam.product:
        notes.append(
            "zero loci are empty for this family (bundle rank exceeds base "
            "dimension); zero-locus cohomology is not computed"
        )
    else:
        koszul_z1 = koszul_zero_locus_cohomology(
            P1, fam.bundle_weight, _fundamental(P1.system, a), cap=cap
        )
        koszul_z2 = koszul_zero_locus_cohomology(
            P2, fam.bundle_weight, _fundamental(P2.system, b), cap=cap
        )

    lefschetz_applicable = fam.zero_locus_dimension > 2
    distinctness: Optional[bool] = None
    if not lefschetz_applicable:
        if fam.label == "A_M":
            notes.append(
                "zero loci are finite point sets; roofs of this type do not "
                "yield non-trivial L-equivalences"
            )
        elif not fam.product:
            notes.append(
                f"zero loci have dimension {fam.zero_locus_dimension}, too "
                "small for the Picard restriction that underpins the "
                "distinctness comparison; distinctness is not assessed"
            )
    elif koszul_z1.status != DETERMINED or koszul_z2.status != DETERMINED:
        notes.append(
            "zero-locus cohomology is not pinned down on both sides; "
            "distinctness is not assessed"
        )
    else:
        distinctness = koszul_z1.h0 != koszul_z2.h0
        if distinctness:
            notes.append(
                "distinctness rests on Picard restriction: an isomorphism "
                "of the zero loci would have to match the ample generators, "
                "so unequal h0 rules one out"
            )
        else:
            notes.append(
                "h0 values coincide; this comparison does not distinguish "
                "the zero loci"
            )
    if fam.label in ("D", "G2"):
        notes.append(
            "pairs in this family are documented in prior constructions; "
            "this report is informational"
        )

    return RoofReport(
        family=fam,
        class_f1=class_f1,
        class_f2=class_f2,
        classes_equal=classes_equal,
        residual=residual,
        certificate=certificate,
        koszul_z1=koszul_z1,
        koszul_z2=koszul_z2,
        igr_backend_agrees=igr_backend_agrees,
        lefschetz_applicable=lefschetz_applicable,
        distinctness=distinctness,
        notes=tuple(notes),
    )
