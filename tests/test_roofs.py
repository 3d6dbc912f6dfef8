"""Roof catalog, Koszul zero-locus cohomology, and the verification report."""

import json
from pathlib import Path

import pytest

import roofcalc.roofs
from roofcalc import (
    DETERMINED,
    INCONCLUSIVE,
    SINGLE,
    Weight,
    build_root_system,
    bwb,
    catalog,
    class_of_quotient,
    igr_class,
    KoszulResult,
    decompose_levi,
    dual_highest_weight,
    exterior_power,
    koszul_zero_locus_cohomology,
    make_weight,
    parabolic,
    roof_data,
    verify_roof,
    weight_multiset,
    weyl_group_order,
)
from roofcalc.reps import _exterior_power_summands
from roofcalc.roofs import _collision_free

from oracles import check_closed_form_exterior_powers

JSON_KEYS = {
    "family", "r", "group", "crossed_pair", "roof_rank", "base_dims",
    "bundle_rank", "bundle_weight", "class_f1", "class_f2", "classes_equal",
    "residual", "certificate", "koszul_status_z1", "koszul_status_z2",
    "cohomology_z1", "cohomology_z2", "first_page_z1", "first_page_z2",
    "h0_z1", "h0_z2", "igr_backend_agrees", "lefschetz_applicable",
    "distinctness", "nontrivial_equivalence", "notes",
}


def test_catalog_shape():
    rows = catalog()
    assert [row["label"] for row in rows] == [
        "AxA", "A_M", "A_G", "C", "D", "F4", "G2",
    ]
    for row in rows:
        assert set(row) == {"label", "group", "crossed_pair", "roof_rank", "parameter"}


def test_readme_catalog_matches_catalog():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Roof catalog", 1)[1].split("\n## ", 1)[0]
    table = [line for line in section.splitlines() if line.startswith("|")]
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")] for line in table[2:]
    ]
    assert rows == [
        [row[k] for k in ("label", "group", "crossed_pair", "roof_rank", "parameter")]
        for row in catalog()
    ]


def test_roof_data_table():
    expected = {
        ("AxA", 1): ("A1 x A1", (1, 1), 1, 2),
        ("A_M", 2): ("A2", (1, 2), 2, 2),
        ("A_M", 3): ("A3", (1, 3), 3, 3),
        ("A_G", 2): ("A4", (2, 3), 6, 3),
        ("C", 1): ("C2", (1, 2), 3, 2),
        ("C", 2): ("C5", (3, 4), 18, 4),
        ("C", 3): ("C8", (5, 6), 45, 6),
        ("D", 4): ("D4", (3, 4), 6, 4),
        ("D", 5): ("D5", (4, 5), 10, 5),
        ("F4", None): ("F4", (2, 3), 20, 3),
        ("G2", None): ("G2", (1, 2), 5, 2),
    }
    for (label, r), (group, crossed, base, bundle) in expected.items():
        fam = roof_data(label, r)
        assert fam.group == group
        assert fam.crossed_pair == crossed
        assert fam.base_dims == base
        assert fam.bundle_rank == bundle
        assert fam.zero_locus_dimension == base - bundle
        if label == "AxA":
            assert fam.bundle_weight is None
        else:
            a, b = crossed
            weight = [0] * fam.group_rank
            weight[a - 1] += 1
            weight[b - 1] += 1
            assert fam.bundle_weight == Weight(weight)


def test_roof_data_errors():
    with pytest.raises(ValueError):
        roof_data("E8")
    with pytest.raises(ValueError):
        roof_data("F4", 2)
    with pytest.raises(ValueError):
        roof_data("G2", 1)
    with pytest.raises(ValueError):
        roof_data("C")
    for label, below in (("AxA", 0), ("A_M", 1), ("A_G", 1), ("C", 0), ("D", 3)):
        with pytest.raises(ValueError):
            roof_data(label, below)


def test_koszul_on_f4_sides():
    f4 = build_root_system("F4", 4)
    bundle = make_weight(f4, (0, 1, 1, 0))
    res1 = koszul_zero_locus_cohomology(
        f4_parabolic := parabolic(f4, (2,)), bundle, make_weight(f4, (0, 1, 0, 0))
    )
    assert res1.status == DETERMINED
    assert res1.h0 == 1274
    assert res1.cohomology == ((0, 1274),)
    assert all(p == 0 for p, _, _ in res1.first_page)
    res2 = koszul_zero_locus_cohomology(
        parabolic(f4, (3,)), bundle, make_weight(f4, (0, 0, 1, 0))
    )
    assert res2.status == DETERMINED
    assert res2.h0 == 273
    assert dict(res2.cohomology) == {0: 273}
    # when only the p = 0 column survives, the answer must equal plain
    # Borel-Weil-Bott of the twist
    base = bwb(f4_parabolic, make_weight(f4, (0, 1, 0, 0)))
    assert base.status == SINGLE and base.dimension == res1.h0


def test_koszul_rejects_a_twist_that_is_not_a_character():
    # O(twist) is a line bundle only when the twist vanishes on every
    # retained node; the error names the first node where it does not
    a2 = build_root_system("A", 2)
    f4 = build_root_system("F4", 4)
    for P, bundle, twist, node in (
        (parabolic(a2, (1,)), (1, 0), (0, 2), 2),
        (parabolic(a2, (1,)), (1, 0), (1, 1), 2),
        (parabolic(a2, (1,)), (1, 0), (1, -1), 2),
        (parabolic(f4, (2,)), (0, 1, 1, 0), (0, 1, 1, 0), 3),
    ):
        with pytest.raises(ValueError, match=rf"not a character .* retained node {node}$"):
            koszul_zero_locus_cohomology(P, bundle, twist)


def test_koszul_consistency_when_higher_terms_vanish():
    for label, r in (("A_G", 2), ("C", 2), ("D", 5), ("G2", None)):
        fam = roof_data(label, r)
        system = build_root_system(fam.group_type, fam.group_rank)
        for node in fam.crossed_pair:
            P = parabolic(system, (node,))
            twist = make_weight(
                system,
                tuple(1 if j == node else 0 for j in range(1, system.rank + 1)),
            )
            res = koszul_zero_locus_cohomology(P, fam.bundle_weight, twist)
            if all(p == 0 for p, _, _ in res.first_page):
                base = bwb(P, twist)
                expected = {base.degree: base.dimension} if base.status == SINGLE else {}
                assert res.status == DETERMINED
                assert dict(res.cohomology) == expected


def test_newton_exterior_powers_match_enumeration():
    # the Koszul route (Newton's identity in the character basis) against
    # listing every weight of every exterior power and straightening it
    for label, r in (("C", 2), ("C", 3), ("D", 9), ("A_M", 10), ("A_G", 4),
                     ("F4", None), ("G2", None)):
        fam = roof_data(label, r)
        system = build_root_system(fam.group_type, fam.group_rank)
        for node in fam.crossed_pair:
            P = parabolic(system, (node,))
            dual = dual_highest_weight(fam.bundle_weight, P)
            ms = weight_multiset(P, dual)
            enumerated = tuple(
                decompose_levi(exterior_power(ms, p), P) for p in range(ms.total + 1)
            )
            assert _exterior_power_summands(ms, P) == enumerated, (label, r, node)


def test_newton_exterior_powers_match_the_closed_form():
    # past enumeration's reach (2^n weights): E^dual is the standard
    # representation of one GL or Sp Levi factor, twisted by a character,
    # whose exterior powers have a closed form; production reads it off
    # one walk, and Newton's identity and the oracle's chain must agree on
    # all 120 sides of A_M 2-29, A_G 2-8, D 4-15, C 1-11, F4 and G2, and
    # on C r=14 and 18; C r=24 and A_M r=60 run in CI only
    members = [("A_M", r) for r in range(2, 30)] + [("A_G", r) for r in range(2, 9)]
    members += [("D", r) for r in range(4, 16)] + [("C", r) for r in (*range(1, 12), 14, 18)]
    sides = sum(check_closed_form_exterior_powers(label, r) for label, r in members)
    sides += check_closed_form_exterior_powers("F4") + check_closed_form_exterior_powers("G2")
    assert sides == 124


def test_pinned_h0_beyond_enumeration():
    # C r=6..8 as recorded from the exterior-power enumeration; A_M and D
    # continue the enumerated patterns h0 = r + 1 (r <= 14) and
    # h0 = 2^(r-1) (r <= 12)
    for label, r, h0 in (
        ("C", 6, (233646504, 417225900)),
        ("C", 7, (9721421440, 17620076360)),
        ("C", 8, (409972529754, 751616304549)),
        ("A_M", 20, (21, 21)),
        ("D", 20, (524288, 524288)),
    ):
        rep = verify_roof(label, r)
        assert (rep.h0_z1, rep.h0_z2) == h0, (label, r)


def test_pinned_h0_at_larger_ranks():
    # computed with Newton's identity in every Koszul degree, a route to
    # the upper half independent of duality
    for label, r, h0 in (
        ("C", 14, (2682251865977033138160, 5096278545356362962504)),
        ("A_M", 40, (41, 41)),
    ):
        rep = verify_roof(label, r)
        assert (rep.h0_z1, rep.h0_z2) == h0, (label, r)


def test_collision_free_rules():
    # single column: always degenerate
    assert _collision_free(((0, 0, 5), (0, 3, 2)))
    # distinct totals, no differential alignment
    assert _collision_free(((0, 0, 1), (2, 5, 1)))
    # repeated total degree
    assert not _collision_free(((0, 2, 1), (1, 3, 1)))
    # d_k differential: (-p, q) -> (-p + k, q - k + 1) with k = 2
    assert not _collision_free(((3, 4, 1), (1, 3, 1)))
    assert _collision_free(())


def test_verify_f4_report():
    rep = verify_roof("F4")
    assert rep.classes_equal
    assert rep.residual.is_zero
    assert rep.certificate == "L^2([Z1]-[Z2]) = 0"
    assert rep.h0_z1 == 1274
    assert rep.h0_z2 == 273
    assert rep.lefschetz_applicable
    assert rep.distinctness is True
    assert rep.nontrivial_equivalence
    assert rep.igr_backend_agrees is None


def test_verify_c2_report():
    rep = verify_roof("C", 2)
    assert rep.classes_equal
    assert rep.igr_backend_agrees is True
    assert rep.certificate == "L^3([Z1]-[Z2]) = 0"
    assert (rep.h0_z1, rep.h0_z2) == (110, 165)
    assert rep.distinctness is True
    assert rep.nontrivial_equivalence
    assert rep.class_f1 == igr_class(3, 5)
    assert rep.class_f2 == igr_class(4, 5)


def test_verify_product_family():
    rep = verify_roof("AxA", 1)
    assert rep.classes_equal
    assert rep.koszul_z1 is None and rep.koszul_z2 is None
    assert rep.h0_z1 is None and rep.h0_z2 is None
    assert not rep.lefschetz_applicable
    assert rep.distinctness is None
    assert not rep.nontrivial_equivalence
    assert any("empty" in note for note in rep.notes)


def test_verify_finite_zero_loci():
    rep = verify_roof("A_M", 3)
    assert rep.classes_equal
    assert rep.distinctness is None
    assert not rep.nontrivial_equivalence
    assert any("non-trivial" in note for note in rep.notes)


def test_verify_small_dimension_excluded():
    for label, r in (("C", 1), ("D", 4)):
        rep = verify_roof(label, r)
        assert not rep.lefschetz_applicable
        assert rep.distinctness is None
        assert not rep.nontrivial_equivalence


def test_verify_coincident_h0():
    rep = verify_roof("A_G", 2)
    assert rep.classes_equal
    assert rep.lefschetz_applicable
    assert (rep.h0_z1, rep.h0_z2) == (10, 10)
    assert rep.distinctness is False
    assert not rep.nontrivial_equivalence
    rep5 = verify_roof("D", 5)
    assert (rep5.h0_z1, rep5.h0_z2) == (16, 16)
    assert rep5.distinctness is False
    assert any("informational" in note for note in rep5.notes)


def test_verify_g2_report():
    rep = verify_roof("G2")
    assert rep.classes_equal
    assert (rep.h0_z1, rep.h0_z2) == (14, 7)
    assert rep.distinctness is True
    assert rep.nontrivial_equivalence
    assert any("informational" in note for note in rep.notes)


def test_verify_inconclusive_side_assesses_no_distinctness(monkeypatch):
    # no catalog member leaves a side Inconclusive, so make G2's second
    # side (dim Z = 3, past the Lefschetz bound) give up
    determined = roofcalc.roofs.koszul_zero_locus_cohomology
    sides = []

    def second_side_inconclusive(P, bundle_hw, twist, cap=None):
        sides.append(P)
        res = determined(P, bundle_hw, twist, cap=cap)
        return res if len(sides) == 1 else KoszulResult(INCONCLUSIVE, res.first_page, None, None)

    monkeypatch.setattr(roofcalc.roofs, "koszul_zero_locus_cohomology", second_side_inconclusive)
    rep = verify_roof("G2")
    assert len(sides) == 2 and rep.family.zero_locus_dimension == 3
    assert (rep.koszul_z1.status, rep.koszul_z2.status) == (DETERMINED, INCONCLUSIVE)
    assert rep.lefschetz_applicable and rep.classes_equal
    assert rep.distinctness is None
    assert rep.nontrivial_equivalence is False
    assert "zero-locus cohomology is not pinned down on both sides; " \
        "distinctness is not assessed" in rep.notes


def test_certificate_iff_classes_equal():
    for label, r in (
        ("AxA", 1), ("AxA", 2), ("A_M", 2), ("A_G", 2),
        ("C", 1), ("C", 2), ("D", 4), ("D", 5), ("F4", None), ("G2", None),
    ):
        rep = verify_roof(label, r)
        assert rep.classes_equal == (rep.certificate is not None)
        assert rep.classes_equal == rep.residual.is_zero
        if rep.certificate is not None:
            assert rep.certificate == f"L^{rep.family.bundle_rank - 1}([Z1]-[Z2]) = 0"


def test_report_json_schema():
    for label, r in (("F4", None), ("C", 2), ("AxA", 1)):
        payload = verify_roof(label, r).to_json_dict()
        assert set(payload) == JSON_KEYS
        # must survive a JSON round trip unchanged
        assert json.loads(json.dumps(payload)) == payload


def test_report_text_rendering():
    text = verify_roof("F4").render_text()
    assert "roof family F4" in text
    assert "classes equal: yes" in text
    assert "certificate: L^2([Z1]-[Z2]) = 0" in text
    assert "Determined" in text
    text2 = verify_roof("AxA", 1).render_text()
    assert "not computed" in text2
    assert "nontrivial equivalence: no" in text2


def test_c3_coset_count_factors_group_order():
    fam = roof_data("C", 3)
    system = build_root_system(fam.group_type, fam.group_rank)
    a, _ = fam.crossed_pair
    poly = class_of_quotient(parabolic(system, (a,)))
    cosets = sum(poly.coeffs)
    levi_order = weyl_group_order(build_root_system("A", a - 1)) * weyl_group_order(
        build_root_system("C", fam.group_rank - a)
    )
    assert cosets * levi_order == weyl_group_order(system)
