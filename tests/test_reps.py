"""Representation data: dimensions, characters, duals, exterior powers."""

from math import comb

import pytest

from roofcalc import (
    DominanceError,
    LeviIrrep,
    NotARepresentation,
    Weight,
    WeightMultiset,
    build_root_system,
    decompose_levi,
    dual_highest_weight,
    exterior_power,
    full_group,
    is_ample,
    line_bundle_rank_check,
    make_weight,
    orbit,
    parabolic,
    roof_data,
    weight_multiset,
    weyl_dimension,
)
from roofcalc.reps import _exterior_power_summands


def fund(system, i):
    return make_weight(system, tuple(1 if j == i else 0 for j in range(1, system.rank + 1)))


def test_fundamental_dimensions_f4():
    f4 = build_root_system("F4", 4)
    G = full_group(f4)
    dims = [weyl_dimension(G, fund(f4, i)) for i in (1, 2, 3, 4)]
    assert dims == [52, 1274, 273, 26]


def test_fundamental_dimensions_c5():
    c5 = build_root_system("C", 5)
    G = full_group(c5)
    dims = [weyl_dimension(G, fund(c5, i)) for i in (1, 2, 3, 4, 5)]
    assert dims == [10, 44, 110, 165, 132]


def test_fundamental_dimensions_g2_d5_a4():
    g2 = build_root_system("G2", 2)
    assert weyl_dimension(full_group(g2), fund(g2, 1)) == 14
    assert weyl_dimension(full_group(g2), fund(g2, 2)) == 7
    d5 = build_root_system("D", 5)
    assert weyl_dimension(full_group(d5), fund(d5, 4)) == 16
    assert weyl_dimension(full_group(d5), fund(d5, 5)) == 16
    a4 = build_root_system("A", 4)
    for k in range(1, 5):
        assert weyl_dimension(full_group(a4), fund(a4, k)) == comb(5, k)


def test_symplectic_fundamental_dimension_formula():
    # dim V(omega_k) for Sp(2n) is binom(2n,k) - binom(2n,k-2)
    for n in (3, 4, 6, 8):
        system = build_root_system("C", n)
        G = full_group(system)
        for k in range(1, n + 1):
            expected = comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
            assert weyl_dimension(G, fund(system, k)) == expected


def test_adjoint_zero_weight_multiplicity_is_rank():
    for label, rank, adjoint in (
        ("A", 3, (1, 0, 1)),
        ("C", 3, (2, 0, 0)),
        ("G2", 2, (1, 0)),
        ("F4", 4, (1, 0, 0, 0)),
    ):
        system = build_root_system(label, rank)
        G = full_group(system)
        ms = weight_multiset(LeviIrrep(G, make_weight(system, adjoint)))
        assert ms.multiplicity(Weight((0,) * rank)) == rank
        assert ms.total == len(system.positive_roots) * 2 + rank


def test_weight_multiset_of_defining_rep_c3():
    c3 = build_root_system("C", 3)
    ms = weight_multiset(LeviIrrep(full_group(c3), fund(c3, 1)))
    assert ms.total == 6
    assert all(m == 1 for _, m in ms)
    assert set(ms.counts) == {-w for w in ms.counts}


def test_dual_highest_weights():
    a4 = build_root_system("A", 4)
    G = full_group(a4)
    assert dual_highest_weight(make_weight(a4, (1, 0, 0, 0)), G) == Weight((0, 0, 0, 1))
    assert dual_highest_weight(make_weight(a4, (2, 1, 0, 3)), G) == Weight((3, 0, 1, 2))
    c4 = build_root_system("C", 4)
    chi = make_weight(c4, (1, 2, 0, 3))
    assert dual_highest_weight(chi, full_group(c4)) == chi
    d5 = build_root_system("D", 5)
    G5 = full_group(d5)
    assert dual_highest_weight(fund(d5, 4), G5) == fund(d5, 5)
    assert dual_highest_weight(fund(d5, 5), G5) == fund(d5, 4)
    d4 = build_root_system("D", 4)
    assert dual_highest_weight(fund(d4, 3), full_group(d4)) == fund(d4, 3)


def test_dual_for_levi_of_parabolic():
    f4 = build_root_system("F4", 4)
    P = parabolic(f4, (1,))
    chi = make_weight(f4, (-2, 0, 1, 1))
    dual = dual_highest_weight(chi, P)
    assert dual_highest_weight(dual, P) == chi
    assert weyl_dimension(P, dual) == weyl_dimension(P, chi)


def test_exterior_power_edges():
    c3 = build_root_system("C", 3)
    ms = weight_multiset(LeviIrrep(full_group(c3), fund(c3, 1)))
    top = exterior_power(ms, 6)
    assert top.total == 1
    assert top.multiplicity(Weight((0, 0, 0))) == 1
    unit = exterior_power(ms, 0)
    assert unit.total == 1
    assert unit.multiplicity(Weight((0, 0, 0))) == 1
    with pytest.raises(ValueError):
        exterior_power(ms, 7)
    with pytest.raises(ValueError):
        exterior_power(ms, -1)


def test_exterior_square_of_defining_symplectic_rep():
    # wedge^2 V(omega_1) = V(omega_2) + trivial for Sp(2n)
    c3 = build_root_system("C", 3)
    G = full_group(c3)
    ms = weight_multiset(LeviIrrep(G, fund(c3, 1)))
    summands = dict(decompose_levi(exterior_power(ms, 2), G))
    assert summands == {fund(c3, 2): 1, Weight((0, 0, 0)): 1}


def test_decompose_levi_rejects_non_characters():
    c3 = build_root_system("C", 3)
    G = full_group(c3)
    # the defining character, made not W-stable; its straightening nets
    # {omega_1: 1} still match the size 6
    unstable = dict(weight_multiset(LeviIrrep(G, fund(c3, 1))).counts)
    del unstable[make_weight(c3, (-1, 1, 0))]
    unstable[make_weight(c3, (-1, 2, -1))] = 1
    # the bare W-orbit of 2 omega_1 is W-stable; its net at 0 is -1
    bare_orbit = dict.fromkeys(orbit(make_weight(c3, (2, 0, 0)), G), 1)
    assert len(bare_orbit) == 6
    for counts in ({make_weight(c3, (1, 0, 0)): 1}, unstable, bare_orbit):
        with pytest.raises(NotARepresentation):
            decompose_levi(WeightMultiset(counts), G)
    with pytest.raises(ValueError, match="negative multiplicity -1"):
        WeightMultiset({make_weight(c3, (1, 0, 0)): -1})


def test_dominance_error_names_the_node():
    c3 = build_root_system("C", 3)
    with pytest.raises(DominanceError) as err:
        LeviIrrep(full_group(c3), make_weight(c3, (1, -1, 0)))
    assert "2" in str(err.value)
    # crossed nodes are exempt from the dominance requirement
    P = parabolic(c3, (2,))
    LeviIrrep(P, make_weight(c3, (1, -1, 0)))


def test_levi_irrep_stores_a_weight_from_a_plain_tuple():
    c2 = build_root_system("C", 2)
    G = full_group(c2)
    rep = LeviIrrep(G, (1, 0))
    assert type(rep.highest_weight) is Weight
    assert rep == LeviIrrep(G, make_weight(c2, (1, 0)))
    ms = weight_multiset(rep)
    assert ms.total == rep.dimension == 4


def test_is_ample_and_line_bundle_rank():
    c3 = build_root_system("C", 3)
    P = parabolic(c3, (2,))
    assert is_ample(make_weight(c3, (0, 1, 0)), P)
    assert not is_ample(make_weight(c3, (0, 0, 0)), P)
    assert not is_ample(make_weight(c3, (0, -1, 0)), P)
    assert line_bundle_rank_check(make_weight(c3, (0, 5, 0)), P)
    assert not line_bundle_rank_check(make_weight(c3, (1, 1, 0)), P)
    assert weyl_dimension(P, make_weight(c3, (0, 7, 0))) == 1


def test_levi_dimension_splits_as_product():
    # Levi of C5 with node 3 crossed is GL-type A2 x C2 (times torus)
    c5 = build_root_system("C", 5)
    P = parabolic(c5, (3,))
    chi = make_weight(c5, (1, 1, 0, 1, 1))
    a2 = build_root_system("A", 2)
    c2 = build_root_system("C", 2)
    left = weyl_dimension(full_group(a2), make_weight(a2, (1, 1)))
    right = weyl_dimension(full_group(c2), make_weight(c2, (1, 1)))
    assert weyl_dimension(P, chi) == left * right


def test_exterior_powers_have_binomial_dimensions_and_dual_halves():
    # beyond enumeration: every Lambda^p V has dimension C(n, p), and
    # Lambda^(n-p) V is the dual of Lambda^p V twisted by det V, the sum
    # of the weights of V
    for label, r in (("C", 6), ("A_M", 20), ("D", 12), ("F4", None), ("G2", None)):
        fam = roof_data(label, r)
        system = build_root_system(fam.group_type, fam.group_rank)
        for node in fam.crossed_pair:
            P = parabolic(system, (node,))
            ms = weight_multiset(LeviIrrep(P, dual_highest_weight(fam.bundle_weight, P)))
            n = ms.total
            det = Weight(tuple(sum(m * w[i] for w, m in ms) for i in range(system.rank)))
            powers = _exterior_power_summands(ms, P)
            assert len(powers) == n + 1, (label, node)
            for p, summands in enumerate(powers):
                dim = sum(m * weyl_dimension(P, hw) for hw, m in summands)
                assert dim == comb(n, p), (label, node, p)
                twisted = sorted(
                    (dual_highest_weight(hw, P) + det, m) for hw, m in summands
                )
                assert tuple(twisted) == powers[n - p], (label, node, p)
