"""Representation data: dimensions, characters, duals, exterior powers."""

from math import comb, factorial, prod

import pytest

from roofcalc import (
    DominanceError,
    NotARepresentation,
    ResourceCapExceeded,
    RootSystemError,
    Weight,
    WeightMultiset,
    build_root_system,
    decompose_levi,
    dual_highest_weight,
    exterior_power,
    is_ample,
    make_weight,
    orbit,
    parabolic,
    roof_data,
    weight_multiset,
    weyl_dimension,
)
from roofcalc.reps import _exterior_power_summands
from roofcalc.rootsys import _epsilon, _pairings
from roofcalc.weyl import _levi_degrees, levi_root_data

from oracles import check_levi_dimension, every_or_random_parabolic


def fund(system, i):
    return make_weight(system, tuple(1 if j == i else 0 for j in range(1, system.rank + 1)))


def test_fundamental_dimensions_f4():
    f4 = build_root_system("F4", 4)
    G = parabolic(f4, ())
    dims = [weyl_dimension(G, fund(f4, i)) for i in (1, 2, 3, 4)]
    assert dims == [52, 1274, 273, 26]


def test_fundamental_dimensions_c5():
    c5 = build_root_system("C", 5)
    G = parabolic(c5, ())
    dims = [weyl_dimension(G, fund(c5, i)) for i in (1, 2, 3, 4, 5)]
    assert dims == [10, 44, 110, 165, 132]


def test_fundamental_dimensions_g2_d5_a4():
    g2 = build_root_system("G2", 2)
    assert weyl_dimension(parabolic(g2, ()), fund(g2, 1)) == 14
    assert weyl_dimension(parabolic(g2, ()), fund(g2, 2)) == 7
    d5 = build_root_system("D", 5)
    assert weyl_dimension(parabolic(d5, ()), fund(d5, 4)) == 16
    assert weyl_dimension(parabolic(d5, ()), fund(d5, 5)) == 16
    a4 = build_root_system("A", 4)
    for k in range(1, 5):
        assert weyl_dimension(parabolic(a4, ()), fund(a4, k)) == comb(5, k)


def test_symplectic_fundamental_dimension_formula():
    # dim V(omega_k) for Sp(2n) is binom(2n,k) - binom(2n,k-2)
    for n in (3, 4, 6, 8):
        system = build_root_system("C", n)
        G = parabolic(system, ())
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
        G = parabolic(system, ())
        ms = weight_multiset(G, make_weight(system, adjoint))
        assert ms.multiplicity(Weight((0,) * rank)) == rank
        assert ms.total == len(system.positive_roots) * 2 + rank


def test_weight_multiset_of_defining_rep_c3():
    c3 = build_root_system("C", 3)
    ms = weight_multiset(parabolic(c3, ()), fund(c3, 1))
    assert ms.total == 6
    assert all(m == 1 for _, m in ms)
    assert set(ms.counts) == {-w for w in ms.counts}


def test_dual_highest_weights():
    a4 = build_root_system("A", 4)
    G = parabolic(a4, ())
    assert dual_highest_weight(make_weight(a4, (1, 0, 0, 0)), G) == Weight((0, 0, 0, 1))
    assert dual_highest_weight(make_weight(a4, (2, 1, 0, 3)), G) == Weight((3, 0, 1, 2))
    c4 = build_root_system("C", 4)
    chi = make_weight(c4, (1, 2, 0, 3))
    assert dual_highest_weight(chi, parabolic(c4, ())) == chi
    d5 = build_root_system("D", 5)
    G5 = parabolic(d5, ())
    assert dual_highest_weight(fund(d5, 4), G5) == fund(d5, 5)
    assert dual_highest_weight(fund(d5, 5), G5) == fund(d5, 4)
    d4 = build_root_system("D", 4)
    assert dual_highest_weight(fund(d4, 3), parabolic(d4, ())) == fund(d4, 3)


def test_dual_for_levi_of_parabolic():
    f4 = build_root_system("F4", 4)
    P = parabolic(f4, (1,))
    chi = make_weight(f4, (-2, 0, 1, 1))
    dual = dual_highest_weight(chi, P)
    assert dual_highest_weight(dual, P) == chi
    assert weyl_dimension(P, dual) == weyl_dimension(P, chi)


def test_exterior_power_edges():
    c3 = build_root_system("C", 3)
    ms = weight_multiset(parabolic(c3, ()), fund(c3, 1))
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
    G = parabolic(c3, ())
    ms = weight_multiset(G, fund(c3, 1))
    summands = dict(decompose_levi(exterior_power(ms, 2), G))
    assert summands == {fund(c3, 2): 1, Weight((0, 0, 0)): 1}


def test_decompose_levi_rejects_non_characters():
    c3 = build_root_system("C", 3)
    G = parabolic(c3, ())
    # the defining character, made not W-stable; its straightening nets
    # {omega_1: 1} still match the size 6
    unstable = dict(weight_multiset(G, fund(c3, 1)).counts)
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
    # weights of another rank are no weights of C3
    with pytest.raises(RootSystemError):
        decompose_levi(WeightMultiset({(1, 0): 1}), G)


def test_dominance_error_names_the_node():
    c3 = build_root_system("C", 3)
    with pytest.raises(DominanceError) as err:
        weight_multiset(parabolic(c3, ()), make_weight(c3, (1, -1, 0)))
    assert "2" in str(err.value)
    # with several negative retained coordinates, the lowest node is named
    with pytest.raises(DominanceError) as err:
        weight_multiset(parabolic(c3, ()), make_weight(c3, (0, -2, -1)))
    assert str(err.value) == (
        "coordinate -2 at retained node 2 of Weight(0, -2, -1); "
        "dominance for Parabolic(C3, crossed={-}) requires >= 0"
    )
    # crossed nodes are exempt from the dominance requirement
    P = parabolic(c3, (2,))
    ms = weight_multiset(P, make_weight(c3, (1, -1, 0)))
    assert ms.total == weyl_dimension(P, (1, -1, 0)) == 2


def test_weight_multiset_takes_a_plain_tuple():
    c2 = build_root_system("C", 2)
    G = parabolic(c2, ())
    ms = weight_multiset(G, (1, 0))
    assert ms == weight_multiset(G, make_weight(c2, (1, 0)))
    assert ms.total == weyl_dimension(G, (1, 0)) == 4
    # outside data is checked where it enters, before any work
    for bad in ((1.0, 0), (1, 0, 0), (1,)):
        with pytest.raises(RootSystemError):
            weight_multiset(G, bad)
    # the cap is checked from the Weyl dimension before the walk
    with pytest.raises(ResourceCapExceeded) as exc:
        weight_multiset(G, (1, 0), cap=1)
    assert (exc.value.needed, exc.value.cap) == (4, 1)
    assert str(exc.value).startswith(
        "weight multiset of Weight(1, 0) for Parabolic(C2, crossed={-})"
    )


def test_is_ample_and_line_bundle_rank():
    c3 = build_root_system("C", 3)
    P = parabolic(c3, (2,))
    assert is_ample(make_weight(c3, (0, 1, 0)), P)
    assert not is_ample(make_weight(c3, (0, 0, 0)), P)
    assert not is_ample(make_weight(c3, (0, -1, 0)), P)
    assert weyl_dimension(P, make_weight(c3, (0, 5, 0))) == 1
    assert weyl_dimension(P, make_weight(c3, (1, 1, 0))) != 1
    assert weyl_dimension(P, make_weight(c3, (0, 7, 0))) == 1


def test_levi_dimension_splits_as_product():
    # Levi of C5 with node 3 crossed is GL-type A2 x C2 (times torus)
    c5 = build_root_system("C", 5)
    P = parabolic(c5, (3,))
    chi = make_weight(c5, (1, 1, 0, 1, 1))
    a2 = build_root_system("A", 2)
    c2 = build_root_system("C", 2)
    left = weyl_dimension(parabolic(a2, ()), make_weight(a2, (1, 1)))
    right = weyl_dimension(parabolic(c2, ()), make_weight(c2, (1, 1)))
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
            ms = weight_multiset(P, dual_highest_weight(fam.bundle_weight, P))
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


def test_epsilon_levi_dimension_matches_the_levi_root_product():
    # weyl_dimension, by eps-pairings on A, C and D and by Levi roots on
    # F4 and G2, over the closed-form product of rho, against the Weyl
    # product over the listed Levi roots, three weights a parabolic: every
    # parabolic up to rank 7 and of F4 and G2, then 20 random ones at
    # ranks 40 and 60
    cases = sum(check_levi_dimension("A", n) + check_levi_dimension("C", n)
                for n in range(1, 8))
    cases += sum(check_levi_dimension("D", n) for n in range(3, 8))
    cases += check_levi_dimension("F4", 4) + check_levi_dimension("G2", 2)
    assert cases == 2328
    for label, rank in (("C", 40), ("D", 40), ("A", 60)):
        assert check_levi_dimension(label, rank, 20) == 60


def test_rho_levi_product_is_the_factorial_product_of_the_degrees():
    # Kostant's duality of heights and exponents: prod <rho, beta-vee>
    # over the positive Levi roots is prod (d - 1)! over the degrees d of
    # W_I, on every parabolic of A1-A8, C1-C8, D3-D8, F4 and G2; rho's eps
    # rows multiply to the same, but D's doubled coordinates carry
    # exactly 2^|Phi+_L| on top
    systems = [("A", n) for n in range(1, 9)] + [("C", n) for n in range(1, 9)]
    systems += [("D", n) for n in range(3, 9)] + [("F4", 4), ("G2", 2)]
    cases = 0
    for label, rank in systems:
        for P in every_or_random_parabolic(label, rank):
            roots = levi_root_data(P)
            want = prod(factorial(d - 1) for d in _levi_degrees(P))
            assert prod(sum(data.coroot) for data in roots) == want, P
            if label in ("A", "C", "D"):
                rows = _pairings(label, _epsilon(label, P.system.rho), P.crossed)
                assert sum(map(len, rows)) == len(roots), P
                assert prod(map(prod, rows)) == want << len(roots) * (label == "D"), P
            cases += 1
    assert cases == 1544


def test_weight_multiset_membership():
    ms = WeightMultiset({(0, 1): 1, (1, -1): 2, (2, 2): 0})
    assert Weight((0, 1)) in ms and (1, -1) in ms
    assert (2, 2) not in ms and Weight((1, 1)) not in ms
