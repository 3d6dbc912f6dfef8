"""Cohomology of equivariant bundles: straightening, duality, aggregation."""

import itertools
import random

import pytest

from roofcalc import (
    DominanceError,
    SINGLE,
    VANISHES,
    Weight,
    build_root_system,
    bwb,
    compose,
    from_word,
    make_weight,
    parabolic,
)
from roofcalc.weyl import levi_root_data

from oracles import bundle_cohomology, check_regular_bwb, dot_action


def test_projective_line_bundles():
    # G/B for rank one is the projective line; O(t) has the classical
    # cohomology: H^0 of dimension t+1 for t >= 0, nothing at t = -1,
    # H^1 of dimension -t-1 for t <= -2
    a1 = build_root_system("A", 1)
    B = parabolic(a1, (1,))
    for t in range(-6, 7):
        res = bwb(B, make_weight(a1, (t,)))
        if t >= 0:
            assert res.status == SINGLE
            assert res.degree == 0
            assert res.dimension == t + 1
            assert res.g_highest_weight == Weight((t,))
        elif t == -1:
            assert res.status == VANISHES
            assert res.degree is None
            assert res.dimension is None
        else:
            assert res.status == SINGLE
            assert res.degree == 1
            assert res.dimension == -t - 1


def test_dot_action_identities():
    rng = random.Random(17)
    f4 = build_root_system("F4", 4)
    e = from_word(f4, ())
    for _ in range(30):
        chi = make_weight(f4, (rng.randint(-4, 4) for _ in range(4)))
        assert dot_action(e, chi) == chi
        v = from_word(f4, tuple(rng.randint(1, 4) for _ in range(5)))
        w = from_word(f4, tuple(rng.randint(1, 4) for _ in range(5)))
        assert dot_action(compose(v, w), chi) == dot_action(v, dot_action(w, chi))


def test_serre_duality_on_full_flag_c2():
    # K = E(-2 rho) on G/B, so chi and -2rho - chi pair up at
    # complementary degrees with equal dimensions
    c2 = build_root_system("C", 2)
    B = parabolic(c2, (1, 2))
    dim = len(c2.positive_roots)
    for coords in itertools.product(range(-5, 4), repeat=2):
        chi = make_weight(c2, coords)
        partner = -2 * c2.rho - chi
        r1 = bwb(B, chi)
        r2 = bwb(B, partner)
        assert (r1.status == VANISHES) == (r2.status == VANISHES)
        if r1.status == SINGLE:
            assert r1.degree + r2.degree == dim
            assert r1.dimension == r2.dimension


def test_serre_duality_for_line_bundles_on_isotropic_grassmannian():
    # partner weight is -nilsum - chi where nilsum is the sum of the
    # roots outside the Levi; complementary degrees sum to dim G/P
    c3 = build_root_system("C", 3)
    P = parabolic(c3, (1,))
    levi = {d.weight for d in levi_root_data(P)}
    nilsum = Weight((0, 0, 0))
    for beta in c3.positive_roots:
        if beta not in levi:
            nilsum = nilsum + beta
    dim = len(c3.positive_roots) - len(levi)
    assert dim == 5
    for t in range(-9, 5):
        chi = make_weight(c3, (t, 0, 0))
        partner = -nilsum - chi
        assert all(partner[i - 1] == 0 for i in P.retained)
        r1 = bwb(P, chi)
        r2 = bwb(P, partner)
        assert (r1.status == VANISHES) == (r2.status == VANISHES)
        if r1.status == SINGLE:
            assert r1.degree + r2.degree == dim
            assert r1.dimension == r2.dimension


def test_minus_rho_is_totally_singular():
    for label, rank in (("C", 3), ("F4", 4), ("G2", 2)):
        system = build_root_system(label, rank)
        B = parabolic(system, tuple(range(1, rank + 1)))
        res = bwb(B, -system.rho)
        assert res.status == VANISHES


def test_bundle_cohomology_aggregation():
    a1 = build_root_system("A", 1)
    B = parabolic(a1, (1,))
    agg = bundle_cohomology(B, [Weight((3,)), Weight((-5,)), Weight((-1,))])
    assert agg.degrees() == {0: 4, 1: 4}
    assert not agg.vanishes
    assert len(agg.summands) == 3
    statuses = [res.status for _, res in agg.summands]
    assert statuses == [SINGLE, SINGLE, VANISHES]
    assert bundle_cohomology(B, [Weight((-1,))]).vanishes
    assert bundle_cohomology(B, []).vanishes


def test_bwb_requires_levi_dominance():
    c3 = build_root_system("C", 3)
    P = parabolic(c3, (1,))
    with pytest.raises(DominanceError):
        bwb(P, make_weight(c3, (0, -1, 0)))
    # crossed coordinates may be arbitrarily negative
    bwb(P, make_weight(c3, (-7, 0, 0)))


def test_degree_bounded_by_quotient_dimension():
    f4 = build_root_system("F4", 4)
    P = parabolic(f4, (1,))
    dim = len(f4.positive_roots) - len(levi_root_data(P))
    for t in range(-16, 3):
        res = bwb(P, make_weight(f4, (t, 0, 0, 0)))
        if res.status == SINGLE:
            assert 0 <= res.degree <= dim


def test_regular_weights_of_high_degree_match_the_walk():
    # chi + rho with distinct eps-coordinates on the Borel: Single, in
    # degrees up to |Phi+|, against the chamber walk and the root-list
    # Weyl product; CI runs the same at rank 100
    for label in "ACD":
        assert check_regular_bwb(label, 20, 10) == 10
