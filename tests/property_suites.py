"""The eleven gated property suites.

Each function runs its whole sweep, raises AssertionError on the first
violation, and returns the number of cases checked.  Each suite is an
ordinary test in test_properties.py and a PASS/FAIL line of criterion 5
of the acceptance gate; both assert that the case count meets the
required threshold.  The suites are seeded, so ALL_SUITES memoizes each
runner's count and a pytest session runs every sweep only once.  A
failing sweep raises instead of returning, so it is not memoized and
fails in both places.
"""

from __future__ import annotations

import random
from functools import cache
from math import comb

from roofcalc import (
    SINGLE,
    VANISHES,
    Weight,
    act,
    build_root_system,
    bwb,
    class_of_quotient,
    decompose_levi,
    dual_highest_weight,
    exterior_power,
    from_word,
    igr_class,
    igr_point_count,
    longest_element,
    make_weight,
    parabolic,
    reflect,
    weight_multiset,
    weyl_dimension,
    weyl_group_order,
)
from roofcalc.reps import _exterior_power_summands, _product, _standard_exterior_powers
from roofcalc.weyl import levi_root_data, straighten

from oracles import (
    RANK_FIVE_SYSTEMS,
    _weyl_product,
    all_nonempty_parabolics,
    brute_force_weyl,
    ordered_product,
    random_dominant_weight,
    random_parabolic,
    random_system,
    random_weight,
    rescan_straighten,
    standard_exterior_powers,
    walk_bwb,
)


def suite_reflection_involution() -> int:
    """s_i is an involution and subtracts the pairing times alpha_i."""
    rng = random.Random(101)
    cases = 0
    while cases < 240:
        system = random_system(rng)
        chi = random_weight(rng, system, -6, 6)
        i = rng.randint(1, system.rank)
        once = reflect(system, chi, i)
        assert reflect(system, once, i) == chi
        assert once == act(from_word(system, (i,)), chi)
        alpha = system.simple_roots[i - 1]
        assert once == chi - chi[i - 1] * alpha
        cases += 1
    return cases


def suite_coset_polynomials() -> int:
    """[G/P] is palindromic and nonnegative, and its value at 1 is the index.

    For rank <= 4 the index is arbitrated by brute-force enumeration of
    W acting on a probe weight whose stabilizer is exactly W_I.
    """
    sweep = [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
        ("C", 2), ("C", 3), ("C", 4), ("C", 5),
        ("D", 3), ("D", 4), ("D", 5),
        ("F4", 4), ("G2", 2),
    ]
    cases = 0
    for label, rank in sweep:
        system = build_root_system(label, rank)
        order = weyl_group_order(system)
        elements = brute_force_weyl(system) if rank <= 4 else None
        if elements is not None:
            assert len(elements) == order
        for P in all_nonempty_parabolics(system):
            poly = class_of_quotient(P)
            coeffs = poly.coeffs
            assert all(c >= 0 for c in coeffs), (label, rank, P.crossed)
            assert coeffs == tuple(reversed(coeffs)), (label, rank, P.crossed)
            dim = len(system.positive_roots) - len(levi_root_data(P))
            assert poly.degree == dim, (label, rank, P.crossed)
            index = sum(coeffs)
            assert order % index == 0, (label, rank, P.crossed)
            if elements is not None:
                probe = make_weight(
                    system,
                    tuple(
                        1 if i in P.crossed else 0
                        for i in range(1, system.rank + 1)
                    ),
                )
                images = {act(w, probe) for w in elements}
                assert len(images) == index, (label, rank, P.crossed)
            cases += 1
    return cases


def suite_bwb_dichotomy() -> int:
    """Vanishes exactly on dot-singular weights; degree counts negatives.

    The oracle pairs chi + rho against every positive coroot: a zero
    forces vanishing, otherwise the degree is the number of negative
    pairings and degree 0 happens exactly on G-dominant weights.  The
    signed Weyl product of chi + rho is 0 on Vanishes and (-1)^degree
    times the dimension on Single (Bott's form of the theorem).
    """
    rng = random.Random(211)
    cases = 0
    while cases < 400:
        system = random_system(rng)
        P = random_parabolic(rng, system)
        chi = random_dominant_weight(rng, P, lo=-6, hi=4)
        res = bwb(P, chi)
        v = chi + system.rho
        pairings = [system.coroot_pairing(v, data) for data in system.root_data]
        signed = _weyl_product(system.root_data, v)
        if any(p == 0 for p in pairings):
            assert res.status == VANISHES, (system, P.crossed, chi)
            assert signed == 0, (system, P.crossed, chi)
        else:
            assert res.status == SINGLE, (system, P.crossed, chi)
            negatives = sum(1 for p in pairings if p < 0)
            assert res.degree == negatives, (system, P.crossed, chi)
            g_dominant = all(c >= 0 for c in chi)
            assert (res.degree == 0) == g_dominant, (system, P.crossed, chi)
            if res.degree == 0:
                assert res.g_highest_weight == chi
            assert res.dimension == weyl_dimension(parabolic(system, ()), res.g_highest_weight)
            assert signed == (-1) ** res.degree * res.dimension, (system, P.crossed, chi)
            assert all(c >= 0 for c in res.g_highest_weight)
        cases += 1
    return cases


def suite_freudenthal_totals() -> int:
    """Character sizes from the recursion match the Weyl product formula.

    Racah-Speiser (decompose_levi) splits each character back into chi alone.
    """
    rng = random.Random(311)
    cases = 0
    while cases < 200:
        system = random_system(rng, pool=RANK_FIVE_SYSTEMS)
        P = parabolic(system, ()) if rng.random() < 0.5 else random_parabolic(rng, system)
        chi = random_dominant_weight(rng, P, lo=-3, hi=3)
        dim = weyl_dimension(P, chi)
        if dim > 10_000:
            continue
        ms = weight_multiset(P, chi)
        assert ms.total == dim, (system, P.crossed, chi)
        assert ms.multiplicity(chi) == 1
        lowest = act(longest_element(P), chi)
        assert ms.multiplicity(lowest) == 1
        assert decompose_levi(ms, P) == ((chi, 1),), (system, P.crossed, chi)
        cases += 1
    return cases


def suite_duality_involution() -> int:
    """Dualizing is an involution, keeps dimensions, negates weight sets."""
    rng = random.Random(401)
    cases = 0
    while cases < 200:
        system = random_system(rng)
        P = random_parabolic(rng, system)
        chi = random_dominant_weight(rng, P, lo=-4, hi=3)
        dual = dual_highest_weight(chi, P)
        assert dual_highest_weight(dual, P) == chi, (system, P.crossed, chi)
        assert weyl_dimension(P, dual) == weyl_dimension(P, chi)
        if weyl_dimension(P, chi) <= 300:
            ms = weight_multiset(P, chi)
            dual_ms = weight_multiset(P, dual)
            assert dict(dual_ms.counts) == {-w: m for w, m in ms}
        cases += 1
    return cases


def suite_exterior_partition() -> int:
    """decompose_levi partitions each exterior power exactly.

    Rebuilding the characters of the returned summands with their
    multiplicities must reproduce the exterior-power multiset weight by
    weight, and the dimensions must sum to binom(dim, p).
    """
    rng = random.Random(523)
    cases = 0
    while cases < 200:
        system = random_system(rng)
        P = random_parabolic(rng, system)
        chi = random_dominant_weight(rng, P, lo=-3, hi=2)
        dim = weyl_dimension(P, chi)
        if not 2 <= dim <= 9:
            continue
        ms = weight_multiset(P, chi)
        p = rng.randint(0, dim)
        power = exterior_power(ms, p)
        assert power.total == comb(dim, p)
        summands = decompose_levi(power, P)
        assert sum(m * weyl_dimension(P, hw) for hw, m in summands) == comb(dim, p)
        rebuilt: dict = {}
        for hw, m in summands:
            for w, c in weight_multiset(P, hw):
                rebuilt[w] = rebuilt.get(w, 0) + m * c
        assert rebuilt == dict(power.counts), (system, P.crossed, chi, p)
        cases += 1
    return cases


def suite_igr_agreement() -> int:
    """IGr product-formula classes, height-product classes and point counts agree.

    Exhaustive on 1 <= d <= min(3, n), n <= 4, with point counts checked
    at the five primes 2, 3, 5, 7, 11.
    """
    cases = 0
    for n in range(1, 5):
        for d in range(1, min(3, n) + 1):
            cls = igr_class(d, n)
            system = build_root_system("C", n)
            assert cls == class_of_quotient(parabolic(system, (d,))), (d, n)
            cases += 1
            for q in (2, 3, 5, 7, 11):
                assert cls(q) == igr_point_count(d, n, q), (d, n, q)
                cases += 1
    return cases


def suite_line_bundle_rank() -> int:
    """Rank one happens exactly on weights supported on crossed nodes."""
    rng = random.Random(631)
    cases = 0
    while cases < 200:
        system = random_system(rng)
        P = random_parabolic(rng, system)
        chi = random_dominant_weight(rng, P, lo=-4, hi=3)
        expected = all(chi[i - 1] == 0 for i in P.retained)
        assert (weyl_dimension(P, chi) == 1) == expected, (system, P.crossed, chi)
        cases += 1
    return cases


def suite_sparse_levi_walk() -> int:
    """The walk of reps._product against the ordered straightening.

    Random products sum c chi_lambda psi^k(V), lambda Levi-dominant, k in
    1..4 and V a random Levi irrep, must give the nonzero nets of
    oracles.ordered_product.  The sweep must meet singular images (some
    lambda + k mu + rho orthogonal to a Levi coroot) and cancellations (a
    zero net) in at least 20 cases each.
    """
    rng = random.Random(727)
    cases = singular = cancelled = 0
    while cases < 200:
        system = random_system(rng, pool=RANK_FIVE_SYSTEMS)
        P = parabolic(system, ()) if rng.random() < 0.25 else random_parabolic(rng, system)
        chi = random_dominant_weight(rng, P, lo=-3, hi=2)
        if weyl_dimension(P, chi) > 80:
            continue
        weights = tuple(weight_multiset(P, chi))
        terms = [
            (random_dominant_weight(rng, P, lo=-3, hi=3), rng.randint(1, 4),
             rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        expected = ordered_product(P, terms, weights)
        got = _product(P, terms, weights)
        assert got == {hw: n for hw, n in expected.items() if n}, (system, P.crossed, chi, terms)
        lroots = levi_root_data(P)
        singular += any(
            _weyl_product(lroots, lam + mu * k + system.rho) == 0
            for lam, k, _ in terms
            for mu, _ in weights
        )
        cancelled += 0 in expected.values()
        cases += 1
    assert singular >= 20 and cancelled >= 20, (singular, cancelled)
    return cases


def suite_rescan_straightening() -> int:
    """weyl.straighten against the rescan from node 1, image and letters.

    Random weights over every node and over random ascending node subsets,
    then a few weights of C53 and C71, the groups of the C r=18 and r=24
    roofs, where a walk runs thousands of letters.
    """
    rng = random.Random(829)
    cases = 0
    while cases < 200:
        system = random_system(rng, pool=RANK_FIVE_SYSTEMS)
        nodes = range(1, system.rank + 1)
        if cases % 2:
            nodes = [i for i in nodes if rng.random() < 0.6]
        v = random_weight(rng, system, -6, 6)
        assert straighten(system, v, nodes) == rescan_straighten(system, v, nodes), (
            system, nodes, v
        )
        cases += 1
    for rank in (53, 71):
        system = build_root_system("C", rank)
        for subset in (False, True, True):
            nodes = range(1, rank + 1)
            if subset:
                nodes = [i for i in nodes if rng.random() < 0.8]
            v = random_weight(rng, system, -3, 3)
            assert straighten(system, v, nodes) == rescan_straighten(system, v, nodes), (
                system, nodes, v
            )
            cases += 1
    return cases


def suite_chamber_arithmetic() -> int:
    """The eps-coordinate routines against weyl's walk.

    bwb on A, C and D against oracles.walk_bwb, on random weights with
    walls (Vanishes), C1, D3 and D's spin nodes (odd coordinates there,
    so half-integral eps-coordinates); and the closed-form exterior
    powers of reps._standard_exterior_powers against Newton's identity
    (reps._exterior_power_summands) and the chain of
    oracles.standard_exterior_powers, on random A, C and D parabolics
    whose V is a GL or Sp standard representation or its dual, twisted,
    and on V that is no standard one (D spin, Lambda^2 and Sym^2 of a
    standard, C2 omega_2, Levi adjoints), where the walk must give None.
    The dual itself is checked in suite_duality_involution, against the
    negated Freudenthal weights.
    """
    rng = random.Random(929)
    cases = vanishes = spin = 0
    pool = (("A", 1), ("A", 4), ("A", 7), ("C", 1), ("C", 2), ("C", 5), ("D", 3), ("D", 4),
            ("D", 6))
    while cases < 150:
        system = random_system(rng, pool)
        P = random_parabolic(rng, system)
        chi = random_dominant_weight(rng, P, lo=-7, hi=3)
        assert bwb(P, chi) == walk_bwb(P, chi), (system, P.crossed, chi)
        vanishes += bwb(P, chi).status == VANISHES
        spin += system.type_label == "D" and (chi[-1] + chi[-2]) % 2 == 1
        cases += 1
    assert vanishes >= 30 and cases - vanishes >= 30 and spin >= 15, (vanishes, spin)
    gl = sp = none = 0
    for system, crossed, hw in _NOT_STANDARD:  # D spin, Lambda^2, Sym^2, C2 omega_2, adjoints
        P = parabolic(build_root_system(*system), crossed)
        assert _standard_exterior_powers(P, Weight(hw)) is None, (system, crossed, hw)
        assert not _is_standard(weight_multiset(P, hw), P), (system, crossed, hw)
        none += 1
        cases += 1
    while cases < 270:
        system = random_system(rng, (("A", 3), ("A", 6), ("C", 2), ("C", 3), ("C", 5),
                                     ("D", 4), ("D", 5)))
        P = random_parabolic(rng, system)
        if system.type_label == "C" and cases % 2:  # keep a C block of rank >= 2 at the end
            P = parabolic(system, [i for i in P.crossed if i < system.rank - 1] or [1])
        twist = [rng.randint(-3, 3) if i in P.crossed else 0 for i in range(1, system.rank + 1)]
        omega = {i: Weight(int(j == i) for j in range(1, system.rank + 1)) for i in P.retained}
        standard = [i for i in sorted(P.retained)
                    if _is_standard(weight_multiset(P, omega[i]), P)]
        if standard and rng.random() < 0.7:  # a GL or Sp standard or its dual, twisted
            hw = omega[rng.choice(standard)] + twist
        elif P.retained:  # one retained node off the standard ones, or a sum of two
            i, j = rng.choice(sorted(P.retained)), rng.choice(sorted(P.retained))
            hw = omega[i] + omega[j] + twist if i in standard else omega[i] + twist
        else:
            hw = Weight(twist)
        ms = weight_multiset(P, hw)
        got = _standard_exterior_powers(P, hw)
        if not _is_standard(ms, P):
            assert got is None, (system, P.crossed, hw)
            none += 1
        else:
            assert got == standard_exterior_powers(ms, P), (system, P.crossed, hw)
            assert got == _exterior_power_summands(ms, P), (system, P.crossed, hw)
            sp += len(got) > 4 and len(got[2]) == 2  # Lambda^2 V = V(omega_2) + det on Sp
            gl += len(got) > 2 and len(got[2]) == 1
        cases += 1
    assert gl >= 15 and sp >= 8 and none >= 12, (gl, sp, none)
    return cases


# (type, rank), crossed nodes, highest weight: V is no GL or Sp standard
_NOT_STANDARD = (
    (("D", 5), (), (0, 0, 0, 0, 1)),  # a spin representation of D5
    (("D", 5), (1,), (-2, 0, 0, 1, 0)),  # a spin representation of the D4 Levi
    (("A", 4), (), (0, 1, 0, 0)),  # Lambda^2 of the standard
    (("A", 3), (), (2, 0, 0)),  # Sym^2 of the standard
    (("C", 2), (), (0, 1)),  # omega_2 of C2, 5-dimensional
    (("A", 4), (4,), (1, 0, 1, 3)),  # the adjoint of the GL4 Levi, twisted
)


def _is_standard(ms, P) -> bool:
    """Whether standard_exterior_powers takes V = ms as a GL or Sp standard."""
    try:
        standard_exterior_powers(ms, P)
    except AssertionError:
        return False
    return True


# (name, runner, required case count); igr is exhaustive on its range
_SUITES = (
    ("reflection involution", suite_reflection_involution, 200),
    ("palindromic coset polynomials", suite_coset_polynomials, 200),
    ("bwb dichotomy", suite_bwb_dichotomy, 200),
    ("freudenthal totals", suite_freudenthal_totals, 200),
    ("duality involution", suite_duality_involution, 200),
    ("exterior-power partition", suite_exterior_partition, 200),
    ("igr agreement", suite_igr_agreement, 54),
    ("line bundle rank", suite_line_bundle_rank, 200),
    ("sparse Levi walk", suite_sparse_levi_walk, 200),
    ("rescan straightening", suite_rescan_straightening, 200),
    ("chamber arithmetic", suite_chamber_arithmetic, 200),
)

ALL_SUITES = tuple(
    (name, cache(runner), threshold) for name, runner, threshold in _SUITES
)
