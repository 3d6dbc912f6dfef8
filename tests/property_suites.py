"""The eight gated property suites.

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
    LeviIrrep,
    act,
    build_root_system,
    bwb,
    class_of_quotient,
    decompose_levi,
    dual_highest_weight,
    exterior_power,
    full_group,
    igr_class,
    igr_point_count,
    line_bundle_rank_check,
    longest_element,
    make_weight,
    parabolic,
    reflect,
    simple_reflection,
    weight_multiset,
    weyl_dimension,
    weyl_group_order,
)
from roofcalc.reps import _weyl_product
from roofcalc.weyl import levi_root_data

from oracles import (
    RANK_FIVE_SYSTEMS,
    all_nonempty_parabolics,
    brute_force_weyl,
    random_dominant_weight,
    random_parabolic,
    random_system,
    random_weight,
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
        assert once == act(simple_reflection(system, i), chi)
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
            assert res.dimension == weyl_dimension(system, res.g_highest_weight)
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
        P = full_group(system) if rng.random() < 0.5 else random_parabolic(rng, system)
        chi = random_dominant_weight(rng, P, lo=-3, hi=3)
        dim = weyl_dimension(P, chi)
        if dim > 10_000:
            continue
        ms = weight_multiset(LeviIrrep(P, chi))
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
            ms = weight_multiset(LeviIrrep(P, chi))
            dual_ms = weight_multiset(LeviIrrep(P, dual))
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
        ms = weight_multiset(LeviIrrep(P, chi))
        p = rng.randint(0, dim)
        power = exterior_power(ms, p)
        assert power.total == comb(dim, p)
        summands = decompose_levi(power, P)
        assert sum(m * weyl_dimension(P, hw) for hw, m in summands) == comb(dim, p)
        rebuilt: dict = {}
        for hw, m in summands:
            for w, c in weight_multiset(LeviIrrep(P, hw)):
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
        assert line_bundle_rank_check(chi, P) == expected, (system, P.crossed, chi)
        cases += 1
    return cases


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
)

ALL_SUITES = tuple(
    (name, cache(runner), threshold) for name, runner, threshold in _SUITES
)
