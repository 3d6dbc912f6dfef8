"""Weyl group elements, parabolic cosets, orbits."""

import random

import pytest

from roofcalc import (
    ResourceCapExceeded,
    RootSystemError,
    act,
    build_root_system,
    compose,
    coset_lengths,
    from_word,
    inverse,
    longest_element,
    make_weight,
    minimal_coset_reps,
    orbit,
    parabolic,
    reflect,
    weyl_group_order,
)
from roofcalc.weyl import coset_count, levi_root_data

from oracles import (
    SMALL_SYSTEMS,
    all_nonempty_parabolics,
    brute_force_weyl,
    check_canonical_coset_words,
    check_height_exponents,
    greedy_right_descent,
    inversions,
    positive_root_index,
    random_parabolic,
    random_system,
    random_weight,
    two_way_orbit,
    weyl_group_order_formula,
)


def test_group_orders_by_brute_force():
    for label, rank, order in (
        ("A", 3, 24),
        ("A", 4, 120),
        ("C", 3, 48),
        ("C", 4, 384),
        ("D", 4, 192),
        ("G2", 2, 12),
        ("F4", 4, 1152),
    ):
        system = build_root_system(label, rank)
        assert weyl_group_order(system) == order
        assert len(brute_force_weyl(system)) == order


def test_group_orders_match_type_formulas():
    cases = [("A", n) for n in range(1, 13)] + [("C", n) for n in range(2, 11)]
    cases += [("D", n) for n in range(3, 11)] + [("F4", 4), ("G2", 2)]
    for label, rank in cases:
        order = weyl_group_order(build_root_system(label, rank))
        assert order == weyl_group_order_formula(label, rank), (label, rank)


def test_from_word_reduces():
    c3 = build_root_system("C", 3)
    # s1 s1 = e, and a braid-equivalent pair lands on the same element
    assert from_word(c3, (1, 1)) == from_word(c3, ())
    assert from_word(c3, (1, 2, 1)) == from_word(c3, (2, 1, 2))
    w = from_word(c3, (1, 2, 1, 1, 3, 3, 2))
    assert len(w.word) == inversions(w)
    for node in (0, 4):
        with pytest.raises(RootSystemError, match=f"node index {node} out of range"):
            from_word(c3, (1, node))


def test_canonical_word_is_greedy_right_descent():
    # `weyl cosets` prints these words, so the convention itself is pinned
    rng = random.Random(17)
    for label, rank in SMALL_SYSTEMS:
        system = build_root_system(label, rank)
        for _ in range(20):
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 12)))
            assert from_word(system, word).word == greedy_right_descent(system, word)
    for label, rank in (
        ("A", 1),
        ("A", 2),
        ("A", 3),
        ("A", 4),
        ("C", 2),
        ("C", 3),
        ("D", 4),
        ("G2", 2),
    ):
        system = build_root_system(label, rank)
        for P in all_nonempty_parabolics(system):
            for w in minimal_coset_reps(P):
                assert w.word == greedy_right_descent(system, w.word)


def test_length_equals_inversions():
    rng = random.Random(7)
    for label, rank in (("A", 3), ("C", 3), ("D", 4), ("F4", 4), ("G2", 2)):
        system = build_root_system(label, rank)
        for _ in range(25):
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 12)))
            w = from_word(system, word)
            assert len(w.word) == inversions(w)
            assert len(w.word) <= len(word)


def test_group_axioms():
    rng = random.Random(11)
    system = build_root_system("C", 3)
    e = from_word(system, ())
    for _ in range(40):
        v = from_word(system, tuple(rng.randint(1, 3) for _ in range(6)))
        w = from_word(system, tuple(rng.randint(1, 3) for _ in range(6)))
        assert compose(v, inverse(v)) == e
        assert compose(inverse(v), v) == e
        assert compose(e, v) == v
        assert inverse(inverse(w)) == w
        chi = make_weight(system, (rng.randint(-3, 3) for _ in range(3)))
        assert act(compose(v, w), chi) == act(v, act(w, chi))


def test_compose_rejects_mixed_systems():
    a = from_word(build_root_system("A", 2), ())
    g = from_word(build_root_system("G2", 2), ())
    with pytest.raises(RootSystemError):
        compose(a, g)


def test_act_by_word_is_iterated_reflection():
    rng = random.Random(13)
    system = build_root_system("F4", 4)
    for _ in range(30):
        word = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 10)))
        w = from_word(system, word)
        chi = make_weight(system, (rng.randint(-4, 4) for _ in range(4)))
        image = chi
        for i in reversed(word):
            image = reflect(system, image, i)
        assert act(w, chi) == image


def test_longest_element():
    for label, rank in (("A", 4), ("C", 4), ("D", 4), ("F4", 4), ("G2", 2)):
        system = build_root_system(label, rank)
        w0 = longest_element(parabolic(system, ()))
        assert len(w0.word) == len(system.positive_roots)
        assert compose(w0, w0) == from_word(system, ())
        assert act(w0, system.rho) == -system.rho
        assert act(w0, act(w0, system.rho)) == system.rho


def test_longest_element_of_levi():
    c3 = build_root_system("C", 3)
    P = parabolic(c3, (1,))
    w = longest_element(P)
    assert len(w.word) == len(levi_root_data(P))
    assert set(w.word) <= P.retained


def test_minimal_coset_reps_characterization():
    # minimal length in wW_I means w maps every retained simple root to a
    # positive root; counts must match a brute-force orbit count
    for label, rank, crossed in (
        ("A", 3, (2,)),
        ("C", 3, (1,)),
        ("C", 3, (2, 3)),
        ("D", 4, (4,)),
        ("F4", 4, (4,)),
        ("G2", 2, (1,)),
    ):
        system = build_root_system(label, rank)
        P = parabolic(system, crossed)
        reps = minimal_coset_reps(P)
        index = positive_root_index(system)
        seen = set()
        for w in reps:
            key = act(w, system.rho)  # faithful: rho is regular
            assert key not in seen
            seen.add(key)
            for i in P.retained:
                alpha = system.simple_roots[i - 1]
                image = act(w, alpha)
                coeffs = index.get(image)
                assert coeffs is not None and all(c >= 0 for c in coeffs)
        probe = make_weight(
            system, tuple(1 if i in P.crossed else 0 for i in range(1, rank + 1))
        )
        images = {act(w, probe) for w in brute_force_weyl(system)}
        assert len(reps) == len(images)
        lengths = [len(w.word) for w in reps]
        assert lengths == sorted(lengths)


def test_coset_reps_agree_with_from_word():
    # each word is built from a parent's in the walk; from_word rebuilds it,
    # on every parabolic of at most 500 cosets and on the whole Weyl groups
    # of F4 and G2 (every node crossed, W_I = 1)
    systems = [("A", n) for n in range(1, 7)] + [("C", 2), ("C", 3), ("C", 4)]
    systems += [("D", 4), ("D", 5), ("F4", 4), ("G2", 2)]
    for label, rank in systems:
        system = build_root_system(label, rank)
        [e] = minimal_coset_reps(parabolic(system, ()))
        assert e == from_word(system, ()) and e.word == ()
        for P in all_nonempty_parabolics(system):
            if coset_count(P) <= 500:
                check_canonical_coset_words(label, rank, P.crossed)
                assert coset_lengths(P) == tuple(len(w.word) for w in minimal_coset_reps(P))
    assert check_canonical_coset_words("F4", 4, range(1, 5)) == 1152
    assert check_canonical_coset_words("G2", 2, (1, 2)) == 12


def test_orbit_matches_two_way_search():
    rng = random.Random(29)
    pool = (("A", 2), ("A", 4), ("A", 5), ("C", 3), ("C", 4), ("D", 4), ("D", 5))
    pool += (("F4", 4), ("G2", 2))
    for _ in range(300):
        system = random_system(rng, pool)
        if rng.random() < 0.2:
            P = parabolic(system, ())
        else:
            P = random_parabolic(rng, system)
        chi = random_weight(rng, system, -3, 3)
        assert orbit(chi, P) == two_way_orbit(chi, P), (P, chi)


def test_coset_lengths_sorted_and_counted():
    f4 = build_root_system("F4", 4)
    lengths = coset_lengths(parabolic(f4, (4,)))
    assert list(lengths) == sorted(lengths)
    assert len(lengths) == 1152 // 48  # |W(F4)| / |W(C3)|


def test_coset_cap_reports_exact_count():
    # the exact count is checked before anything is enumerated
    full_flag = parabolic(build_root_system("F4", 4), (1, 2, 3, 4))
    for enumerate_cosets in (coset_lengths, minimal_coset_reps):
        with pytest.raises(ResourceCapExceeded) as exc:
            enumerate_cosets(full_flag, cap=100)
        assert exc.value.needed == 1152
        assert exc.value.cap == 100
    assert len(coset_lengths(full_flag, cap=1152)) == 1152


def test_orbit_properties():
    c3 = build_root_system("C", 3)
    W = parabolic(c3, ())
    # regular weight: full orbit
    assert len(orbit(c3.rho, W, None)) == 48
    # stabilized weight: orbit size is the coset count
    omega1 = make_weight(c3, (1, 0, 0))
    points = orbit(omega1, W, None)
    assert len(points) == 6
    assert omega1 in points
    assert -omega1 in points
    # orbit under a Levi stays inside the Levi's reflection span
    P = parabolic(c3, (1,))
    small = orbit(omega1, P, None)
    assert len(small) == 1  # omega1 is W_I-invariant for I = {2, 3}


def test_orbit_cap_enforced():
    f4 = build_root_system("F4", 4)
    with pytest.raises(ResourceCapExceeded) as exc:
        orbit(f4.rho, parabolic(f4, ()), cap=100)
    # the exact orbit size, not a partly expanded BFS level
    assert exc.value.needed == 1152


def test_simple_reflection_matches_reflect():
    g2 = build_root_system("G2", 2)
    for i in (1, 2):
        s = from_word(g2, (i,))
        assert len(s.word) == 1
        chi = make_weight(g2, (2, -5))
        assert act(s, chi) == reflect(g2, chi, i)


def test_degree_route_matches_the_height_scan():
    # [G/P] from the degrees of W and W_I against Macdonald's scan over
    # the root list, on every parabolic (none and all crossed included)
    cases = sum(check_height_exponents("A", n) + check_height_exponents("C", n)
                for n in range(1, 9))
    cases += sum(check_height_exponents("D", n) for n in range(3, 9))
    cases += check_height_exponents("F4", 4) + check_height_exponents("G2", 2)
    assert cases == 1544
