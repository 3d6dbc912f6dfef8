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
    full_group,
    identity,
    inverse,
    inversions,
    is_dominant,
    length,
    longest_element,
    make_weight,
    minimal_coset_reps,
    orbit,
    parabolic,
    reflect,
    simple_reflection,
    weyl_group_order,
)
from roofcalc.weyl import coset_count, levi_root_data

from oracles import (
    SMALL_SYSTEMS,
    all_nonempty_parabolics,
    brute_force_weyl,
    greedy_right_descent,
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
    assert from_word(c3, (1, 1)) == identity(c3)
    assert from_word(c3, (1, 2, 1)) == from_word(c3, (2, 1, 2))
    w = from_word(c3, (1, 2, 1, 1, 3, 3, 2))
    assert length(w) == inversions(w)
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
            for w, _ in minimal_coset_reps(P):
                assert w.word == greedy_right_descent(system, w.word)


def test_length_equals_inversions():
    rng = random.Random(7)
    for label, rank in (("A", 3), ("C", 3), ("D", 4), ("F4", 4), ("G2", 2)):
        system = build_root_system(label, rank)
        for _ in range(25):
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, 12)))
            w = from_word(system, word)
            assert length(w) == inversions(w)
            assert length(w) <= len(word)


def test_group_axioms():
    rng = random.Random(11)
    system = build_root_system("C", 3)
    e = identity(system)
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
    a = identity(build_root_system("A", 2))
    g = identity(build_root_system("G2", 2))
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
        w0 = longest_element(full_group(system))
        assert length(w0) == len(system.positive_roots)
        assert compose(w0, w0) == identity(system)
        assert not is_dominant(act(w0, system.rho), full_group(system))
        assert act(w0, act(w0, system.rho)) == system.rho


def test_longest_element_of_levi():
    c3 = build_root_system("C", 3)
    P = parabolic(c3, (1,))
    w = longest_element(P)
    assert length(w) == len(levi_root_data(P))
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
        seen = set()
        for w, ell in reps:
            assert length(w) == ell
            assert w.canonical_key not in seen
            seen.add(w.canonical_key)
            for i in P.retained:
                alpha = system.simple_roots[i - 1]
                image = act(w, alpha)
                coeffs = system.root_coefficient_index.get(image)
                assert coeffs is not None and all(c >= 0 for c in coeffs)
        probe = make_weight(
            system, tuple(1 if i in P.crossed else 0 for i in range(1, rank + 1))
        )
        images = {act(w, probe) for w in brute_force_weyl(system)}
        assert len(reps) == len(images)
        lengths = [ell for _, ell in reps]
        assert lengths == sorted(lengths)


def test_coset_reps_agree_with_from_word():
    # each word is built from a parent's in the walk; from_word rebuilds it
    systems = [("A", n) for n in range(1, 7)] + [("C", 2), ("C", 3), ("C", 4)]
    systems += [("D", 4), ("D", 5), ("F4", 4), ("G2", 2)]
    for label, rank in systems:
        system = build_root_system(label, rank)
        [(e, zero)] = minimal_coset_reps(full_group(system))
        assert (e.word, e.canonical_key, zero) == ((), identity(system).canonical_key, 0)
        for P in all_nonempty_parabolics(system):
            if coset_count(P) > 500:
                continue
            reps = minimal_coset_reps(P)
            assert len(reps) == coset_count(P)
            for w, ell in reps:
                v = from_word(system, w.word)
                assert (v.word, v.canonical_key) == (w.word, w.canonical_key), (P, w)
                assert len(w.word) == ell
            order = [(ell, w.word) for w, ell in reps]
            assert order == sorted(set(order)), P
            assert coset_lengths(P) == tuple(ell for _, ell in reps)


def test_orbit_matches_two_way_search():
    rng = random.Random(29)
    pool = (("A", 2), ("A", 4), ("A", 5), ("C", 3), ("C", 4), ("D", 4), ("D", 5))
    pool += (("F4", 4), ("G2", 2))
    for _ in range(300):
        system = random_system(rng, pool)
        if rng.random() < 0.2:
            P = full_group(system)
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
    W = full_group(c3)
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
        orbit(f4.rho, full_group(f4), cap=100)
    # the exact orbit size, not a partly expanded BFS level
    assert exc.value.needed == 1152


def test_simple_reflection_matches_reflect():
    g2 = build_root_system("G2", 2)
    for i in (1, 2):
        s = simple_reflection(g2, i)
        assert length(s) == 1
        chi = make_weight(g2, (2, -5))
        assert act(s, chi) == reflect(g2, chi, i)
