"""Root system construction: Cartan data, roots, coroots."""

import pytest

from roofcalc import (
    LPolynomial,
    ResourceCapExceeded,
    RootSystemError,
    Weight,
    WeightMultiset,
    build_root_system,
    exterior_power,
    from_word,
    igr_class,
    igr_point_count,
    make_weight,
    orbit,
    pair,
    parabolic,
    reflect,
    resource_cap,
    roof_data,
    roof_identity_residual,
    weight_multiset,
)
from roofcalc.rootsys import SUPPORTED_TYPES, _TYPES, _positive_root_closure

from oracles import check_two_pass_root_data, positive_root_index


def _systems_up_to(rank):
    for n in range(1, rank + 1):
        yield build_root_system("A", n)
        yield build_root_system("C", n)
        if n >= 3:
            yield build_root_system("D", n)
    yield build_root_system("F4", 4)
    yield build_root_system("G2", 2)


def test_positive_root_counts():
    for n in range(1, 41):
        assert len(build_root_system("A", n).positive_roots) == n * (n + 1) // 2
        assert len(build_root_system("C", n).positive_roots) == n * n
    for n in range(3, 41):
        assert len(build_root_system("D", n).positive_roots) == n * (n - 1)
    assert len(build_root_system("F4", 4).positive_roots) == 24
    assert len(build_root_system("G2", 2).positive_roots) == 6
    # every row's closed form, over its rank range, against the enumeration
    for label in SUPPORTED_TYPES:
        row = _TYPES[label]
        for n in (row.fixed,) if row.fixed else range(row.least, 41):
            assert len(build_root_system(label, n).positive_roots) == row.positive_roots(n)


def test_every_positive_root_is_an_upward_reflection_of_a_lower_one():
    # a property of the built roots checked on its own, so the closed forms
    # of A, C and D meet it too: a non-simple positive root gamma has a node
    # i with <gamma, alpha_i-vee> > 0, and beta = s_i gamma is a lower
    # positive root with <beta, alpha_i-vee> < 0 (the completeness argument
    # of the upward closure that builds F4 and G2)
    for s in _systems_up_to(16):
        index = positive_root_index(s)
        for gamma, coeffs in index.items():
            if sum(coeffs) == 1:
                assert gamma in s.simple_roots
                continue
            lower = [
                (i, reflect(s, gamma, i + 1)) for i, c in enumerate(gamma) if c > 0
            ]
            assert lower, (s, gamma)
            for i, beta in lower:
                assert beta in index, (s, gamma, i)
                assert beta[i] < 0
                assert sum(index[beta]) == sum(coeffs) - gamma[i]


def test_root_data_is_consistent_and_sorted():
    for s in _systems_up_to(16):
        for d in s.root_data:
            # <beta, beta-vee> = 2
            assert sum(w * c for w, c in zip(d.weight, d.coroot)) == 2
            # the fundamental coordinates are sum_j m_j alpha_j
            assert d.weight == Weight(
                sum(m * a[i] for m, a in zip(d.coefficients, s.simple_roots))
                for i in range(s.rank)
            )
        keys = [(sum(d.coefficients), d.coefficients) for d in s.root_data]
        assert keys == sorted(keys)
        assert s.positive_roots == tuple(d.weight for d in s.root_data)


def test_coroots_and_norms_by_a_second_route():
    for s in _systems_up_to(16):
        n = s.rank
        # the coroots are the positive roots of the dual system, whose
        # Cartan matrix is the transpose, with the simple coroots as its
        # simple roots: their coordinates are the dual closure's coefficients
        dual = tuple(Weight(s.cartan[j][i] for i in range(n)) for j in range(n))
        pairs = tuple(tuple((i, a) for i, a in enumerate(alpha) if a) for alpha in dual)
        # the transpose is symmetrized by the reciprocal long/short ratios
        sym = tuple(max(s.symmetrizer) // d for d in s.symmetrizer)
        closure = _positive_root_closure(dual, pairs, sym)
        coroots = {d.coefficients for d in closure}
        assert {d.coroot for d in s.root_data} == coroots
        assert len(coroots) == len(s.root_data)
        # and the coroots of the dual system are the roots again
        assert {d.coroot for d in closure} == {d.coefficients for d in s.root_data}
        # (beta, beta) is W-invariant, and s_i permutes the positive roots
        # other than alpha_i
        by_weight = {d.weight: d for d in s.root_data}
        for d in s.root_data:
            for i in range(n):
                image = by_weight.get(reflect(s, d.weight, i + 1))
                if image is None:
                    assert d.weight == s.simple_roots[i], (s, d, i)
                else:
                    assert image.norm == d.norm, (s, d, i)


def test_one_pass_build_matches_the_two_pass_build():
    # every RootSystem field against the build that rescans each root for
    # its upward steps and then reads coroots and norms off the coefficients,
    # and the root data against rootsys's upward closure, which reads them
    # off the coefficients too
    for n in range(1, 41):
        assert check_two_pass_root_data("A", n) == n * (n + 1) // 2
        assert check_two_pass_root_data("C", n) == n * n
        if n >= 3:
            assert check_two_pass_root_data("D", n) == n * (n - 1)
    assert check_two_pass_root_data("F4", 4) == 24
    assert check_two_pass_root_data("G2", 2) == 6


@pytest.mark.parametrize(
    "label, rank, sym",
    [("G2", 2, (1, 1)), ("G2", 2, (2, 1)), ("F4", 4, (1, 1, 1, 1)), ("F4", 4, (2, 1, 1, 1))],
)
def test_closure_rejects_a_symmetrizer_that_does_not_fit(label, rank, sym):
    # with the wrong d_j some 2 d_j m_j / (beta, beta) is not an integer
    s = build_root_system(label, rank)
    with pytest.raises(AssertionError, match="coroot coordinates must be integral"):
        _positive_root_closure(s.simple_roots, s._simple_pairs, sym)


def test_cartan_matrices():
    f4 = build_root_system("F4", 4)
    assert f4.cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )
    # nodes 1 and 2 are the long ones
    assert f4.symmetrizer == (2, 2, 1, 1)

    c4 = build_root_system("C", 4)
    assert c4.cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -1, 2, -2),
        (0, 0, -1, 2),
    )
    assert c4.symmetrizer == (1, 1, 1, 2)

    g2 = build_root_system("G2", 2)
    assert g2.cartan == ((2, -1), (-3, 2))
    assert g2.symmetrizer == (3, 1)

    d5 = build_root_system("D", 5)
    # node 5 hangs off node 3
    assert d5.cartan[4][3] == 0
    assert d5.cartan[3][4] == 0
    assert d5.cartan[4][2] == -1
    assert d5.cartan[2][4] == -1

    a3 = build_root_system("A", 3)
    assert a3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -1, 2))


def test_symmetrizer_symmetrizes():
    for label, rank in (("A", 4), ("C", 5), ("D", 5), ("F4", 4), ("G2", 2)):
        s = build_root_system(label, rank)
        for i in range(s.rank):
            for j in range(s.rank):
                assert s.symmetrizer[i] * s.cartan[i][j] == s.symmetrizer[j] * s.cartan[j][i]


def test_rho_is_all_ones():
    for label, rank in (("A", 3), ("C", 4), ("D", 4), ("F4", 4), ("G2", 2)):
        s = build_root_system(label, rank)
        assert s.rho == Weight((1,) * rank)


def test_root_norms():
    f4 = build_root_system("F4", 4)
    assert {d.norm for d in f4.root_data} == {2, 4}
    assert sum(1 for d in f4.root_data if d.norm == 4) == 12
    g2 = build_root_system("G2", 2)
    assert {d.norm for d in g2.root_data} == {2, 6}
    a4 = build_root_system("A", 4)
    assert {d.norm for d in a4.root_data} == {2}
    c4 = build_root_system("C", 4)
    assert sum(1 for d in c4.root_data if d.norm == 4) == 4


def test_coroot_pairing_with_rho_is_height():
    for label, rank in (("C", 4), ("F4", 4), ("G2", 2)):
        s = build_root_system(label, rank)
        for d in s.root_data:
            # <rho, beta-vee> equals the height of the coroot, and is
            # always >= 1 with equality exactly on simple roots
            p = s.coroot_pairing(s.rho, d)
            assert p >= 1
            assert (p == 1) == (d.weight in s.simple_roots)


def test_build_validation():
    with pytest.raises(RootSystemError):
        build_root_system("B", 3)
    with pytest.raises(RootSystemError):
        build_root_system("A", 0)
    with pytest.raises(RootSystemError):
        build_root_system("D", 2)
    with pytest.raises(RootSystemError):
        build_root_system("F4", 5)
    with pytest.raises(RootSystemError):
        build_root_system("G2", 3)
    # a label that is not a string is refused like an unknown one
    for label in (5, None):
        with pytest.raises(RootSystemError, match=r"unsupported type .*; supported: "):
            build_root_system(label, 3)
    # every row's rank rule: the least rank builds, one below it and one
    # above a fixed rank do not
    for label in SUPPORTED_TYPES:
        row = _TYPES[label]
        assert build_root_system(label, row.least).rank == row.least
        with pytest.raises(RootSystemError):
            build_root_system(label, row.least - 1)
        if row.fixed:
            assert row.least == row.fixed
            with pytest.raises(RootSystemError):
                build_root_system(label, row.fixed + 1)


def test_systems_are_interned():
    assert build_root_system("C", 3) is build_root_system("C", 3)
    assert build_root_system("f4", 4) is build_root_system("F4", 4)


def test_root_build_cap_is_checked_before_the_interned_lookup():
    # |Phi+| * rank root coordinates: 27 for C3, checked even when C3 was
    # built before, so the outcome does not depend on process history
    c3 = build_root_system("C", 3)
    with pytest.raises(ResourceCapExceeded, match="27"):
        build_root_system("C", 3, cap=26)
    assert build_root_system("C", 3, cap=27) is c3
    for label, rank in (("A", 7), ("C", 7), ("D", 7), ("F4", 4), ("G2", 2)):
        needed = len(build_root_system(label, rank).positive_roots) * rank
        with pytest.raises(ResourceCapExceeded):
            build_root_system(label, rank, cap=needed - 1)
        build_root_system(label, rank, cap=needed)
    # A1000 would need 500500 roots of 1000 coordinates each
    with pytest.raises(ResourceCapExceeded, match="500500000"):
        build_root_system("A", 1000)


def test_make_weight_validation():
    c3 = build_root_system("C", 3)
    with pytest.raises(RootSystemError):
        make_weight(c3, (1, 2))
    with pytest.raises(RootSystemError):
        Weight((1.5, 2))
    # the message names the whole input, a consumed generator's and a
    # non-iterable's too
    with pytest.raises(RootSystemError, match=r"got \(1, 2\.5, 3\)$"):
        Weight(x for x in (1, 2.5, 3))
    with pytest.raises(RootSystemError, match="got 5$"):
        Weight(5)


def test_weight_arithmetic():
    a = Weight((1, -2, 3))
    b = Weight((0, 1, 1))
    assert a + b == Weight((1, -1, 4)) == a + (0, 1, 1) == (0, 1, 1) + a
    assert a - b == Weight((1, -3, 2)) == a - (0, 1, 1)
    assert -a == Weight((-1, 2, -3))
    assert 3 * a == Weight((3, -6, 9))
    assert a * 2 == Weight((2, -4, 6))
    assert hash(a) == hash((1, -2, 3))


def test_outside_data_is_validated_at_the_boundary():
    c3 = build_root_system("C", 3)
    P = parabolic(c3, (1,))
    for bad in (
        lambda: Weight((1, 2)) + (0.5, 0),
        lambda: make_weight(c3, (1.5, 0, 0)),
        lambda: reflect(c3, (1, "a", 0), 1),
        lambda: WeightMultiset({(0.5,): 1}),
        lambda: orbit((1.5, 0, 0), P),
    ):
        with pytest.raises(RootSystemError):
            bad()
    with pytest.raises(RootSystemError, match=r"lengths \[2, 3\]"):
        WeightMultiset({(1, 0): 1, (1, 0, 0): 1})
    # arithmetic on validated weights stays a Weight of ints, unchecked or not
    a = Weight((1, -2, 3))
    for result in (a + a, a - a, -a, 2 * a, a + (0, 1, 1), (0, 1, 1) + a, a - (0, 1, 1)):
        assert type(result) is Weight
        assert all(type(x) is int for x in result)


@pytest.mark.parametrize(
    "call",
    (
        lambda: build_root_system("A", 2.9),
        lambda: parabolic(build_root_system("C", 3), (1.9,)),
        lambda: roof_data("C", 2.5),
        lambda: exterior_power(
            weight_multiset(parabolic(build_root_system("C", 2), ()), Weight((1, 0))),
            1.7,
        ),
        lambda: resource_cap(2.5),
        lambda: LPolynomial((1.5, 2)),
        lambda: WeightMultiset({Weight((1, 0)): 1.5}),
        lambda: igr_point_count(1, 2, 2.0),
        lambda: igr_class(1.5, 2),
        lambda: from_word(build_root_system("A", 3), (1.0,)),
        lambda: reflect(build_root_system("A", 3), (1, 0, 0), 1.0),
        lambda: pair(build_root_system("A", 3), (1, 0, 0), 1.5),
        lambda: roof_identity_residual(LPolynomial((1,)), LPolynomial((1,)), 2.5),
        lambda: LPolynomial.projective_space(2.5),
        lambda: LPolynomial((1, 2))(1.5),
    ),
    ids=(
        "build_root_system", "parabolic", "roof_data", "exterior_power", "resource_cap",
        "LPolynomial", "WeightMultiset", "igr_point_count", "igr_class", "from_word",
        "reflect", "pair", "roof_identity_residual", "projective_space",
        "LPolynomial_call",
    ),
)
def test_non_integral_input_is_rejected_not_truncated(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_pair_and_reflect_on_fundamental_weights():
    for label, rank in (("A", 3), ("C", 3), ("F4", 4), ("G2", 2)):
        s = build_root_system(label, rank)
        for i in range(1, rank + 1):
            omega = Weight(tuple(1 if j == i else 0 for j in range(1, rank + 1)))
            for j in range(1, rank + 1):
                assert pair(s, omega, j) == (1 if i == j else 0)
            assert reflect(s, omega, i) == omega - s.simple_roots[i - 1]
        with pytest.raises(RootSystemError):
            pair(s, s.rho, 0)
        with pytest.raises(RootSystemError):
            reflect(s, s.rho, rank + 1)


def test_simple_roots_match_cartan_columns():
    for label, rank in (("A", 4), ("C", 4), ("D", 4), ("F4", 4), ("G2", 2)):
        s = build_root_system(label, rank)
        for j in range(rank):
            assert s.simple_roots[j] == Weight(s.cartan[i][j] for i in range(rank))
