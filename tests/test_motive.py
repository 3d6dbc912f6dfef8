"""Grothendieck-ring arithmetic and isotropic Grassmannian classes."""

import random
from math import comb

import pytest

from roofcalc import (
    DEFAULT_CAP,
    ExactDivisionError,
    LPolynomial,
    ResourceCapExceeded,
    build_root_system,
    class_of_quotient,
    coset_lengths,
    igr_class,
    igr_point_count,
    parabolic,
    roof_identity_residual,
)

from oracles import all_nonempty_parabolics


def test_construction_trims_trailing_zeros():
    assert LPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert LPolynomial((0, 0)).coeffs == ()
    assert LPolynomial().is_zero
    assert LPolynomial.zero() == LPolynomial(())
    assert LPolynomial.one().coeffs == (1,)
    assert LPolynomial.lefschetz().coeffs == (0, 1)
    assert LPolynomial.projective_space(0) == LPolynomial.one()
    assert LPolynomial.projective_space(3).coeffs == (1, 1, 1, 1)
    with pytest.raises(ValueError, match="must be >= 0"):
        LPolynomial.projective_space(-1)


def test_degree():
    assert LPolynomial.zero().degree is None
    assert LPolynomial.one().degree == 0
    assert LPolynomial((5, 0, 7)).degree == 2


def test_ring_axioms():
    rng = random.Random(23)

    def rand_poly():
        return LPolynomial([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])

    zero = LPolynomial.zero()
    one = LPolynomial.one()
    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a
        assert a - a == zero
        assert -(-a) == a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * one == a
        assert a * zero == zero
        assert a * (b + c) == a * b + a * c
        # evaluation is a ring homomorphism
        q = rng.randint(2, 9)
        assert (a * b + c)(q) == a(q) * b(q) + c(q)


def test_exact_division():
    rng = random.Random(29)
    for _ in range(60):
        a = LPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
        b = LPolynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))])
        if b.is_zero:
            continue
        assert (a * b).exact_div(b) == a
    with pytest.raises(ExactDivisionError):
        LPolynomial((1, 1, 1)).exact_div(LPolynomial((0, 1)))
    with pytest.raises(ExactDivisionError):
        LPolynomial.one().exact_div(LPolynomial.zero())


def test_render():
    assert LPolynomial.zero().render() == "0"
    assert LPolynomial.one().render() == "1"
    assert LPolynomial((0, 1)).render() == "L"
    assert LPolynomial((1, 2, 1)).render() == "1 + 2*L + L^2"
    assert LPolynomial((-1, 0, 3)).render() == "-1 + 3*L^2"
    assert LPolynomial((0, -1, 1)).render() == "-L + L^2"
    assert LPolynomial((2, 0, -7)).render("q") == "2 - 7*q^2"
    assert str(LPolynomial((1, 1))) == "1 + L"


def test_projective_space_counts_points():
    for r in range(5):
        p = LPolynomial.projective_space(r)
        for q in (2, 3, 5):
            assert p(q) == (q ** (r + 1) - 1) // (q - 1)


def test_class_of_quotient_projective_space():
    # C_n cross node 1 is P^{2n-1}
    for n in (2, 3, 4):
        system = build_root_system("C", n)
        assert class_of_quotient(parabolic(system, (1,))) == LPolynomial.projective_space(2 * n - 1)
    # A_n cross node 1 is P^n
    a4 = build_root_system("A", 4)
    assert class_of_quotient(parabolic(a4, (1,))) == LPolynomial.projective_space(4)


def _bruhat_class(P):
    """[G/P] as one L^length per enumerated Bruhat cell."""
    lengths = coset_lengths(P)
    histogram = [0] * (max(lengths) + 1)
    for ell in lengths:
        histogram[ell] += 1
    return LPolynomial(histogram)


def test_class_of_quotient_matches_bruhat_cells():
    # the height product against the length histogram of the enumerated
    # minimal coset representatives, on every nonempty crossed set
    cases = 0
    for label, rank in (
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
        ("C", 2), ("C", 3), ("C", 4),
        ("D", 4), ("F4", 4), ("G2", 2),
    ):
        for P in all_nonempty_parabolics(build_root_system(label, rank)):
            assert class_of_quotient(P) == _bruhat_class(P), P
            cases += 1
    assert cases == 115


def test_class_of_quotient_enumerates_nothing():
    # Gr(15, 31) has comb(31, 15) cells, far above the default cap, so
    # only a closed form can produce its class
    n, k = 31, 15
    assert comb(n, k) > DEFAULT_CAP
    # q-Pascal: [m choose j] = [m-1 choose j-1] + L^j [m-1 choose j]
    row = [LPolynomial.one()]
    for m in range(1, n + 1):
        prev = row + [LPolynomial.zero()]
        row = [prev[0]] + [
            prev[j - 1] + LPolynomial([0] * j + [1]) * prev[j] for j in range(1, m + 1)
        ]
    a30 = build_root_system("A", 30)
    assert class_of_quotient(parabolic(a30, (k,))) == row[k]


def test_igr_class_matches_bruhat_cells():
    for n in (2, 3, 4):
        system = build_root_system("C", n)
        for d in range(1, n + 1):
            P = parabolic(system, (d,))
            assert igr_class(d, n) == class_of_quotient(P) == _bruhat_class(P)


def test_igr_point_count_lagrangian_c2():
    # LGr(2, 4) is a 3-dimensional quadric: 1 + q + q^2 + q^3 points
    for q in (2, 3, 5, 7):
        assert igr_point_count(2, 2, q) == 1 + q + q * q + q**3
    assert igr_class(2, 2).coeffs == (1, 1, 1, 1)


def test_igr_full_rank_equals_projective_line_product():
    # IGr(1, 2n) is P^{2n-1}
    for n in (1, 2, 5):
        assert igr_class(1, n) == LPolynomial.projective_space(2 * n - 1)


def test_igr_validation():
    with pytest.raises(ValueError):
        igr_class(0, 3)
    with pytest.raises(ValueError):
        igr_class(4, 3)
    with pytest.raises(ValueError):
        igr_point_count(1, 0, 5)
    with pytest.raises(ValueError):
        igr_point_count(1, 2, 1)


def test_igr_cap_bounds_the_division_not_only_the_answer():
    # d = n = 800 has an answer of at least 320401 bits (10681 digits of
    # 30 bits), far under the default cap, and a denominator of at most
    # 640800 bits (21360 digits): its division is refused at once
    with pytest.raises(ResourceCapExceeded) as exc:
        igr_point_count(800, 800, 2)
    assert exc.value.needed == 21360 * 10681
    # a one-digit denominator stays cheap at any n: IGr(1, 2n) = P^(2n-1)
    n = 10**6
    assert igr_point_count(1, n, 2) == 2 ** (2 * n) - 1


def test_roof_identity_residual():
    f = igr_class(3, 5)
    g = igr_class(3, 5)
    assert roof_identity_residual(f, g, 4).is_zero
    h = f + LPolynomial.one()
    res = roof_identity_residual(f, h, 4)
    assert res == LPolynomial.projective_space(2)
    assert not res.is_zero
    with pytest.raises(ValueError):
        roof_identity_residual(f, g, 1)


def test_coefficients_are_immutable():
    p = LPolynomial((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
