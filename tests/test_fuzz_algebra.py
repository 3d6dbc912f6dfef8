"""Generated-input checks for the algebraic building blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roofcalc import (
    ExactDivisionError,
    LPolynomial,
    Weight,
    build_root_system,
    igr_class,
    igr_point_count,
    make_weight,
    reflect,
)
from roofcalc.motive import _over_lh_minus_1, _times_lh_minus_1

from oracles import exact_div

coeff_lists = st.lists(st.integers(min_value=-30, max_value=30), max_size=8)
coords3 = st.tuples(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_lpolynomial_is_a_commutative_ring(a, b, c):
    pa, pb, pc = LPolynomial(a), LPolynomial(b), LPolynomial(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa - pa == LPolynomial(())


@given(coeff_lists, coeff_lists, st.integers(min_value=-9, max_value=9))
def test_lpolynomial_evaluation_is_a_homomorphism(a, b, q):
    pa, pb = LPolynomial(a), LPolynomial(b)
    assert (pa + pb)(q) == pa(q) + pb(q)
    assert (pa * pb)(q) == pa(q) * pb(q)


@given(coeff_lists, coeff_lists)
def test_exact_division_inverts_multiplication(a, b):
    pa, pb = LPolynomial(a), LPolynomial(b)
    if pb.is_zero:
        return
    assert exact_div(pa * pb, pb) == pa


@given(coeff_lists, coeff_lists, st.integers(min_value=1, max_value=6))
def test_lh_minus_1_kernels_match_general_arithmetic(a, b, h):
    # class_of_quotient's O(degree) product and quotient by L^h - 1
    # against the general product and long division
    factor = LPolynomial([-1] + [0] * (h - 1) + [1])
    p = list(LPolynomial(a).coeffs)
    product = _times_lh_minus_1(p, h)
    assert LPolynomial(product) == LPolynomial(p) * factor
    assert _over_lh_minus_1(product, h) == p
    pb = LPolynomial(b)
    try:
        expected = exact_div(pb, factor)
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            _over_lh_minus_1(list(pb.coeffs), h)
    else:
        assert LPolynomial(_over_lh_minus_1(list(pb.coeffs), h)) == expected


@given(coords3, coords3, st.integers(min_value=-10, max_value=10))
def test_weight_arithmetic_laws(a, b, k):
    wa, wb = Weight(a), Weight(b)
    assert (wa + wb) - wb == wa
    assert wa + wb == wb + wa
    assert k * (wa + wb) == k * wa + k * wb
    assert -(-wa) == wa


@given(coords3, st.integers(min_value=1, max_value=3))
def test_reflection_is_an_involution_under_fuzzing(coords, node):
    c3 = build_root_system("C", 3)
    chi = make_weight(c3, coords)
    assert reflect(c3, reflect(c3, chi, node), node) == chi


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13)),
)
def test_igr_class_evaluates_to_point_count(d, n, q):
    if d > n:
        return
    assert igr_class(d, n)(q) == igr_point_count(d, n, q)
