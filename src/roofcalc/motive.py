"""Exact Lefschetz-polynomial arithmetic and point counts.

Classes of generalized flag varieties in the Grothendieck ring of
varieties are polynomials in the Lefschetz class L with nonnegative
integer coefficients.  class_of_quotient computes [G/P] from Macdonald's
height product, prod [ht beta + 1]_L / [ht beta]_L over the positive
roots outside the Levi, in time polynomial in the rank.  The Bruhat
decomposition (one affine cell per minimal coset representative, graded
by length, see weyl.coset_lengths) gives the same polynomial and is kept
as a cross-check in the tests.  Isotropic Grassmannians IGr(d, 2n) also
admit a closed product formula, which doubles as a point count over F_q
on substituting q for L; it certifies the C-family base classes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .limits import _index, check_cap, resource_cap
from .rootsys import _Frozen
from .weyl import ParabolicSubgroup, height_exponents


class ExactDivisionError(ArithmeticError):
    """A division that the formulas guarantee exact failed to be exact."""


def _trim(coeffs: Iterable[int]) -> Tuple[int, ...]:
    out = [_index(c, "coefficient") for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class LPolynomial(_Frozen):
    """A polynomial in the Lefschetz class with exact integer coefficients.

    coeffs[k] is the coefficient of L^k; trailing zeros are normalised
    away, so the zero polynomial has empty coeffs and equality is plain
    coefficient comparison.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __eq__(self, other) -> bool:
        if type(other) is not LPolynomial:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"LPolynomial(coeffs={self.coeffs!r})"

    @classmethod
    def zero(cls) -> "LPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "LPolynomial":
        return cls((1,))

    @classmethod
    def lefschetz(cls) -> "LPolynomial":
        return cls((0, 1))

    @classmethod
    def projective_space(cls, r: int) -> "LPolynomial":
        """[P^r] = 1 + L + ... + L^r."""
        r = _index(r, "projective space dimension")
        if r < 0:
            raise ValueError(f"projective space dimension must be >= 0, got {r}")
        return cls((1,) * (r + 1))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __add__(self, other: "LPolynomial") -> "LPolynomial":
        if type(other) is not LPolynomial:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return LPolynomial(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        )

    def __sub__(self, other: "LPolynomial") -> "LPolynomial":
        if type(other) is not LPolynomial:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return LPolynomial(
            (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            for i in range(n)
        )

    def __neg__(self) -> "LPolynomial":
        return LPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: "LPolynomial") -> "LPolynomial":
        if type(other) is not LPolynomial:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return LPolynomial(out)

    def exact_div(self, other: "LPolynomial") -> "LPolynomial":
        """Polynomial division that must leave remainder zero."""
        if other.is_zero:
            raise ExactDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        div = other.coeffs
        if len(rem) < len(div):
            if any(rem):
                raise ExactDivisionError("inexact polynomial division")
            return LPolynomial.zero()
        out = [0] * (len(rem) - len(div) + 1)
        lead = div[-1]
        for k in range(len(out) - 1, -1, -1):
            q, r = divmod(rem[k + len(div) - 1], lead)
            if r:
                raise ExactDivisionError("inexact polynomial division")
            out[k] = q
            if q:
                for j, d in enumerate(div):
                    rem[k + j] -= q * d
        if any(rem):
            raise ExactDivisionError("inexact polynomial division")
        return LPolynomial(out)

    def __call__(self, value: int) -> int:
        value = _index(value, "evaluation point")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def render(self, var: str = "L") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = var if mag == 1 else f"{mag}*{var}"
            else:
                body = f"{var}^{k}" if mag == 1 else f"{mag}*{var}^{k}"
            parts.append((c < 0, body))
        text = ("-" if parts[0][0] else "") + parts[0][1]
        for neg, body in parts[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __str__(self) -> str:
        return self.render()


def _times_lh_minus_1(p: list[int], h: int) -> list[int]:
    """p * (L^h - 1), a shift and a subtraction."""
    out = [0] * h + p
    for k, c in enumerate(p):
        out[k] -= c
    return out


def _over_lh_minus_1(p: list[int], h: int) -> list[int]:
    """p / (L^h - 1) by q_k = q_(k-h) - p_k; the remainder must be zero."""
    n = max(len(p) - h, 0)
    q = [0] * n
    for k in range(n):
        q[k] = (q[k - h] if k >= h else 0) - p[k]
    # above deg q, p * (L^h - 1) has coefficient q_(k-h) and nothing else
    for k in range(n, len(p)):
        if p[k] != (q[k - h] if 0 <= k - h < n else 0):
            raise ExactDivisionError("inexact polynomial division")
    return q


def class_of_quotient(P: ParabolicSubgroup) -> LPolynomial:
    """[G/P] in the Grothendieck ring, from the height product.

    The exponents e_h of prod_h [h]_L ** e_h sum to zero once h = 1 is
    counted (its [1]_L = 1 is left out of height_exponents), so the
    (L - 1) denominators of [h]_L = (L^h - 1) / (L - 1) cancel and
    [G/P] = prod_h (L^h - 1) ** e_h.  Every factor with e_h > 0 is
    multiplied in before any is divided off, so each quotient is exact;
    each step is O(degree).
    """
    exponents = height_exponents(P)
    exponents[1] = -sum(exponents.values())
    coeffs = [1]
    for h, e in exponents.items():
        for _ in range(e):
            coeffs = _times_lh_minus_1(coeffs, h)
    for h, e in exponents.items():
        for _ in range(-e):
            coeffs = _over_lh_minus_1(coeffs, h)
    return LPolynomial(coeffs)


def _validate_igr(d: int, n: int, q: int = 2) -> Tuple[int, int, int]:
    d, n, q = (_index(x, f"IGr parameter {name}") for x, name in zip((d, n, q), "dnq"))
    if n < 1:
        raise ValueError(f"symplectic rank n must be >= 1, got {n}")
    if not 1 <= d <= n:
        raise ValueError(f"isotropic dimension d must satisfy 1 <= d <= n, got {d}")
    if q < 2:
        raise ValueError(f"point counts need q >= 2, got {q}")
    return d, n, q


def _igr_count_bits(d: int, n: int, q: int) -> int:
    """A lower bound on the bits of #IGr(d, 2n)(F_q), from its dimension.

    The count is a monic polynomial in q of degree dim IGr(d, 2n) =
    2d(n - d) + d(d + 1)/2 with nonnegative coefficients, so it is at
    least q^dim >= 2^(dim * (bit_length(q) - 1)).
    """
    d, n, q = _validate_igr(d, n, q)
    dim = 2 * d * (n - d) + d * (d + 1) // 2
    return dim * (q.bit_length() - 1) + 1


def igr_point_count(d: int, n: int, q: int, cap: Optional[int] = None) -> int:
    """Number of F_q-points of IGr(d, 2n): prod (q^{2(n-j+1)}-1)/(q^j-1).

    Numerator and denominator are multiplied out before the single exact
    division (the individual factors need not divide).  Its cost, not only
    the size of the answer, is checked against the cap first: ints are
    stored in 30-bit digits, long division takes about one digit product
    per (denominator digit, quotient digit) pair, and the numerator's
    product costs the same order.  The denominator has at most
    d(d+1)/2 * bit_length(q) bits, the quotient at least _igr_count_bits.
    """
    d, n, q = _validate_igr(d, n, q)
    answer_bits = _igr_count_bits(d, n, q)
    den_bits = d * (d + 1) // 2 * q.bit_length()
    check_cap(
        f"point count of IGr({d}, {2 * n}) over F_{q} (30-bit digit products)",
        -(-den_bits // 30) * -(-answer_bits // 30),
        resource_cap(cap),
    )
    num = 1
    den = 1
    for j in range(1, d + 1):
        num *= q ** (2 * (n - j + 1)) - 1
        den *= q**j - 1
    quotient, rem = divmod(num, den)
    if rem:
        raise ExactDivisionError("isotropic Grassmannian point count was not integral")
    return quotient


def igr_class(d: int, n: int) -> LPolynomial:
    """[IGr(d, 2n)] via the same product formula, in O(degree) per factor.

    Every numerator factor L^(2(n-j+1)) - 1 is multiplied in before the
    denominator factors L^j - 1 are divided off, so each quotient is
    exact.
    """
    d, n, _ = _validate_igr(d, n)
    coeffs = [1]
    for j in range(1, d + 1):
        coeffs = _times_lh_minus_1(coeffs, 2 * (n - j + 1))
    for j in range(1, d + 1):
        coeffs = _over_lh_minus_1(coeffs, j)
    return LPolynomial(coeffs)


def roof_identity_residual(f1: LPolynomial, f2: LPolynomial, r: int) -> LPolynomial:
    """[P^{r-2}] * (f2 - f1) for a roof of projective bundles of rank r.

    Zero certifies L^{r-1} ([Z_1] - [Z_2]) = 0 for the zero loci cut out by
    a common section, because [P^{r-1}][F_1] - [P^{r-1}][F_2] telescopes
    against the blow-up decompositions along Z_1 and Z_2.
    """
    r = _index(r, "roof rank")
    if r < 2:
        raise ValueError(f"roof rank must be >= 2, got {r}")
    return LPolynomial.projective_space(r - 2) * (f2 - f1)
