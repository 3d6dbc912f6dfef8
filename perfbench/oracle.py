"""Independent Lie-theory arithmetic used to check roofcalc's answers.

Nothing here imports roofcalc.  The conventions are the documented ones
(README "Conventions"): weights in fundamental coordinates, column i of
the Cartan matrix is alpha_i, C_n has its long root at node n, F4 nodes
1 and 2 are long, G2 node 1 is long, D_n attaches node n to node n-2.

The routes differ from the program's on purpose: positive roots come
from root strings (the program closes under reflections), the coset
count and the class [G/P] from the Kostant-Macdonald height product (the
program enumerates Bruhat cells), the BWB degree from counting negative
coroot pairings, and IGr point counts from the q-binomial coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

Coeffs = Tuple[int, ...]


def cartan(kind: str, n: int) -> Tuple[Tuple[int, ...], ...]:
    """A[i][j] = <alpha_j, alpha_i-vee>, 0-based nodes."""
    if kind == "F4":
        return ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    if kind == "G2":
        return ((2, -1), (-3, 2))
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = n - 1 if kind == "D" else n
    for i in range(chain - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if kind == "C" and n >= 2:
        a[n - 2][n - 1] = -2
    if kind == "D":
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return tuple(tuple(row) for row in a)


def symmetrizer(kind: str, n: int) -> Tuple[int, ...]:
    """d_i = (alpha_i, alpha_i) / 2 with short roots of squared length 2."""
    if kind == "C" and n >= 2:
        return (1,) * (n - 1) + (2,)
    if kind == "F4":
        return (2, 2, 1, 1)
    if kind == "G2":
        return (3, 1)
    return (1,) * n


def root_count(kind: str, n: int) -> int:
    """|Phi+| in closed form."""
    return {
        "A": n * (n + 1) // 2,
        "C": n * n,
        "D": n * (n - 1),
        "F4": 24,
        "G2": 6,
    }[kind]


@lru_cache(maxsize=None)
def positive_roots(kind: str, n: int) -> Tuple[Coeffs, ...]:
    """Positive roots in simple-root coordinates, by height, via root strings.

    beta + alpha_i is a root iff q > 0, where p is the length of the
    alpha_i-string below beta and q = p - <beta, alpha_i-vee>.
    """
    a = cartan(kind, n)
    simple = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n)]
    found = set(simple)
    layer = list(simple)
    out = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                if beta == simple[i]:
                    continue
                pairing = sum(a[i][j] * beta[j] for j in range(n))
                p = 0
                down = list(beta)
                while True:
                    down[i] -= 1
                    if tuple(down) not in found:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in found:
                        found.add(up)
                        nxt.append(up)
        nxt.sort()
        out.extend(nxt)
        layer = nxt
    if len(out) != root_count(kind, n):
        raise AssertionError(f"root strings gave {len(out)} roots for {kind}{n}")
    return tuple(out)


def norm(kind: str, n: int, m: Coeffs) -> int:
    """(beta, beta) for beta = sum m_i alpha_i, using (alpha_i, alpha_j) = d_i A[i][j]."""
    a = cartan(kind, n)
    d = symmetrizer(kind, n)
    return sum(
        m[i] * m[j] * d[i] * a[i][j] for i in range(n) if m[i] for j in range(n) if m[j]
    )


def coroot(kind: str, n: int, m: Coeffs) -> Coeffs:
    """beta-vee = 2 beta / (beta, beta) in the simple coroot basis."""
    d = symmetrizer(kind, n)
    nb = norm(kind, n, m)
    out = []
    for mi, di in zip(m, d):
        q, r = divmod(2 * mi * di, nb)
        if r:
            raise AssertionError("non-integral coroot")
        out.append(q)
    return tuple(out)


@lru_cache(maxsize=None)
def coroots(kind: str, n: int) -> Tuple[Coeffs, ...]:
    return tuple(coroot(kind, n, m) for m in positive_roots(kind, n))


def levi_roots(kind: str, n: int, crossed: Iterable[int]) -> List[Coeffs]:
    """Positive roots whose support avoids the crossed (1-based) nodes."""
    cut = {i - 1 for i in crossed}
    return [m for m in positive_roots(kind, n) if not any(m[i] for i in cut)]


def _height_exponents(kind: str, n: int, crossed: Iterable[int]) -> Dict[int, int]:
    """Exponent of [h]_L in prod over Phi+ minus Phi_I+ of [ht+1]/[ht]."""
    cut = {i - 1 for i in crossed}
    exps: Dict[int, int] = {}
    for m in positive_roots(kind, n):
        if any(m[i] for i in cut):
            h = sum(m)
            exps[h + 1] = exps.get(h + 1, 0) + 1
            exps[h] = exps.get(h, 0) - 1
    return exps


def coset_count(kind: str, n: int, crossed: Iterable[int]) -> int:
    """|W / W_I|: the height product evaluated at L = 1."""
    num = den = 1
    for h, e in _height_exponents(kind, n, crossed).items():
        if e > 0:
            num *= h**e
        elif e < 0:
            den *= h ** (-e)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("height product at L = 1 is not an integer")
    return q


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_exact_div(num: List[int], den: List[int]) -> List[int]:
    rem = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[k + len(den) - 1], den[-1])
        if r:
            raise AssertionError("inexact division in the height product")
        out[k] = q
        for j, c in enumerate(den):
            rem[k + j] -= q * c
    if any(rem):
        raise AssertionError("inexact division in the height product")
    return out


def class_coefficients(kind: str, n: int, crossed: Iterable[int]) -> List[int]:
    """[G/P] as L-coefficients: prod over Phi+ minus Phi_I+ of [ht+1]_L / [ht]_L."""
    num, den = [1], [1]
    for h, e in sorted(_height_exponents(kind, n, crossed).items()):
        for _ in range(abs(e)):
            if e > 0:
                num = _poly_mul(num, [1] * h)
            else:
                den = _poly_mul(den, [1] * h)
    return _poly_exact_div(num, den)


def weyl_order(kind: str, n: int, nodes: Iterable[int]) -> int:
    """|W_J| for the parabolic subgroup on 1-based nodes J (height product)."""
    keep = {i - 1 for i in nodes}
    out = Fraction(1)
    for m in positive_roots(kind, n):
        if all(i in keep for i, c in enumerate(m) if c):
            h = sum(m)
            out *= Fraction(h + 1, h)
    if out.denominator != 1:
        raise AssertionError("Weyl group order is not an integer")
    return int(out)


def weyl_dimension(
    kind: str, n: int, chi: Sequence[int], crossed: Iterable[int] = ()
) -> int:
    """Dimension of the (Levi) irreducible of highest weight chi (Weyl product)."""
    cut = {i - 1 for i in crossed}
    num = den = 1
    for m, cv in zip(positive_roots(kind, n), coroots(kind, n)):
        if any(m[i] for i in cut):
            continue
        num *= sum(c * (x + 1) for c, x in zip(cv, chi))
        den *= sum(cv)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Weyl product is not an integer")
    return q


def reflect(kind: str, n: int, v: Sequence[int], i: int) -> List[int]:
    """s_i on fundamental coordinates, 0-based node i."""
    a = cartan(kind, n)
    c = v[i]
    return [v[j] - c * a[j][i] for j in range(n)]


def levi_dominant(kind: str, n: int, chi: Sequence[int], crossed: Iterable[int]) -> Tuple[int, ...]:
    """The W_I-conjugate of chi that is dominant on the retained nodes."""
    cut = {i - 1 for i in crossed}
    v = list(chi)
    while True:
        i = next((j for j in range(n) if j not in cut and v[j] < 0), None)
        if i is None:
            return tuple(v)
        v = reflect(kind, n, v, i)


def orbit_size(kind: str, n: int, chi: Sequence[int], crossed: Iterable[int]) -> int:
    """|W_I chi| = |W_I| / |W_J|, J the retained nodes where the dominant conjugate vanishes."""
    crossed = set(crossed)
    retained = [i for i in range(1, n + 1) if i not in crossed]
    mu = levi_dominant(kind, n, chi, crossed)
    stab = [i for i in retained if mu[i - 1] == 0]
    return weyl_order(kind, n, retained) // weyl_order(kind, n, stab)


def bwb(kind: str, n: int, chi: Sequence[int]):
    """(status, degree, G-highest weight, dimension) for E_P(chi).

    Vanishing and the degree come from the coroot pairings of chi + rho;
    the highest weight from straightening chi + rho into the chamber.
    """
    v = [x + 1 for x in chi]
    pairings = [sum(c * x for c, x in zip(cv, v)) for cv in coroots(kind, n)]
    if any(p == 0 for p in pairings):
        return ("Vanishes", None, None, None)
    degree = sum(1 for p in pairings if p < 0)
    while True:
        i = next((j for j in range(n) if v[j] < 0), None)
        if i is None:
            break
        v = reflect(kind, n, v, i)
    hw = [x - 1 for x in v]
    return ("Single", degree, hw, weyl_dimension(kind, n, hw))


def igr_points(d: int, n: int, q: int) -> int:
    """#IGr(d, 2n)(F_q) = [n choose d]_q * prod_{i=n-d+1}^{n} (q^i + 1)."""
    num = den = 1
    for j in range(d):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    gauss, r = divmod(num, den)
    if r:
        raise AssertionError("q-binomial is not an integer")
    out = gauss
    for i in range(n - d + 1, n + 1):
        out *= q**i + 1
    return out


def crossed_set(text: str) -> FrozenSet[int]:
    return frozenset(int(x) for x in text.split(","))
