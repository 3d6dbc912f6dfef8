"""Root systems of types A, C, D, F4 and G2 in exact integer arithmetic.

Conventions
-----------

Weights live in the fundamental weight basis: coordinate i of a weight chi
is the pairing <chi, alpha_i-vee> with the i-th simple coroot.  Simple
roots are numbered 1..rank following the usual Dynkin labels, and column i
of the Cartan matrix is alpha_i written in fundamental coordinates, so the
simple reflection acts by

    s_i(chi) = chi - chi[i] * alpha_i ,

which the one kernel, _apply, computes over the at most three nonzero
(index, value) pairs of alpha_i that build_root_system stores; weyl's
_walk and _upward_levels inline the same subtraction for speed.

Type C_n uses the symplectic convention alpha_i = L_i - L_{i+1} for i < n
and alpha_n = 2 L_n, hence omega_i = L_1 + ... + L_i.  For F4 the node
numbering is fixed by

    s_1(w_1) = -w_1 + w_2          s_2(w_2) = w_1 - w_2 + 2 w_3
    s_3(w_3) = w_2 - w_3 + w_4     s_4(w_4) = w_3 - w_4

(nodes 1, 2 long; nodes 3, 4 short).  For G2, alpha_1 is long.

A type is defined in one place, its row of _TYPES: least or fixed rank,
the degrees of its Weyl group (which give |Phi+|), the Dynkin bonds that
give the Cartan matrix, the symmetrizer and, for the infinite families,
the positive roots in closed form.  A new type is a new row.

The positive roots of the infinite families are written down from
Bourbaki's plates (Lie Groups and Lie Algebras, Ch. VI, Plates I, III
and IV) in the orthonormal basis eps_1, ..., eps_m: A_n has
eps_i - eps_j (i < j <= n + 1), C_n has eps_i - eps_j, eps_i + eps_j
(i < j <= n) and 2 eps_i, and D_n has eps_i - eps_j and eps_i + eps_j
(i < j <= n).  A root's coefficients are a few runs of 0, 1 and 2.
Coordinate k of the weight of sum_m c_m eps_m is c_k - c_{k+1}, except
that the last one is c_n on C_n and c_{n-1} + c_n on D_n, so a weight
has at most four nonzero entries.  Simply laced, each coroot is the
coefficients tuple itself; on C_n the long roots 2 eps_i have norm 4.
The roots come out in (height, coefficients) order, with no search and
no sort.  _epsilon inverts that map, and _pairings reads the coroot
pairings of A, C or D off eps-coordinates, so on these types only the
roots command and the Freudenthal and Newton path read a root list.

The exceptional rows F4 and G2 have no such field, and their positive
roots come from _positive_root_closure, which only ever reflects upward:
from a positive root beta it takes s_i(beta) at the nodes i where
<beta, alpha_i-vee> < 0, which raises the height by
-<beta, alpha_i-vee>.  That reaches every positive root from the simple
ones (Humphreys, Introduction to Lie Algebras, section 10.2).  Each
root's norm and coroot are then read off its coefficients.

Everything is exact: weight coordinates are Python ints.  Outside data is
validated once, when a Weight is built from it; arithmetic on two Weights
and the kernels trust their operands.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import accumulate, chain
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .limits import _index, check_cap, resource_cap


class _DynkinType(NamedTuple):
    """A row of _TYPES; the callables take the rank n.  A bond (i, j, k) on
    1-based nodes puts -k at <alpha_j, alpha_i-vee> and -1 at <alpha_i,
    alpha_j-vee>; d_i = (alpha_i, alpha_i) / 2 with short roots of norm 2.
    roots gives every positive root's RootData in (height, coefficients)
    order; a row without it is built by _positive_root_closure, which
    returns that order and reads each norm and coroot off the
    coefficients."""

    least: int  # the least rank
    fixed: Optional[int]  # the only rank, or None
    degrees: Callable[[int], Iterable[int]]  # of the Weyl group (D_2 gives A1 x A1's 2, 2)
    bonds: Callable[[int], Iterable[Tuple[int, int, int]]]
    symmetrizer: Callable[[int], Tuple[int, ...]]
    roots: Optional[Callable[[int], Tuple["RootData", ...]]] = None

    def positive_roots(self, n: int) -> int:
        """|Phi+| = sum (d_i - 1) (Humphreys, Reflection Groups, 3.9), for the cap."""
        return sum(self.degrees(n)) - n


def _path(n: int, last: int = 1) -> list[tuple[int, int, int]]:
    """The chain 1 - 2 - ... - n; the bond n-1 -> n has multiplicity last."""
    return [(i, i + 1, last if i == n - 1 else 1) for i in range(1, n)]


def _weight(n: int, i: int, j: int, b: int, fork: bool = False) -> "Weight":
    """eps_i + b eps_j (0-based, i <= j <= n) in fundamental coordinates:
    coordinate k < n is c_k - c_{k+1}, where eps_n is A_n's last vector
    and c_n = 0 elsewhere, except that on D_n (fork) the last coordinate
    is c_{n-2} + c_{n-1}."""
    w = [0] * (n + 1)
    w[i - 1] -= 1  # i = 0 and j = n write the spare slot n, dropped below
    w[i] += 1
    w[j - 1] -= b
    w[j] += b
    if fork:
        if i == n - 2:
            w[n - 1] += 1
        if j == n - 2:
            w[n - 1] += b
    del w[n]
    return tuple.__new__(Weight, w)


def _differences(n: int, h: int, last: int, fork: bool = False) -> Iterator["RootData"]:
    """eps_i - eps_{i+h} = alpha_i + ... + alpha_{i+h-1} for i = last, ..., 0:
    the fewer leading zeros, the later in (height, coefficients) order."""
    for i in range(last, -1, -1):
        co = (0,) * i + (1,) * h + (0,) * (n - i - h)
        yield RootData(_weight(n, i, i + h, -1, fork), co, co, 2)


def _a_roots(n: int) -> Tuple["RootData", ...]:
    """eps_i - eps_j, 0 <= i < j <= n, height by height."""
    return tuple(chain.from_iterable(_differences(n, h, n - h) for h in range(1, n + 1)))


def _c_roots(n: int) -> Tuple["RootData", ...]:
    """eps_i - eps_j and eps_i + eps_j, 0 <= i < j < n, and 2 eps_i.  At
    height h, eps_i + eps_j and 2 eps_i have i >= n - h leading zeros and
    eps_i - eps_j has i < n - h, so they come first; each kind runs from
    the most leading zeros down."""
    if n == 1:
        return _a_roots(1)  # C1 = A1, with the norm 2 of its symmetrizer (1,)
    out = []
    for h in range(1, 2 * n):
        for i in range((2 * n - 1 - h) // 2, max(n - h, 0) - 1, -1):
            j = 2 * n - 1 - h - i  # eps_i + eps_j has height 2n - 1 - i - j
            co = (0,) * i + (1,) * (j - i) + (2,) * (n - 1 - j) + (1,)
            if i < j:
                coroot, norm = (0,) * i + (1,) * (j - i) + (2,) * (n - j), 2
            else:  # 2 eps_i, a long root
                coroot, norm = (0,) * i + (1,) * (n - i), 4
            out.append(RootData(_weight(n, i, j, 1), co, coroot, norm))
        out.extend(_differences(n, h, n - 1 - h))
    return tuple(out)


def _d_roots(n: int) -> Tuple["RootData", ...]:
    """eps_i - eps_j and eps_i + eps_j, 0 <= i < j < n; alpha_{n-1} is
    eps_{n-2} + eps_{n-1}.  At height h, eps_i + eps_j has i >= n - 1 - h
    leading zeros and eps_i - eps_j has i <= n - 1 - h; at i = n - 1 - h,
    eps_i + eps_{n-1} has a 0 where eps_i - eps_{n-1} has its last 1.  So
    the sums come first; each kind runs from the most leading zeros down."""
    out = []
    for h in range(1, 2 * n - 2):
        for i in range((2 * n - 3 - h) // 2, max(n - 1 - h, 0) - 1, -1):
            j = 2 * n - 2 - h - i  # eps_i + eps_j has height 2n - 2 - i - j
            if j < n - 1:
                co = (0,) * i + (1,) * (j - i) + (2,) * (n - 2 - j) + (1, 1)
            else:
                co = (0,) * i + (1,) * (n - 2 - i) + (0, 1)
            out.append(RootData(_weight(n, i, j, 1, True), co, co, 2))
        out.extend(_differences(n, h, n - 1 - h, True))
    return tuple(out)


def _epsilon(label: str, v: Sequence[int]) -> list[int]:
    """The eps-coordinates c of v: v_i = c_i - c_(i+1), but v_n = c_n on C and
    c_(n-1) + c_n on D; c_(n+1) = 0 on A, and D gives 2c, integral."""
    if label == "A":
        v = [*v, 0]
    elif label == "D":
        v = [2 * x for x in v[:-1]] + [v[-1] - v[-2]]
    return list(accumulate(reversed(v)))[::-1]


def _pairings(label: str, e: Sequence[int], crossed: Collection[int] = ()) -> list[list[int]]:
    """<v, beta-vee> for the v of eps-coordinates e and each positive root
    beta of A, C or D touching no crossed node, one row per eps_i, the
    first eps of beta.  With 0-based eps, 1-based nodes, eps_i - eps_j
    touches nodes i+1..j, and eps_i + eps_j and 2 eps_i touch i+1..n, but
    eps_i + eps_(n-1) on D touches i+1..n-2 and n.  The rows keep the big
    integer products short: multiply each row first."""
    n = len(e) - (label == "A")  # the rank
    rows = []
    cut = n + 1  # the first crossed node after i
    for i in range(len(e) - 1, -1, -1):
        if i + 1 in crossed:
            cut = i + 1
        x = e[i]
        row = [x - y for y in e[i + 1:cut]]
        if label != "A" and cut > n:
            row += [x + y for y in e[i + 1:]] + [x] * (label == "C")
        elif label == "D" and cut == n - 1 and n not in crossed:
            row.append(x + e[-1])
        rows.append(row)
    return rows


# C_n has alpha_n long; C1 = A1 keeps d = (1,).  The infinite families
# list their roots in closed form; F4 and G2 leave roots unset.
_TYPES = {
    "A": _DynkinType(1, None, lambda n: range(2, n + 2), _path, lambda n: (1,) * n,
                     _a_roots),
    "C": _DynkinType(1, None, lambda n: range(2, 2 * n + 1, 2), lambda n: _path(n, 2),
                     lambda n: (1,) * (n - 1) + (min(n, 2),), _c_roots),
    "D": _DynkinType(3, None, lambda n: (*range(2, 2 * n - 1, 2), n),
                     lambda n: _path(n - 1) + [(n - 2, n, 1)], lambda n: (1,) * n, _d_roots),
    "F4": _DynkinType(4, 4, lambda n: (2, 6, 8, 12),
                      lambda n: ((1, 2, 1), (3, 2, 2), (3, 4, 1)), lambda n: (2, 2, 1, 1)),
    "G2": _DynkinType(2, 2, lambda n: (2, 6), lambda n: ((2, 1, 3),), lambda n: (3, 1)),
}

SUPPORTED_TYPES = tuple(_TYPES)
SimplePairs = Tuple[Tuple[Tuple[int, int], ...], ...]  # (0-based index, value)


class RootSystemError(ValueError):
    """Unsupported type/rank combination or malformed weight data."""


class Weight(tuple):
    """An integral weight in fundamental coordinates.

    Immutable, hashable, ordered lexicographically (tuple order), with
    componentwise vector arithmetic.  The constructor checks that the
    coordinates are exact integers; arithmetic on two Weights trusts them.
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable[int]) -> "Weight":
        try:
            coords = tuple(coords)
            vals = tuple(map(operator.index, coords))
        except TypeError:
            raise RootSystemError(
                f"weight coordinates must be integers, got {coords!r}"
            ) from None
        return tuple.__new__(cls, vals)

    def __add__(self, other) -> "Weight":
        if not isinstance(other, Weight):
            other = Weight(other)
        return tuple.__new__(Weight, [a + b for a, b in zip(self, other, strict=True)])

    __radd__ = __add__

    def __sub__(self, other) -> "Weight":
        if not isinstance(other, Weight):
            other = Weight(other)
        return tuple.__new__(Weight, [a - b for a, b in zip(self, other, strict=True)])

    def __neg__(self) -> "Weight":
        return tuple.__new__(Weight, [-a for a in self])

    def __mul__(self, k) -> "Weight":
        k = operator.index(k)
        return tuple.__new__(Weight, [k * a for a in self])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Weight{tuple.__repr__(self)}"


class _Frozen:
    """Base of the slotted records: __init__ sets each field once, through
    object.__setattr__; assigning or deleting one afterwards raises."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RootData(NamedTuple):
    """A positive root with the exact data the formulas need.

    weight        the root in fundamental coordinates
    coefficients  its coordinates in the simple root basis (all >= 0)
    coroot        the coroot beta-vee in the simple coroot basis (integers)
    norm          (beta, beta) under the form with short roots of norm 2
    """

    weight: Weight
    coefficients: Tuple[int, ...]
    coroot: Tuple[int, ...]
    norm: int


class RootSystem(_Frozen):
    """An irreducible root system, interned per (type, rank); compares by identity.

    Fields, in order: type_label, rank, the Cartan matrix cartan (rows),
    symmetrizer, simple_roots and rho (Weights), _simple_pairs (the
    nonzero (index, value) pairs of each simple root, for _apply),
    _root_count (|Phi+|, a walk's length bound), positive_roots (Weights)
    and root_data (one RootData per positive root).  The last two, unless
    given, are filled on the first read of either and kept.
    """

    __slots__ = (
        "type_label", "rank", "cartan", "symmetrizer", "simple_roots", "rho",
        "_simple_pairs", "_root_count", "positive_roots", "root_data",
    )

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        if name not in ("positive_roots", "root_data"):
            raise AttributeError(f"'RootSystem' object has no attribute {name!r}")
        row = _TYPES[self.type_label]
        data = (row.roots(self.rank) if row.roots else
                _positive_root_closure(self.simple_roots, self._simple_pairs, self.symmetrizer))
        object.__setattr__(self, "root_data", data)
        object.__setattr__(self, "positive_roots", tuple(d.weight for d in data))
        return getattr(self, name)

    def __repr__(self) -> str:
        return f"RootSystem({self.type_label}, {self.rank})"

    def coroot_pairing(self, chi: Weight, data: RootData) -> int:
        """<chi, beta-vee> for a positive root, exact integer."""
        return sum(c * x for c, x in zip(data.coroot, chi, strict=True))

    def form(self, chi: Weight, coefficients: Tuple[int, ...]) -> int:
        """(chi, beta) for beta given in simple-root coordinates.

        Uses (chi, alpha_j) = d_j * <chi, alpha_j-vee> where d_j is the
        symmetrizer entry, so the result is an exact integer.
        """
        return sum(
            d * m * x
            for d, m, x in zip(self.symmetrizer, coefficients, chi, strict=True)
        )


def _apply(pairs: SimplePairs, word: Sequence[int], chi: Sequence[int]) -> Weight:
    """s_{i_1} ... s_{i_k}(chi), the rightmost letter first, unchecked."""
    mu = list(chi)
    for i in reversed(word):
        c = mu[i - 1]
        if c:
            for j, a in pairs[i - 1]:
                mu[j] -= c * a
    return tuple.__new__(Weight, mu)


def _positive_root_closure(
    simple: Tuple[Weight, ...], pairs: SimplePairs, sym: Tuple[int, ...]
) -> Tuple[RootData, ...]:
    """Every positive root with its data, each found as an upward reflection.

    A positive root beta that is not simple has a node i with
    <beta, alpha_i-vee> > 0 (otherwise (beta, beta) = sum_i m_i d_i
    <beta, alpha_i-vee> <= 0), and s_i beta is then a positive root of
    lower height (s_i permutes the positive roots other than alpha_i)
    with <s_i beta, alpha_i-vee> < 0.  So reflecting only upward, at the
    nodes where the pairing is negative, reaches every positive root from
    the simple ones, and an upward image of a positive root is positive
    without a coefficient test; the step at node i raises the coefficient
    m_i by -<beta, alpha_i-vee>.

    Then each root's norm (beta, beta) = sum_j d_j m_j <beta, alpha_j-vee>
    and its coroot beta-vee = 2 beta / (beta, beta), with coordinates
    2 d_j m_j / norm, are read off its coefficients.  Sorted by (height,
    coefficients).
    """
    rank = len(simple)
    found = {alpha: (0,) * j + (1,) + (0,) * (rank - j - 1) for j, alpha in enumerate(simple)}
    frontier = list(found.items())
    while frontier:
        nxt = []
        for beta, coeffs in frontier:
            for i, c in enumerate(beta):
                if c < 0:
                    image = _apply(pairs, (i + 1,), beta)
                    if image not in found:
                        found[image] = up = coeffs[:i] + (coeffs[i] - c,) + coeffs[i + 1 :]
                        nxt.append((image, up))
        frontier = nxt
    out = []
    for beta, coeffs in found.items():
        norm = sum(d * m * x for d, m, x in zip(sym, coeffs, beta))
        scaled = [2 * d * m for d, m in zip(sym, coeffs)]
        if any(x % norm for x in scaled):
            raise AssertionError("coroot coordinates must be integral")
        coroot = tuple(x // norm for x in scaled)
        out.append((sum(coeffs), coeffs, RootData(beta, coeffs, coroot, norm)))
    return tuple(data for _, _, data in sorted(out))


def _validate(type_label: str, rank: int) -> str:
    label = type_label.strip().upper() if isinstance(type_label, str) else None
    row = _TYPES.get(label)
    if row is None:
        raise RootSystemError(
            f"unsupported type {type_label!r}; supported: {', '.join(SUPPORTED_TYPES)}"
        )
    if rank < 1:
        raise RootSystemError(f"rank must be >= 1, got {rank}")
    if rank < row.least or row.fixed not in (None, rank):
        rule = f"has rank {row.fixed}" if row.fixed else f"needs rank >= {row.least}"
        raise RootSystemError(f"type {label} {rule}")
    return label


def build_root_system(
    type_label: str, rank: int, cap: Optional[int] = None
) -> RootSystem:
    """Construct (and intern) the root system of the given type and rank.

    The label is case-insensitive; interning happens after normalization
    so every spelling of a system yields the same object.  The root list,
    once read, stores rank coordinates for each positive root; that count,
    |Phi+| * rank in closed form, is checked against the resource cap
    before the interned lookup, whether or not the list is ever read, so
    the outcome does not depend on which systems the process built before.
    """
    rank = _index(rank, "rank", RootSystemError)
    label = _validate(type_label, rank)
    check_cap(
        f"root system {label} rank {rank}",
        _TYPES[label].positive_roots(rank) * rank,
        resource_cap(cap),
    )
    return _build_interned(label, rank)


@lru_cache(maxsize=None)
def _build_interned(label: str, rank: int) -> RootSystem:
    row = _TYPES[label]
    # cartan[i][j] = <alpha_j, alpha_i-vee>
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, k in row.bonds(rank):
        cartan[i - 1][j - 1], cartan[j - 1][i - 1] = -k, -1
    cartan = tuple(map(tuple, cartan))
    sym = row.symmetrizer(rank)
    for i in range(rank):
        for j in range(rank):
            if sym[i] * cartan[i][j] != sym[j] * cartan[j][i]:
                raise AssertionError("symmetrizer does not symmetrize the Cartan matrix")
    simple = tuple(Weight(cartan[i][j] for i in range(rank)) for j in range(rank))
    pairs = tuple(tuple((i, a) for i, a in enumerate(alpha) if a) for alpha in simple)
    return RootSystem(label, rank, cartan, sym, simple, Weight((1,) * rank), pairs,
                      row.positive_roots(rank))


def make_weight(system: RootSystem, coords: Iterable[int]) -> Weight:
    """Validate coordinate data against the system's rank."""
    w = coords if isinstance(coords, Weight) else Weight(coords)
    if len(w) != system.rank:
        raise RootSystemError(
            f"weight has {len(w)} coordinates, {system!r} has rank {system.rank}"
        )
    return w


def _node(system: RootSystem, i: int, what: str = "node index") -> int:
    """A 1-based node of system as an exact integer, else RootSystemError."""
    i = _index(i, what, RootSystemError)
    if not 1 <= i <= system.rank:
        raise RootSystemError(f"{what} {i} out of range 1..{system.rank}")
    return i


def pair(system: RootSystem, chi: Weight, i: int) -> int:
    """<chi, alpha_i-vee> for a simple coroot, 1-based node index."""
    return make_weight(system, chi)[_node(system, i) - 1]


def reflect(system: RootSystem, chi: Weight, i: int) -> Weight:
    """Simple reflection s_i(chi) = chi - <chi, alpha_i-vee> alpha_i."""
    chi = make_weight(system, chi)
    return _apply(system._simple_pairs, (_node(system, i),), chi)
