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
(index, value) pairs of alpha_i that build_root_system stores.

Type C_n uses the symplectic convention alpha_i = L_i - L_{i+1} for i < n
and alpha_n = 2 L_n, hence omega_i = L_1 + ... + L_i.  For F4 the node
numbering is fixed by

    s_1(w_1) = -w_1 + w_2          s_2(w_2) = w_1 - w_2 + 2 w_3
    s_3(w_3) = w_2 - w_3 + w_4     s_4(w_4) = w_3 - w_4

(nodes 1, 2 long; nodes 3, 4 short).  For G2, alpha_1 is long.

A type is defined in one place, its row of _TYPES: least or fixed rank,
|Phi+| in closed form, the Dynkin bonds that give the Cartan matrix, and
the symmetrizer.  A new type is a new row (and an orthogonal map, if any).

The L-basis ("orthogonal") coordinates exist for types A, C and D via
to_orthogonal / from_orthogonal; type A is normalised to the lattice
section whose last orthogonal coordinate vanishes.  Types F4 and G2 reject
the map.

The positive roots come from one enumeration, _positive_root_closure,
which only ever reflects upward: from a positive root beta it takes
s_i(beta) at the nodes i where <beta, alpha_i-vee> < 0, which raises the
height by -<beta, alpha_i-vee>.  That reaches every positive root from
the simple ones, because a non-simple positive root beta has some node
with <beta, alpha_i-vee> > 0 and is the upward image of the lower
positive root s_i(beta) (Humphreys, Introduction to Lie Algebras,
section 10.2).  The coroot and norm of each root are then read off its
simple-root coefficients in one pass.

Everything is exact: weight coordinates are Python ints, the only rational
intermediates (orthogonal spin coordinates) are Fractions, imported by
the two functions that make them.  Outside data is validated once, when
a Weight is built from it; arithmetic on two Weights and the kernels
trust their operands.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat
from operator import floordiv, mod, mul
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Optional, Sequence, Tuple

from .limits import _index, check_cap, resource_cap

if TYPE_CHECKING:
    from fractions import Fraction


class _DynkinType(NamedTuple):
    """A row of _TYPES; the callables take the rank n.  A bond (i, j, k) on
    1-based nodes puts -k at <alpha_j, alpha_i-vee> and -1 at <alpha_i,
    alpha_j-vee>; d_i = (alpha_i, alpha_i) / 2 with short roots of norm 2."""

    least: int  # the least rank
    fixed: Optional[int]  # the only rank, or None
    positive_roots: Callable[[int], int]  # |Phi+|, read by the cap check before a build
    bonds: Callable[[int], Iterable[Tuple[int, int, int]]]
    symmetrizer: Callable[[int], Tuple[int, ...]]


def _path(n: int, last: int = 1) -> list[tuple[int, int, int]]:
    """The chain 1 - 2 - ... - n; the bond n-1 -> n has multiplicity last."""
    return [(i, i + 1, last if i == n - 1 else 1) for i in range(1, n)]


# C_n has alpha_n long; C1 = A1 keeps d = (1,)
_TYPES = {
    "A": _DynkinType(1, None, lambda n: n * (n + 1) // 2, _path, lambda n: (1,) * n),
    "C": _DynkinType(1, None, lambda n: n * n, lambda n: _path(n, 2),
                     lambda n: (1,) * (n - 1) + (min(n, 2),)),
    "D": _DynkinType(3, None, lambda n: n * (n - 1), lambda n: _path(n - 1) + [(n - 2, n, 1)],
                     lambda n: (1,) * n),
    "F4": _DynkinType(4, 4, lambda n: 24, lambda n: ((1, 2, 1), (3, 2, 2), (3, 4, 1)),
                      lambda n: (2, 2, 1, 1)),
    "G2": _DynkinType(2, 2, lambda n: 6, lambda n: ((2, 1, 3),), lambda n: (3, 1)),
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
            vals = tuple(operator.index(c) for c in coords)
        except TypeError:
            raise RootSystemError(
                f"weight coordinates must be integers, got {tuple(coords)!r}"
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
    symmetrizer, simple_roots and positive_roots (Weights), root_data
    (one RootData per positive root), rho, root_coefficient_index (each
    positive root's fundamental coordinates -> its simple-root-basis
    coordinates, for positivity tests on root images) and _simple_pairs
    (the nonzero (index, value) pairs of each simple root, for _apply).
    """

    __slots__ = (
        "type_label", "rank", "cartan", "symmetrizer", "simple_roots",
        "positive_roots", "root_data", "rho", "root_coefficient_index",
        "_simple_pairs",
    )

    def __init__(self, *fields) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

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
    simple: Tuple[Weight, ...], pairs: SimplePairs
) -> list[tuple[Weight, Tuple[int, ...]]]:
    """All positive roots, each found as an upward reflection of a lower one.

    A positive root beta that is not simple has a node i with
    <beta, alpha_i-vee> > 0 (otherwise (beta, beta) = sum_i m_i d_i
    <beta, alpha_i-vee> <= 0), and s_i beta is then a positive root of
    lower height (s_i permutes the positive roots other than alpha_i)
    with <s_i beta, alpha_i-vee> < 0.  So reflecting only upward, at the
    nodes where the pairing is negative, reaches every positive root from
    the simple ones, and an upward image of a positive root is positive
    without a coefficient test.  Sorted by (height, coefficients).
    """
    rank = len(simple)
    seen: dict[Weight, Tuple[int, ...]] = {
        alpha: (0,) * j + (1,) + (0,) * (rank - j - 1) for j, alpha in enumerate(simple)
    }
    frontier = list(seen.items())
    while frontier:
        nxt: list[tuple[Weight, Tuple[int, ...]]] = []
        for beta, coeffs in frontier:
            for i, c in enumerate(beta):
                if c >= 0:
                    continue
                image = _apply(pairs, (i + 1,), beta)
                if image not in seen:
                    seen[image] = up = coeffs[:i] + (coeffs[i] - c,) + coeffs[i + 1 :]
                    nxt.append((image, up))
        frontier = nxt
    return sorted(seen.items(), key=lambda item: (sum(item[1]), item[1]))


def _validate(type_label: str, rank: int) -> str:
    label = type_label.strip().upper()
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
    so every spelling of a system yields the same object.  The system
    stores rank coordinates for each positive root; that count,
    |Phi+| * rank in closed form, is checked against the resource cap
    before the interned lookup, so the outcome does not depend on which
    systems the process built before.
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
    closure = _positive_root_closure(simple, pairs)

    # beta-vee = 2 beta / (beta, beta): in the simple coroot basis its
    # coordinates are d_j m_j / half with half = (beta, beta) / 2; with
    # all d_j = 1 (simply laced) d_j m_j is m_j, and with half = 1 the
    # coordinates are d_j m_j themselves, integral with no test
    simply_laced = set(sym) == {1}
    data = []
    for weight, coeffs in closure:
        dm = coeffs if simply_laced else tuple(map(mul, sym, coeffs))
        norm = sum(map(mul, dm, weight))
        half = norm // 2
        if norm % 2 or half != 1 and any(map(mod, dm, repeat(half))):
            raise AssertionError("coroot coordinates must be integral")
        coroot = dm if half == 1 else tuple(map(floordiv, dm, repeat(half)))
        data.append(RootData(weight, coeffs, coroot, norm))
    return RootSystem(
        label, rank, cartan, sym, simple, tuple(d.weight for d in data),
        tuple(data), Weight((1,) * rank), dict(closure), pairs,
    )


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


def _require_orthogonal(system: RootSystem) -> None:
    if system.type_label not in ("A", "C", "D"):
        raise RootSystemError(
            f"type {system.type_label} has no orthogonal basis map here"
        )


def to_orthogonal(system: RootSystem, chi: Weight) -> Tuple[Fraction, ...]:
    """Express chi in L-basis coordinates (types A, C, D only)."""
    chi = make_weight(system, chi)
    _require_orthogonal(system)
    from fractions import Fraction

    n = system.rank
    coords, head = [Fraction(0)] * n, n
    if system.type_label == "D":
        # the spin nodes n-1 and n add (chi_{n-1} + chi_n) / 2 to every
        # c_j but the last, which gets (chi_n - chi_{n-1}) / 2
        spin = Fraction(chi[n - 2] + chi[n - 1], 2)
        coords = [spin] * (n - 1) + [Fraction(chi[n - 1] - chi[n - 2], 2)]
        head = n - 2
    # suffix sums: c_j gains chi_j + ... + chi_{head} (omega_i = L_1 + ... + L_i)
    total = 0
    for j in reversed(range(head)):
        total += chi[j]
        coords[j] += total
    return tuple(coords)


def from_orthogonal(system: RootSystem, coords: Iterable) -> Weight:
    """Inverse of to_orthogonal; rejects vectors outside the weight lattice."""
    _require_orthogonal(system)
    from fractions import Fraction

    c = [Fraction(x) for x in coords]
    n = system.rank
    if len(c) != n:
        raise RootSystemError(f"expected {n} orthogonal coordinates, got {len(c)}")
    if system.type_label in ("A", "C"):
        fund = [c[i] - (c[i + 1] if i + 1 < n else 0) for i in range(n)]
    else:  # D
        fund = [c[i] - c[i + 1] for i in range(n - 2)]
        fund.append(c[n - 2] - c[n - 1])
        fund.append(c[n - 2] + c[n - 1])
    ints = []
    for x in fund:
        if x.denominator != 1:
            raise RootSystemError(
                f"orthogonal coordinates {tuple(map(str, c))} are outside the weight lattice"
            )
        ints.append(int(x))
    return Weight(ints)


def is_positive_root(system: RootSystem, chi: Weight) -> bool:
    return chi in system.root_coefficient_index


def is_root(system: RootSystem, chi: Weight) -> bool:
    return chi in system.root_coefficient_index or (-chi) in system.root_coefficient_index
