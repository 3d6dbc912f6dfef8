"""Weyl group elements, parabolic subgroups, orbits and coset enumeration.

One chamber walk, straighten, does every descent here and in reps and
bwb: it reflects the lowest-index negative coordinate until none is left.
Every reflection subtracts a simple root over its at most three nonzero
(index, value) pairs, in O(1) whatever the rank, unvalidated.  An element
is its canonical reduced word plus a key: the word is the greedy right
descent, smallest node first, read off by straightening w^-1(rho); the key,
the image of the regular rho, is faithful, so equality and hashing use it.

The Poincare polynomial of W / W_I has Macdonald's closed form, a product
over the positive roots outside the Levi of [ht + 1]_L / [ht]_L;
height_exponents collects its factors, and coset_count is its value at
L = 1, which bounds every orbit or coset walk against the resource cap
before it starts.  Enumeration is kept for the representatives and as a
cross-check of that product.  The cosets w W_I are the W-orbit of a probe
weight, one on crossed nodes and zero elsewhere, with stabiliser W_I.

Every orbit and coset set comes from one upward walk, _upward_levels,
from a dominant lambda with stabiliser W_J: level k + 1 holds s_i(mu) for
each mu on level k with mu_i > 0, with the first edge (mu, i) into each
point.  By Deodhar's lemma, for w minimal in w W_J and mu = w(lambda),
s_i w is a longer minimal representative if mu_i > 0, lies in w W_J if
mu_i = 0 and is shorter if mu_i < 0; so level k holds the points of
length k, once each.  A coset carries r(w), its canonical word reversed:
the lexicographically first reduced word of w^-1.  Each reduced word of
w^-1 ends in a left descent i of w, and with that letter fixed the least
prefix is r(s_i w); so r(w) is the least r(s_i w) + (i,) over the i with
mu_i < 0, the walk's edges into mu.  A level held in r order (its
insertion order) and walked in that order, nodes ascending, meets those
edges in the order of r(s_i w) + (i,): the first edge into mu gives r(w),
and the next level comes out in r order too.  minimal_coset_reps builds
r(w) and the key w(rho), s_i of the parent's, from that edge.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Sequence, Tuple

from .limits import check_cap, resource_cap
from .rootsys import (
    RootData,
    RootSystem,
    RootSystemError,
    Weight,
    _apply,
    _node,
    make_weight,
)


class WeylElement(NamedTuple):
    """A Weyl group element with a canonical reduced word.

    word           reduced word, 1-based letters, canonical for the element
    canonical_key  image of rho; faithful because rho is regular
    """

    system: RootSystem
    word: Tuple[int, ...]
    canonical_key: Weight

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (
            self.system.type_label == other.system.type_label
            and self.system.rank == other.system.rank
            and self.canonical_key == other.canonical_key
        )

    def __ne__(self, other) -> bool:  # tuple.__ne__ would compare the words too
        return not self == other

    def __hash__(self) -> int:
        return hash((self.system.type_label, self.system.rank, self.canonical_key))

    def __repr__(self) -> str:
        if not self.word:
            return "WeylElement(identity)"
        return f"WeylElement({'*'.join(f's{i}' for i in self.word)})"


def _is_negative_root(system: RootSystem, chi: Weight) -> bool:
    if -chi in system.root_coefficient_index:
        return True
    if chi in system.root_coefficient_index:
        return False
    raise AssertionError(f"{chi!r} is not a root of {system!r}")


def identity(system: RootSystem) -> WeylElement:
    return from_word(system, ())


def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    return from_word(system, (i,))


def from_word(system: RootSystem, word: Iterable[int]) -> WeylElement:
    """Element of a (not necessarily reduced) word; the stored word is reduced.

    The canonical word is the greedy right descent, smallest node first:
    i is a right descent of w iff w^-1(rho) has a negative coordinate at
    i, so straightening w^-1(rho) strips the descents in that order.
    """
    letters = tuple(_node(system, i) for i in word)
    pairs = system._simple_pairs
    inverse_rho = _apply(pairs, letters[::-1], system.rho)
    _, descents = straighten(system, inverse_rho, range(1, system.rank + 1))
    reduced = descents[::-1]
    return WeylElement(system, reduced, _apply(pairs, reduced, system.rho))


def act(w: WeylElement, chi: Weight) -> Weight:
    return _apply(w.system._simple_pairs, w.word, make_weight(w.system, chi))


def length(w: WeylElement) -> int:
    """Number of positive roots sent to negative ones (= reduced word length)."""
    return len(w.word)


def inversions(w: WeylElement) -> int:
    """Count positive roots mapped to negative roots, from the definition."""
    count = 0
    for beta in w.system.positive_roots:
        if _is_negative_root(w.system, act(w, beta)):
            count += 1
    return count


def compose(v: WeylElement, w: WeylElement) -> WeylElement:
    if v.system is not w.system:
        raise RootSystemError("cannot compose elements of different systems")
    return from_word(v.system, v.word + w.word)


def inverse(w: WeylElement) -> WeylElement:
    return from_word(w.system, tuple(reversed(w.word)))


class ParabolicSubgroup(NamedTuple):
    """A standard parabolic P with crossed nodes removed from the diagram.

    crossed   nodes crossed out (the flag data); the Levi loses these
    retained  complement; W_I is generated by the retained reflections
    """

    system: RootSystem
    crossed: FrozenSet[int]
    retained: FrozenSet[int]

    def __repr__(self) -> str:
        cross = ",".join(str(i) for i in sorted(self.crossed)) or "-"
        return f"Parabolic({self.system.type_label}{self.system.rank}, crossed={{{cross}}})"


def parabolic(system: RootSystem, crossed: Iterable[int]) -> ParabolicSubgroup:
    nodes = frozenset(_node(system, i, "crossed node") for i in crossed)
    retained = frozenset(range(1, system.rank + 1)) - nodes
    return ParabolicSubgroup(system=system, crossed=nodes, retained=retained)


def full_group(system: RootSystem) -> ParabolicSubgroup:
    """The improper parabolic with nothing crossed; its Levi is G itself."""
    return parabolic(system, ())


def levi_root_data(P: ParabolicSubgroup) -> Tuple[RootData, ...]:
    """Positive roots supported on the retained nodes."""
    crossed = [i - 1 for i in P.crossed]
    return tuple(
        data
        for data in P.system.root_data
        if not any(data.coefficients[i] for i in crossed)
    )


def _coset_probe(P: ParabolicSubgroup) -> Weight:
    # dominant, stabiliser exactly W_I
    return Weight(1 if i + 1 in P.crossed else 0 for i in range(P.system.rank))


def longest_element(P: ParabolicSubgroup) -> WeylElement:
    """Longest element of W_I: it straightens minus a Levi-regular weight."""
    system = P.system
    minus_regular = [-1 if i in P.retained else 0 for i in range(1, system.rank + 1)]
    _, letters = straighten(system, minus_regular, sorted(P.retained))
    w = from_word(system, letters[::-1])
    if len(w.word) != len(letters):
        raise AssertionError("longest element word failed to stay reduced")
    return w


def straighten(
    system: RootSystem, v: Sequence[int], nodes: Sequence[int]
) -> Tuple[Weight, Tuple[int, ...]]:
    """Move v into the chamber of the reflections at nodes (ascending, 1-based).

    Reflects the lowest-index negative coordinate among nodes until none is
    left, and returns the image with the letters reflected, in order.  The
    image is the dominant conjugate of v for the subgroup the nodes
    generate, so v is singular for that subgroup iff the image has a zero
    on nodes.  The number of letters is the length of the straightening
    element.
    """
    pairs = system._simple_pairs
    budget = len(system.positive_roots)
    mu = list(v)
    letters: list[int] = []
    while True:
        for node in nodes:
            if mu[node - 1] < 0:
                break
        else:
            return tuple.__new__(Weight, mu), tuple(letters)
        c = mu[node - 1]
        for j, a in pairs[node - 1]:
            mu[j] -= c * a
        letters.append(node)
        if len(letters) > budget:
            raise AssertionError("straightening exceeded the inversion bound")


def height_exponents(P: ParabolicSubgroup) -> Dict[int, int]:
    """Exponents e_h with [G/P] = prod_h [h]_L ** e_h, ascending in h.

    Macdonald's product runs over the positive roots beta touching a
    crossed node and multiplies [ht beta + 1]_L / [ht beta]_L, where
    [h]_L = 1 + L + ... + L^(h-1).  Factors are collected by h and the
    ratios cancelled; [1]_L = 1 and zero exponents are left out.
    """
    crossed = [i - 1 for i in P.crossed]
    exponents: Dict[int, int] = {}
    for data in P.system.root_data:
        if any(data.coefficients[i] for i in crossed):
            h = sum(data.coefficients)
            exponents[h + 1] = exponents.get(h + 1, 0) + 1
            exponents[h] = exponents.get(h, 0) - 1
    return {h: e for h, e in sorted(exponents.items()) if h > 1 and e}


def coset_count(P: ParabolicSubgroup) -> int:
    """|W / W_I|, the height product at L = 1, where [h]_L is h."""
    num = den = 1
    for h, e in height_exponents(P).items():
        if e > 0:
            num *= h**e
        else:
            den *= h**-e
    return num // den


def _upward_levels(
    system: RootSystem, top: Weight, nodes: Sequence[int]
) -> Iterable[Dict[Weight, Optional[Tuple[Weight, int]]]]:
    """The orbit of top, dominant for nodes (0-based, ascending), by levels:
    each maps its points, in walk order, to their first edge (parent, node)."""
    pairs = system._simple_pairs
    level = {top: None}
    while level:
        yield level
        nxt = {}
        for mu in level:
            for i in nodes:
                c = mu[i]
                if c > 0:
                    nu = list(mu)
                    for j, a in pairs[i]:
                        nu[j] -= c * a
                    nu = tuple.__new__(Weight, nu)
                    if nu not in nxt:
                        nxt[nu] = (mu, i)
        level = nxt


def orbit(
    chi: Weight, P: ParabolicSubgroup, cap: Optional[int] = None
) -> Tuple[Weight, ...]:
    """The W_I-orbit of chi, sorted; |W_I| / |W_J| must fit the cap first."""
    system = P.system
    retained = sorted(P.retained)
    dominant, _ = straighten(system, make_weight(system, chi), retained)
    moved = [i for i in range(1, system.rank + 1) if i in P.crossed or dominant[i - 1]]
    size = coset_count(parabolic(system, moved)) // coset_count(P)
    check_cap("Weyl orbit", size, resource_cap(cap))
    levels = _upward_levels(system, dominant, [i - 1 for i in retained])
    return tuple(sorted(mu for level in levels for mu in level))


def minimal_coset_reps(
    P: ParabolicSubgroup, cap: Optional[int] = None
) -> Tuple[Tuple[WeylElement, int], ...]:
    """Minimal representatives of W / W_I with their lengths, by (length, word)."""
    system = P.system
    check_cap("coset enumeration", coset_count(P), resource_cap(cap))
    pairs = system._simple_pairs
    reps = []
    known: Dict[Weight, Tuple[Tuple[int, ...], Weight]] = {}  # point -> r(w), w(rho)
    for level in _upward_levels(system, _coset_probe(P), range(system.rank)):
        built = {}
        for mu, edge in level.items():
            if edge is None:
                built[mu] = ((), system.rho)
            else:  # the least r + (i,): see the module notes
                parent, i = edge
                r, key = known[parent]
                built[mu] = (r + (i + 1,), _apply(pairs, (i + 1,), key))
        ordered = sorted((r[::-1], key) for r, key in built.values())
        reps.extend((WeylElement(system, w, key), len(w)) for w, key in ordered)
        known = built
    return tuple(reps)


def coset_lengths(P: ParabolicSubgroup, cap: Optional[int] = None) -> Tuple[int, ...]:
    """Sorted lengths of the minimal coset representatives (walk levels)."""
    check_cap("coset enumeration", coset_count(P), resource_cap(cap))
    levels = _upward_levels(P.system, _coset_probe(P), range(P.system.rank))
    return tuple(depth for depth, level in enumerate(levels) for _ in level)


def weyl_group_order(system: RootSystem) -> int:
    """|W|: the height product with every node crossed, so W_I = 1."""
    return coset_count(parabolic(system, range(1, system.rank + 1)))
