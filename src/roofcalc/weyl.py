"""Weyl group elements, parabolic subgroups, orbits and coset enumeration.

_walk moves a weight into a chamber: it reflects the lowest-index
negative kept node until none is left.  A reflection at a negative node
makes it positive and only lowers its neighbours, so a negative node
stays negative until it is reflected: the walk pushes each node onto a
heapq heap as it goes negative, and the heap's minimum is the node a
rescan from node 1 would pick.  straighten seeds the heap with every
negative kept node; from_word and longest_element read its letters,
orbit, bwb on F4 and G2 and reps' duals (-hw over the retained nodes)
its image, singular or not.  reps._product needs only regular images:
it seeds the heap from a weight's support, zeros included, and walks
with walls, which stops at the first zero on a kept node.  Reflections
only raise the node reflected, so a new zero can appear only on a
neighbour going down from positive; a weight that meets one is
W_I-conjugate to a weight on a wall, hence singular, and its image
would be dropped anyway.  Only bwb on A, C and D sorts eps-coordinates
instead.  Every reflection subtracts a simple root over its at most
three nonzero (index, value) pairs, in O(1) whatever the rank,
unvalidated.  An element is its canonical reduced word: the greedy right
descent, smallest node first, read off by straightening w^-1(rho).  Each
element has exactly one, the reverse of the lexicographically first
reduced word of w^-1, so equality and hashing compare (system, word).

The Poincare polynomial of W / W_I is prod [d_i]_L / prod [d'_j]_L over
the degrees of W and of W_I (Chevalley; Solomon 1966), [h]_L = 1 + L +
... + L^(h-1); by Kostant's duality of heights and exponents, Macdonald's
product over the roots outside the Levi of [ht + 1]_L / [ht]_L cancels
down to it.  height_exponents collects its factors from the crossed
nodes and the degrees in rootsys' rows, reading no root, and coset_count
is its value at L = 1, which bounds every orbit or coset walk against
the resource cap before it starts.  Enumeration is kept for the
representatives and as a cross-check of that product.  The cosets w W_I
are the W-orbit of a probe weight, one on crossed nodes and zero
elsewhere, with stabiliser W_I.

Every orbit and coset set comes from one upward walk, _upward_levels,
from a dominant lambda with stabiliser W_J: level k + 1 holds s_i(mu) for
each mu on level k with mu_i > 0, with the first edge (mu, i) into each
point.  By Deodhar's lemma, for w minimal in w W_J and mu = w(lambda),
s_i w is a longer minimal representative if mu_i > 0, lies in w W_J if
mu_i = 0 and is shorter if mu_i < 0; so level k holds the points of
length k, once each.  The canonical word of w, reversed, is the
lexicographically first reduced word of w^-1.  Each reduced word of w^-1
ends in a left descent i of w, and with that letter fixed the least
prefix is the reversed word of s_i w.  So the word of w is i followed by
the word of s_i w, for the edge (s_i w, i) into mu (one for each i with
mu_i < 0) where the reversed word of s_i w, then i, is least.  A level
held in the order of its reversed words (its insertion order) and walked
in that order, nodes ascending, meets the edges into each point in that
order: the first edge into mu gives the word of w, and the next level
comes out in the order of its reversed words too.  minimal_coset_reps
prepends the first edge's node to the parent's word, then sorts each
level's words.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .limits import check_cap, resource_cap
from .rootsys import (
    RootData,
    RootSystem,
    RootSystemError,
    SimplePairs,
    Weight,
    _TYPES,
    _apply,
    _node,
    make_weight,
)


class WeylElement(NamedTuple):
    """A Weyl group element: its system and its canonical reduced word.

    word  the greedy right descent, 1-based letters; each element has exactly
          one, so equality compares (system, word), systems by identity
    """

    system: RootSystem
    word: Tuple[int, ...]

    def __repr__(self) -> str:
        if not self.word:
            return "WeylElement(identity)"
        return f"WeylElement({'*'.join(f's{i}' for i in self.word)})"


def from_word(system: RootSystem, word: Iterable[int]) -> WeylElement:
    """Element of a (not necessarily reduced) word; the stored word is reduced.

    The canonical word is the greedy right descent, smallest node first:
    i is a right descent of w iff w^-1(rho) has a negative coordinate at
    i, so straightening w^-1(rho) strips the descents in that order.
    """
    letters = tuple(_node(system, i) for i in word)
    inverse_rho = _apply(system._simple_pairs, letters[::-1], system.rho)
    _, descents = straighten(system, inverse_rho, range(1, system.rank + 1))
    return WeylElement(system, descents[::-1])


def act(w: WeylElement, chi: Weight) -> Weight:
    return _apply(w.system._simple_pairs, w.word, make_weight(w.system, chi))


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


def levi_root_data(P: ParabolicSubgroup) -> Tuple[RootData, ...]:
    """Positive roots supported on the retained nodes."""
    crossed = [i - 1 for i in P.crossed]
    return tuple(
        data
        for data in P.system.root_data
        if not any(map(data.coefficients.__getitem__, crossed))
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


def _walk(
    pairs: SimplePairs,
    mu: List[int],
    keep: Sequence[bool],
    heap: List[int],
    budget: int,
    walls: bool = False,
) -> Optional[List[int]]:
    """Reflect mu in place at its first negative kept node until none is left.

    heap holds exactly the negative kept nodes (0-based), as a heapq heap;
    returns the nodes reflected, in order.  With walls, the walk stops at
    the first zero it makes on a kept node, returning None with mu
    part-way.  See the module notes.
    """
    letters = []
    while heap:
        i = heappop(heap)
        c = mu[i]
        for j, a in pairs[i]:
            old = mu[j]
            mu[j] = new = old - c * a
            if new < 0 <= old and keep[j]:
                heappush(heap, j)
            elif walls and not new and keep[j]:
                return None
        letters.append(i)
        if len(letters) > budget:
            raise AssertionError("straightening exceeded the inversion bound")
    return letters


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
    mu = list(v)
    keep = [False] * system.rank
    for node in nodes:
        keep[node - 1] = True
    heap = [node - 1 for node in nodes if mu[node - 1] < 0]  # ascending: a heap
    letters = _walk(system._simple_pairs, mu, keep, heap, system._root_count)
    return tuple.__new__(Weight, mu), tuple(i + 1 for i in letters)


def _levi_degrees(P: ParabolicSubgroup) -> Iterable[int]:
    """The degrees of W_I, one Levi component per run of retained nodes.

    A run of k nodes is A_k, except: the whole diagram is the group; on C
    the run through n is C_k; on D the run through n-2 with the forks it
    keeps is D_(k+2) with both (D_2 = A_1 x A_1) and A_(k+1) with one;
    on F4 a run over the double bond 2-3 is B_k, of C_k's degrees.
    """
    label, n = P.system.type_label, P.system.rank
    last = n - 2 if label == "D" else n
    cuts = [0, *sorted(i for i in P.crossed if i <= last), last + 1]
    for a, b in zip(cuts, cuts[1:]):
        k, kind = b - a - 1, "A"  # the run a+1..b-1
        if b > last and label == "D":
            forks = (n - 1 not in P.crossed) + (n not in P.crossed)
            kind, k = ("D", k + 2) if forks == 2 else ("A", k + forks)
        elif b > last and label == "C" or label == "F4" and a < 2 and b > 3:
            kind = "C"
        yield from _TYPES[label if k == n else kind].degrees(k)


def height_exponents(P: ParabolicSubgroup) -> Dict[int, int]:
    """The nonzero exponents e_h of [G/P] = prod_h [h]_L ** e_h, ascending in
    h: the number of degrees of W equal to h less that of W_I (module notes)."""
    label, n = P.system.type_label, P.system.rank
    exponents = [0] * (3 * n + 1)  # no degree is above 3n, which G2 and F4 reach
    for h in _TYPES[label].degrees(n):
        exponents[h] += 1
    for h in _levi_degrees(P):
        exponents[h] -= 1
    return {h: e for h, e in enumerate(exponents) if e}


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
) -> Tuple[WeylElement, ...]:
    """Minimal representatives of W / W_I, by (length, word)."""
    system = P.system
    check_cap("coset enumeration", coset_count(P), resource_cap(cap))
    reps = []
    words: Dict[Weight, Tuple[int, ...]] = {}  # point -> canonical word, level by level
    for level in _upward_levels(system, _coset_probe(P), range(system.rank)):
        # the first edge (parent, i) into mu: i + 1, then the parent's word (module notes)
        words = {
            mu: (edge[1] + 1,) + words[edge[0]] if edge else () for mu, edge in level.items()
        }
        reps.extend(WeylElement(system, w) for w in sorted(words.values()))
    return tuple(reps)


def coset_lengths(P: ParabolicSubgroup, cap: Optional[int] = None) -> Tuple[int, ...]:
    """Sorted lengths of the minimal coset representatives (walk levels)."""
    check_cap("coset enumeration", coset_count(P), resource_cap(cap))
    levels = _upward_levels(P.system, _coset_probe(P), range(P.system.rank))
    return tuple(depth for depth, level in enumerate(levels) for _ in level)


def weyl_group_order(system: RootSystem) -> int:
    """|W|: the height product with every node crossed, so W_I = 1."""
    return coset_count(parabolic(system, range(1, system.rank + 1)))
