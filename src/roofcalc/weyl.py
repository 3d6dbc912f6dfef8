"""Weyl group elements, parabolic subgroups, orbits and coset enumeration.

Elements are determined by their action on weights.  Because rho is
regular, the image of rho is a faithful canonical key, so equality and
hashing use it; each element also carries a canonical reduced word
(extracted by a greedy right-descent, smallest node first).

The Poincare polynomial of W / W_I has Macdonald's closed form, a product
over the positive roots outside the Levi of [ht + 1]_L / [ht]_L;
height_exponents collects its factors, and coset_count is its value at
L = 1.  Enumeration is kept for the representatives themselves and as an
independent cross-check of that product.  It never materialises the full
Weyl group: the cosets w W_I correspond to the W-orbit of a probe weight
that is zero on retained nodes and one on crossed nodes (its stabiliser is
exactly W_I), and the length of the minimal representative is recovered
by greedy descent of the orbit point back to the dominant chamber.  The
coset count is checked against the resource cap before the orbit is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from .limits import check_cap, resource_cap
from .rootsys import (
    RootData,
    RootSystem,
    RootSystemError,
    Weight,
    make_weight,
    reflect,
)


@dataclass(frozen=True, eq=False, repr=False)
class WeylElement:
    """A Weyl group element with a canonical reduced word.

    word           reduced word, 1-based letters, canonical for the element
    canonical_key  image of rho; faithful because rho is regular
    """

    system: RootSystem
    word: Tuple[int, ...]
    canonical_key: Weight
    columns: Tuple[Weight, ...] = field(compare=False)  # images of omega_i

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return (
            self.system.type_label == other.system.type_label
            and self.system.rank == other.system.rank
            and self.canonical_key == other.canonical_key
        )

    def __hash__(self) -> int:
        return hash((self.system.type_label, self.system.rank, self.canonical_key))

    def __repr__(self) -> str:
        if not self.word:
            return "WeylElement(identity)"
        return f"WeylElement({'*'.join(f's{i}' for i in self.word)})"


def _identity_columns(system: RootSystem) -> Tuple[Weight, ...]:
    n = system.rank
    return tuple(Weight(1 if j == i else 0 for j in range(n)) for i in range(n))


def _columns_act(system: RootSystem, columns: Sequence[Weight], chi: Weight) -> Weight:
    out = [0] * system.rank
    for c, col in zip(chi, columns, strict=True):
        if c:
            for j, x in enumerate(col):
                out[j] += c * x
    return Weight(out)


def _is_negative_root(system: RootSystem, chi: Weight) -> bool:
    coeffs = system.root_coefficient_index.get(-chi)
    if coeffs is not None:
        return True
    if chi in system.root_coefficient_index:
        return False
    raise AssertionError(f"{chi!r} is not a root of {system!r}")


def _canonical_word(system: RootSystem, columns: Sequence[Weight]) -> Tuple[int, ...]:
    """Greedy right-descent: repeatedly strip s_i with w(alpha_i) < 0."""
    cols = list(columns)
    word_rev: list[int] = []
    while True:
        descent = 0
        descent_image = None
        for i in range(1, system.rank + 1):
            image = _columns_act(system, cols, system.simple_roots[i - 1])
            if _is_negative_root(system, image):
                descent = i
                descent_image = image
                break
        if not descent:
            break
        word_rev.append(descent)
        # multiply by s_i on the right: (w s_i)(omega_i) = w(omega_i - alpha_i),
        # so only column i changes
        i0 = descent - 1
        cols[i0] = cols[i0] - descent_image
    return tuple(reversed(word_rev))


def _from_columns(system: RootSystem, columns: Sequence[Weight]) -> WeylElement:
    cols = tuple(columns)
    word = _canonical_word(system, cols)
    key = Weight([sum(col[j] for col in cols) for j in range(system.rank)])
    return WeylElement(system=system, word=word, canonical_key=key, columns=cols)


def identity(system: RootSystem) -> WeylElement:
    return _from_columns(system, _identity_columns(system))


def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    if not 1 <= i <= system.rank:
        raise RootSystemError(f"node index {i} out of range 1..{system.rank}")
    cols = [reflect(system, c, i) for c in _identity_columns(system)]
    return _from_columns(system, cols)


def from_word(system: RootSystem, word: Iterable[int]) -> WeylElement:
    """Element of a (not necessarily reduced) word; the stored word is reduced."""
    letters = tuple(word)
    for i in letters:
        if not 1 <= i <= system.rank:
            raise RootSystemError(f"node index {i} out of range 1..{system.rank}")
    cols = []
    for c in _identity_columns(system):
        for i in reversed(letters):
            c = reflect(system, c, i)
        cols.append(c)
    return _from_columns(system, cols)


def act(w: WeylElement, chi: Weight) -> Weight:
    chi = make_weight(w.system, chi)
    return _columns_act(w.system, w.columns, chi)


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
    cols = tuple(act(v, col) for col in w.columns)
    return _from_columns(v.system, cols)


def inverse(w: WeylElement) -> WeylElement:
    return from_word(w.system, tuple(reversed(w.word)))


@dataclass(frozen=True)
class ParabolicSubgroup:
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
    nodes = frozenset(int(i) for i in crossed)
    for i in nodes:
        if not 1 <= i <= system.rank:
            raise RootSystemError(f"crossed node {i} out of range 1..{system.rank}")
    retained = frozenset(range(1, system.rank + 1)) - nodes
    return ParabolicSubgroup(system=system, crossed=nodes, retained=retained)


def full_group(system: RootSystem) -> ParabolicSubgroup:
    """The improper parabolic with nothing crossed; its Levi is G itself."""
    return parabolic(system, ())


@lru_cache(maxsize=None)
def levi_root_data(P: ParabolicSubgroup) -> Tuple[RootData, ...]:
    """Positive roots supported on the retained nodes."""
    out = []
    for data in P.system.root_data:
        support = {i + 1 for i, m in enumerate(data.coefficients) if m}
        if support <= P.retained:
            out.append(data)
    return tuple(out)


def _levi_regular_probe(P: ParabolicSubgroup) -> Weight:
    return Weight(1 if i + 1 in P.retained else 0 for i in range(P.system.rank))


def _coset_probe(P: ParabolicSubgroup) -> Weight:
    # dominant, stabiliser exactly W_I
    return Weight(1 if i + 1 in P.crossed else 0 for i in range(P.system.rank))


@lru_cache(maxsize=None)
def longest_element(P: ParabolicSubgroup) -> WeylElement:
    """Longest element of W_I, via greedy descent of a Levi-regular weight."""
    system = P.system
    mu = _levi_regular_probe(P)
    letters: list[int] = []
    retained = sorted(P.retained)
    while True:
        i = next((i for i in retained if mu[i - 1] > 0), 0)
        if not i:
            break
        mu = reflect(system, mu, i)
        letters.append(i)
    w = from_word(system, tuple(reversed(letters)))
    if len(w.word) != len(letters):
        raise AssertionError("longest element word failed to stay reduced")
    return w


def orbit(
    chi: Weight, P: ParabolicSubgroup, cap: Optional[int] = None
) -> Tuple[Weight, ...]:
    """The W_I-orbit of chi, sorted lexicographically."""
    system = P.system
    chi = make_weight(system, chi)
    limit = resource_cap(cap)
    seen = {chi}
    frontier = [chi]
    retained = sorted(P.retained)
    while frontier:
        nxt = []
        for mu in frontier:
            for i in retained:
                if mu[i - 1] == 0:
                    continue
                image = reflect(system, mu, i)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        check_cap("Weyl orbit", len(seen), limit)
        frontier = nxt
    return tuple(sorted(seen))


def straighten(
    system: RootSystem, v: Sequence[int], nodes: Sequence[int]
) -> Optional[Tuple[Weight, int]]:
    """Move v into the chamber of the reflections at nodes (ascending, 1-based).

    Reflects the lowest-index negative coordinate among nodes until none is
    left.  Returns None at the first zero on nodes (v is singular for the
    subgroup they generate), otherwise the image and the number of
    reflections, which is the length of the straightening element.
    """
    simple = system.simple_roots
    budget = len(system.positive_roots)
    mu = list(v)
    steps = 0
    while True:
        node = 0
        for i in nodes:
            c = mu[i - 1]
            if c == 0:
                return None
            if c < 0 and not node:
                node = i
        if not node:
            return Weight(mu), steps
        c = mu[node - 1]
        for j, a in enumerate(simple[node - 1]):
            mu[j] -= c * a
        steps += 1
        if steps > budget:
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


def _full_orbit(system: RootSystem, chi: Weight) -> set[Weight]:
    seen = {chi}
    frontier = [chi]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in range(1, system.rank + 1):
                if mu[i - 1] == 0:
                    continue
                image = reflect(system, mu, i)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


def _coset_points(P: ParabolicSubgroup, cap: Optional[int]) -> set[Weight]:
    """One orbit point per coset, once the exact count has passed the cap."""
    check_cap("coset enumeration", coset_count(P), resource_cap(cap))
    return _full_orbit(P.system, _coset_probe(P))


def _descent_word_to_dominant(system: RootSystem, mu: Weight) -> Tuple[int, ...]:
    """Letters i_1, i_2, ... with s_{i_k} ... s_{i_1}(mu) dominant.

    The minimal coset representative sending the dominant weight back to mu
    is then s_{i_1} s_{i_2} ... s_{i_k}, and k is its length.
    """
    letters: list[int] = []
    while True:
        i = next((j + 1 for j, c in enumerate(mu) if c < 0), 0)
        if not i:
            return tuple(letters)
        mu = reflect(system, mu, i)
        letters.append(i)


def minimal_coset_reps(
    P: ParabolicSubgroup, cap: Optional[int] = None
) -> Tuple[Tuple[WeylElement, int], ...]:
    """Minimal-length representatives of W / W_I with their lengths.

    Sorted by (length, word); the identity represents W_I itself.
    """
    system = P.system
    reps = []
    for mu in sorted(_coset_points(P, cap)):
        word = _descent_word_to_dominant(system, mu)
        w = from_word(system, word)
        if len(w.word) != len(word):
            raise AssertionError("descent word failed to stay reduced")
        reps.append((w, len(word)))
    reps.sort(key=lambda pair: (pair[1], pair[0].word))
    return tuple(reps)


def coset_lengths(P: ParabolicSubgroup, cap: Optional[int] = None) -> Tuple[int, ...]:
    """Sorted lengths of the minimal coset representatives."""
    system = P.system
    points = _coset_points(P, cap)
    return tuple(sorted(len(_descent_word_to_dominant(system, mu)) for mu in points))


def weyl_group_order(system: RootSystem) -> int:
    n = system.rank
    if system.type_label == "A":
        return factorial(n + 1)
    if system.type_label == "C":
        return (2**n) * factorial(n)
    if system.type_label == "D":
        return (2 ** (n - 1)) * factorial(n)
    if system.type_label == "F4":
        return 1152
    return 12  # G2
