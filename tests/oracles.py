"""Independent oracles and case generators shared across the tests.

Everything here avoids the code paths under test where possible: the
Weyl enumeration closes under plain multiplication and deduplicates by
group action, so it can arbitrate coset counts and orbit sizes without
touching the probe-orbit machinery.  The second implementations that no
command needs live here too: the Weyl length from its definition, the
dot action, the per-degree sum of bwb, Borel-Weil-Bott by the chamber
walk on every type, general long division of Lefschetz polynomials,
the chamber walk that rescans the nodes before every letter, the
Brauer-Klimyk product by that walk, the
closed-form exterior powers of a standard representation, the
two-pass root-system build that rescans every coordinate of a root for
its upward steps and reads the coroots and norms off the coefficients,
Macdonald's height scan over the root list for [G/P], the Weyl
product over a root list, rho's pairings included, for every dimension,
and the check that each coset representative's word is canonical.
"""

from __future__ import annotations

import random
from itertools import combinations, repeat
from math import factorial
from operator import floordiv, mod, mul
from typing import (
    Collection, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple,
)

from roofcalc import (
    SINGLE,
    VANISHES,
    CohomologyResult,
    ExactDivisionError,
    LPolynomial,
    ParabolicSubgroup,
    RootSystem,
    Weight,
    WeightMultiset,
    WeylElement,
    act,
    build_root_system,
    bwb,
    compose,
    dual_highest_weight,
    from_word,
    make_weight,
    minimal_coset_reps,
    parabolic,
    reflect,
    roof_data,
    weight_multiset,
    weyl_dimension,
)
from roofcalc.reps import _exterior_power_summands, _standard_exterior_powers
from roofcalc.rootsys import _TYPES, RootData, SimplePairs, _apply, _positive_root_closure
from roofcalc.weyl import coset_count, height_exponents, levi_root_data, straighten

SMALL_SYSTEMS: Tuple[Tuple[str, int], ...] = (
    ("A", 1),
    ("A", 2),
    ("A", 3),
    ("A", 4),
    ("C", 2),
    ("C", 3),
    ("D", 3),
    ("D", 4),
    ("G2", 2),
    ("F4", 4),
)

RANK_FIVE_SYSTEMS: Tuple[Tuple[str, int], ...] = SMALL_SYSTEMS + (
    ("A", 5),
    ("C", 5),
    ("D", 5),
)


def brute_force_weyl(system: RootSystem) -> List[WeylElement]:
    """Every Weyl element, found by closing under right multiplication and
    told apart by its image of the regular rho."""
    start = from_word(system, ())
    seen = {system.rho: start}
    frontier = [start]
    while frontier:
        new = []
        for w in frontier:
            for i in range(1, system.rank + 1):
                v = compose(w, from_word(system, (i,)))
                key = act(v, system.rho)
                if key not in seen:
                    seen[key] = v
                    new.append(v)
        frontier = new
    return list(seen.values())


def positive_root_index(system: RootSystem) -> Dict[Weight, Tuple[int, ...]]:
    """Each positive root's fundamental coordinates -> its simple-root-basis
    coordinates, for positivity tests on root images."""
    return {d.weight: d.coefficients for d in system.root_data}


def _is_negative_root(index: Dict[Weight, Tuple[int, ...]], chi: Weight) -> bool:
    if -chi in index:
        return True
    if chi in index:
        return False
    raise AssertionError(f"{chi!r} is not a root")


def inversions(w: WeylElement) -> int:
    """Count positive roots mapped to negative roots, from the definition."""
    index = positive_root_index(w.system)
    count = 0
    for beta in w.system.positive_roots:
        if _is_negative_root(index, act(w, beta)):
            count += 1
    return count


def dot_action(w: WeylElement, chi: Weight) -> Weight:
    """The rho-shifted action w(chi + rho) - rho."""
    system = w.system
    chi = make_weight(system, chi)
    return act(w, chi + system.rho) - system.rho


class BundleCohomology(NamedTuple):
    """Aggregated cohomology of a direct sum of equivariant summands.

    summands   (weight, CohomologyResult) per input summand, input order
    by_degree  degree -> total dimension, only the nonzero degrees
    """

    summands: Tuple[Tuple[Weight, CohomologyResult], ...]
    by_degree: Tuple[Tuple[int, int], ...]

    def degrees(self) -> Dict[int, int]:
        return dict(self.by_degree)

    @property
    def vanishes(self) -> bool:
        return not self.by_degree


def bundle_cohomology(
    P: ParabolicSubgroup, summand_weights: Iterable[Weight]
) -> BundleCohomology:
    """Run bwb summand by summand and accumulate dimensions per degree."""
    results = []
    totals: Dict[int, int] = {}
    for chi in summand_weights:
        res = bwb(P, chi)
        results.append((make_weight(P.system, chi), res))
        if res.status == SINGLE:
            totals[res.degree] = totals.get(res.degree, 0) + res.dimension
    return BundleCohomology(
        summands=tuple(results),
        by_degree=tuple(sorted(totals.items())),
    )


def _weyl_product(roots: Iterable[RootData], v: Collection[int]) -> int:
    """Weyl product over roots of <v, beta-vee> / <rho, beta-vee>, divided once.

    For rho-shifted v: 0 if singular, else (-1)^l(w) dim V(wv - rho), wv dominant.
    """
    num = den = 1
    for data in roots:
        num *= sum(map(mul, data.coroot, v))
        den *= sum(data.coroot)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Weyl dimension formula produced a non-integer")
    return q


def walk_bwb(P: ParabolicSubgroup, chi: Weight) -> CohomologyResult:
    """bwb by weyl's walk over every node, as on F4 and G2: chi + rho
    Vanishes if its dominant conjugate has a zero, and otherwise the
    degree is the number of letters and the dimension the Weyl product."""
    system = P.system
    image, letters = straighten(system, make_weight(system, chi) + system.rho,
                                range(1, system.rank + 1))
    if 0 in image:
        return CohomologyResult(status=VANISHES)
    return CohomologyResult(SINGLE, len(letters), image - system.rho,
                            _weyl_product(system.root_data, image))


def exact_div(self: LPolynomial, other: LPolynomial) -> LPolynomial:
    """Polynomial division that must leave remainder zero."""
    if other.is_zero:
        raise ExactDivisionError("division by the zero polynomial")
    rem = list(self.coeffs)
    div = other.coeffs
    if len(rem) < len(div):
        if any(rem):
            raise ExactDivisionError("inexact polynomial division")
        return LPolynomial(())
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


def rescan_straighten(
    system: RootSystem, v: Sequence[int], nodes: Sequence[int]
) -> Tuple[Weight, Tuple[int, ...]]:
    """weyl.straighten by its definition: before every letter, scan nodes
    (ascending, 1-based) for the first negative coordinate and reflect it.
    Returns the image and the letters, in order."""
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


def ordered_product(
    P: ParabolicSubgroup,
    terms: Iterable[Tuple[Weight, int, int]],
    weights: Collection[Tuple[Weight, int]],
) -> Dict[Weight, int]:
    """Highest weight -> net multiplicity (zeros kept) of the Brauer-Klimyk
    product sum c chi_lambda psi^k(weights), by the ordered straightening:
    each lambda + k mu + rho goes through rescan_straighten, which reflects
    the lowest-index negative retained coordinate each time."""
    system = P.system
    retained = sorted(P.retained)
    rho = system.rho
    shifted: Dict[Weight, int] = {}
    for lam, k, c in terms:
        base = [a + b for a, b in zip(lam, rho)]
        for mu, m in weights:
            v = [s + k * x for s, x in zip(base, mu)]
            image, letters = rescan_straighten(system, v, retained)
            shifted[image] = shifted.get(image, 0) + (-c if len(letters) % 2 else c) * m
    return {im - rho: n for im, n in shifted.items() if all(im[i - 1] for i in retained)}


def standard_exterior_powers(
    ms: WeightMultiset, P: ParabolicSubgroup
) -> Tuple[Tuple[Tuple[Weight, int], ...], ...]:
    """Levi summands of Lambda^p V, p = 0..dim V, for V = ms the standard
    representation of one GL or Sp Levi factor twisted by a character.

    The weights of V form one chain w_1 > ... > w_n, each a simple root
    below the last.  The steps are distinct nodes for GL_n, whose Lambda^p V
    is V(omega_p) with highest weight w_1 + ... + w_p.  For Sp_2r they run
    along the factor and back, and w_i + w_(n+1-i) is twice the character,
    the same for every i; Lambda^p V is the sum of V(omega_j) over
    j = p, p - 2, ... >= 0 for p <= r, and Lambda^p V = Lambda^(n-p) V
    twisted by the character 2p - n times above (Fulton-Harris Thm 17.5),
    so summand j has highest weight w_1 + ... + w_j + (p - j)/2 (w_1 + w_n)
    for j = p mod 2 up to min(p, n - p).  Raises AssertionError if ms is not
    such a chain.
    """
    counts = ms.counts
    simple = [P.system.simple_roots[i - 1] for i in sorted(P.retained)]
    assert set(counts.values()) == {1}, "weights of V are not simple"
    tops = [w for w in counts if not any(w + alpha in counts for alpha in simple)]
    assert len(tops) == 1, "V is not irreducible"
    chain, steps = tops, []
    while True:
        below = [j for j, alpha in enumerate(simple) if chain[-1] - alpha in counts]
        if not below:
            break
        assert len(below) == 1, "the weights of V are not one chain"
        chain.append(chain[-1] - simple[below[0]])
        steps.append(below[0])
    n = len(chain)
    assert n == len(counts), "the weights of V are not one chain"
    partial = [Weight((0,) * P.system.rank)]
    for w in chain:
        partial.append(partial[-1] + w)
    if len(set(steps)) == len(steps):  # GL_n
        return tuple(((partial[p], 1),) for p in range(n + 1))
    assert steps == steps[::-1] and 2 * len(set(steps)) == n, "neither GL nor Sp"
    pair = chain[0] + chain[-1]
    return tuple(
        tuple(
            sorted(
                (partial[j] + pair * ((p - j) // 2), 1)
                for j in range(p % 2, min(p, n - p) + 1, 2)
            )
        )
        for p in range(n + 1)
    )


def check_closed_form_exterior_powers(label: str, r=None) -> int:
    """Assert that three routes give the same Levi summands of every
    exterior power of the dual bundle, on both sides of a roof family:
    production (reps._standard_exterior_powers, the closed form read off
    one walk), Newton's identity (reps._exterior_power_summands on the
    Freudenthal weights) and the chain of standard_exterior_powers on
    those weights.  Returns the number of sides checked.

        PYTHONPATH=src:tests python -c \
            "from oracles import check_closed_form_exterior_powers as c; c('C', 24)"
    """
    fam = roof_data(label, r)
    system = build_root_system(fam.group_type, fam.group_rank)
    for node in fam.crossed_pair:
        P = parabolic(system, (node,))
        hw = dual_highest_weight(fam.bundle_weight, P)
        ms = weight_multiset(P, hw)
        expected = standard_exterior_powers(ms, P)
        assert _standard_exterior_powers(P, hw) == expected, (label, r, node)
        assert _exterior_power_summands(ms, P) == expected, (label, r, node)
    return len(fam.crossed_pair)


def check_rescan_straightening(label: str, r=None) -> int:
    """Assert that weyl.straighten and rescan_straighten give the same image
    and letters on hw + twist + rho, over every node, and that bwb agrees
    with walk_bwb on hw + twist, for every Koszul summand hw of both sides
    of a roof family (the weights bwb takes in roof verify); return the
    number of weights checked.

        PYTHONPATH=src:tests python -W error -c \
            "from oracles import check_rescan_straightening as c; c('C', 24)"
    """
    fam = roof_data(label, r)
    system = build_root_system(fam.group_type, fam.group_rank)
    nodes = range(1, system.rank + 1)
    checked = 0
    for node in fam.crossed_pair:
        P = parabolic(system, (node,))
        shift = system.rho + Weight(int(i == node) for i in nodes)  # rho + omega_node
        ms = weight_multiset(P, dual_highest_weight(fam.bundle_weight, P))
        for summands in _exterior_power_summands(ms, P):
            for hw, _ in summands:
                v = hw + shift
                got = straighten(system, v, nodes)
                assert got == rescan_straighten(system, v, nodes), (label, r, node, hw)
                twisted = v - system.rho
                assert bwb(P, twisted) == walk_bwb(P, twisted), (label, r, node, hw)
                checked += 1
    return checked


def two_pass_closure(
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


def two_pass_build(label: str, rank: int) -> RootSystem:
    """rootsys.build_root_system by two passes, uncapped and not interned:
    two_pass_closure finds the roots by rescanning each root's coordinates,
    then the coroot and norm of each root are read off its coefficients."""
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
    closure = two_pass_closure(simple, pairs)

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
        label, rank, cartan, sym, simple, Weight((1,) * rank), pairs, len(data),
        tuple(d.weight for d in data), tuple(data),
    )


def check_two_pass_root_data(label: str, rank: int) -> int:
    """Assert that build_root_system and two_pass_build agree on every
    public RootSystem field, the root list filled on first read included,
    with every weight a Weight and, simply laced, each
    coroot the coefficients tuple itself, and that the upward closure of
    rootsys, which builds only F4 and G2 and reads each norm and coroot
    off the coefficients, gives the same root data from the simple roots,
    so each closed form meets two enumerations; return the number of
    roots.

        PYTHONPATH=src:tests python -W error -c \
            "from oracles import check_two_pass_root_data as c; c('C', 100)"
    """
    system = build_root_system(label, rank)
    expected = two_pass_build(system.type_label, rank)
    for name in RootSystem.__slots__:
        if not name.startswith("_"):
            assert getattr(system, name) == getattr(expected, name), (label, rank, name)
    closure = _positive_root_closure(
        system.simple_roots, system._simple_pairs, system.symmetrizer
    )
    assert closure == system.root_data, (label, rank)
    laced = set(system.symmetrizer) == {1}
    for data in system.root_data:
        assert type(data) is RootData and type(data.weight) is Weight, (label, rank, data)
        assert not laced or data.coroot is data.coefficients, (label, rank, data)
    return len(system.root_data)


def weyl_group_order_formula(label: str, rank: int) -> int:
    """|W| from the classification: (n+1)!, 2^n n!, 2^(n-1) n!, 1152, 12."""
    if label == "A":
        return factorial(rank + 1)
    if label == "C":
        return 2**rank * factorial(rank)
    if label == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {"F4": 1152, "G2": 12}[label]


def greedy_right_descent(system: RootSystem, word) -> Tuple[int, ...]:
    """The canonical reduced word of the element of word, from the definition.

    Repeatedly strips the smallest i with w(alpha_i) a negative root (one
    whose negative is in positive_root_index), acting by the unreduced word
    letter by letter, and returns the stripped letters in reverse order.
    """
    index = positive_root_index(system)
    word = list(word)
    stripped: List[int] = []
    while True:
        for i in range(1, system.rank + 1):
            image = system.simple_roots[i - 1]
            for j in reversed(word):
                image = reflect(system, image, j)
            if -image in index:
                word.append(i)
                stripped.append(i)
                break
        else:
            return tuple(reversed(stripped))


def two_way_orbit(chi, P: ParabolicSubgroup) -> Tuple:
    """The W_I-orbit of chi by breadth-first search in both directions, sorted.

    Reflects every point at every retained node where it is nonzero, up or
    down, and keeps one seen set across all levels, so it relies on no
    dominant starting point and no length argument.
    """
    retained = sorted(P.retained)
    seen = {chi}
    frontier = [chi]
    while frontier:
        nxt = []
        for mu in frontier:
            for i in retained:
                if mu[i - 1]:
                    image = reflect(P.system, mu, i)
                    if image not in seen:
                        seen.add(image)
                        nxt.append(image)
        frontier = nxt
    return tuple(sorted(seen))


def random_weight(rng: random.Random, system: RootSystem, lo: int = -4, hi: int = 4):
    return make_weight(system, tuple(rng.randint(lo, hi) for _ in range(system.rank)))


def random_dominant_weight(
    rng: random.Random, P: ParabolicSubgroup, lo: int = -4, hi: int = 4
):
    """P-dominant: free on crossed nodes, nonnegative on retained ones."""
    coords = []
    for i in range(1, P.system.rank + 1):
        if i in P.crossed:
            coords.append(rng.randint(lo, hi))
        else:
            coords.append(rng.randint(0, hi))
    return make_weight(P.system, tuple(coords))


def random_system(rng: random.Random, pool=SMALL_SYSTEMS) -> RootSystem:
    label, rank = pool[rng.randrange(len(pool))]
    return build_root_system(label, rank)


def random_parabolic(rng: random.Random, system: RootSystem) -> ParabolicSubgroup:
    nodes = list(range(1, system.rank + 1))
    crossed = [i for i in nodes if rng.random() < 0.5]
    if not crossed:
        crossed = [rng.choice(nodes)]
    return parabolic(system, crossed)


def all_nonempty_parabolics(system: RootSystem) -> Iterator[ParabolicSubgroup]:
    nodes = range(1, system.rank + 1)
    for k in range(1, system.rank + 1):
        for crossed in combinations(nodes, k):
            yield parabolic(system, crossed)


def macdonald_height_exponents(P: ParabolicSubgroup) -> Dict[int, int]:
    """Exponents e_h with [G/P] = prod_h [h]_L ** e_h, ascending in h.

    Macdonald's product runs over the positive roots beta touching a
    crossed node and multiplies [ht beta + 1]_L / [ht beta]_L, where
    [h]_L = 1 + L + ... + L^(h-1).  Factors are collected by h and the
    ratios cancelled; [1]_L = 1 and zero exponents are left out.
    """
    crossed = [i - 1 for i in P.crossed]
    exponents: Dict[int, int] = {}
    for data in P.system.root_data:
        if any(map(data.coefficients.__getitem__, crossed)):
            h = sum(data.coefficients)
            exponents[h + 1] = exponents.get(h + 1, 0) + 1
            exponents[h] = exponents.get(h, 0) - 1
    return {h: e for h, e in sorted(exponents.items()) if h > 1 and e}


def every_or_random_parabolic(
    label: str, rank: int, count: int | None = None, seed: int = 0
) -> Iterator[ParabolicSubgroup]:
    """Every parabolic of label rank (all 2^rank crossed sets, none and all
    included) or, given count, that many random ones, each with a crossed
    set of a random size, so that both small and large Levis come up."""
    system = build_root_system(label, rank)
    nodes = range(1, rank + 1)
    if count is None:
        for k in range(rank + 1):
            for crossed in combinations(nodes, k):
                yield parabolic(system, crossed)
        return
    rng = random.Random(f"{label}{rank}:{seed}")
    for _ in range(count):
        yield parabolic(system, rng.sample(nodes, rng.randint(0, rank)))


def check_height_exponents(label: str, rank: int, count: int | None = None) -> int:
    """Assert that height_exponents, from the degrees of W and W_I, equals
    Macdonald's height scan on every parabolic (or count random ones) of
    label rank; return the number compared.

        PYTHONPATH=src:tests python -W error -c \
            "from oracles import check_height_exponents as c; c('C', 100, 20)"
    """
    cases = 0
    for P in every_or_random_parabolic(label, rank, count):
        assert height_exponents(P) == macdonald_height_exponents(P), P
        cases += 1
    return cases


def check_levi_dimension(label: str, rank: int, count: int | None = None) -> int:
    """Assert that weyl_dimension equals the Weyl product over the listed
    Levi roots for three seeded P-dominant weights on every parabolic (or
    count random ones) of label rank; return the number compared.

        PYTHONPATH=src:tests python -W error -c \
            "from oracles import check_levi_dimension as c; c('C', 100, 20)"
    """
    rng = random.Random(f"levi {label}{rank}")
    cases = 0
    for P in every_or_random_parabolic(label, rank, count):
        roots = levi_root_data(P)
        for _ in range(3):
            chi = random_dominant_weight(rng, P, lo=-6, hi=5)
            want = _weyl_product(roots, [x + 1 for x in chi])
            assert weyl_dimension(P, chi) == want, (P, chi)
            cases += 1
    return cases


def check_regular_bwb(label: str, rank: int, count: int) -> int:
    """Assert that bwb equals walk_bwb on count weights chi of the Borel of
    label rank (A, C or D) whose chi + rho has distinct eps-coordinates,
    nonzero with random signs on C and D, so that it is regular; return
    count.  The weights come from eps-coordinates as in Bourbaki's plates:
    coordinate k is c_k - c_(k+1), the last c_n on C and c_(n-1) + c_n on D.

        PYTHONPATH=src:tests python -W error -c \
            "from oracles import check_regular_bwb as c; c('C', 100, 5)"
    """
    system = build_root_system(label, rank)
    P = parabolic(system, range(1, rank + 1))
    rng = random.Random(f"regular {label}{rank}")
    m = rank + (label == "A")
    for _ in range(count):
        c = rng.sample(range(1, 3 * m), m)
        if label != "A":
            c = [x * rng.choice((-1, 1)) for x in c]
        v = [x - y for x, y in zip(c, c[1:])]
        if label == "C":
            v.append(c[-1])
        elif label == "D":
            v.append(c[-2] + c[-1])
        chi = make_weight(system, v) - system.rho
        assert bwb(P, chi) == walk_bwb(P, chi), (label, rank, chi)
    return count


def check_canonical_coset_words(label: str, rank: int, crossed: Iterable[int]) -> int:
    """Assert that minimal_coset_reps of the parabolic crossing crossed in
    label rank lists coset_count Weyl elements, each stored with its
    canonical word (as from_word rebuilds it), of pairwise distinct images
    of rho, in (length, word) order; return the number of cosets.

        PYTHONPATH=src:tests python -W error -c \
            "from oracles import check_canonical_coset_words as c; c('D', 6, range(1, 7))"
    """
    system = build_root_system(label, rank)
    P = parabolic(system, crossed)
    reps = minimal_coset_reps(P)
    assert len(reps) == coset_count(P), P
    for w in reps:
        assert type(w) is WeylElement and from_word(system, w.word) == w, (P, w)
    assert len({act(w, system.rho) for w in reps}) == len(reps), P
    order = [(len(w.word), w.word) for w in reps]
    assert order == sorted(order), P
    return len(reps)
