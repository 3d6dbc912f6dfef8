"""Levi representations: dimensions, weight multisets, exterior powers.

A weight multiset is its (weight, multiplicity) pairs sorted by weight;
exterior_power and decompose_levi check a caller's (_multiset).  Every
dimension comes from one Weyl formula, _weyl_formula, for a
rho-shifted v: its pairing rows with the Levi's positive coroots (the
eps-pairings of rootsys on A, C and D, one row over the listed Levi
roots on F4 and G2), the number of negative pairings, and the absolute
product of the rows over rho's.  Rho's product reads no root: the Levi
half-sum pairs 1 with each simple Levi coroot and the full-group rho
pairs with Levi coroots as it does, so <rho, beta-vee> is the height of
beta-vee, and by Kostant's duality of heights and exponents the product
is that of (d - 1)! over the degrees d of W_I, times 2^(d - 1) each on
D, whose eps-coordinates are doubled.  weight_multiset walks the
dominant weights once, from the top: the Freudenthal recursion reads
each multiplicity from the W_I-orbits already filled, then fills the
orbit of the weight it has reached, in the invariant form given by the
symmetrized Cartan matrix normalised so that short roots have squared
length 2; with full-group rho in place of the Levi half-sum, all
intermediates are exact integers.  One product works in the
Levi irreducible basis: sum c chi_lambda psi^k(V) over terms
(lambda, k, c), where psi^k(V) has the weights k mu of V.  By
Brauer-Klimyk, each lambda + k mu + rho, mu of multiplicity m, moved
into the Levi chamber adds (-1)^steps c m at its image unless singular;
nonzero nets give highest weight image - rho.  _product walks with walls
(weyl), its heap seeded from the support of mu, as lambda is
Levi-dominant.  decompose_levi is the term (0, 1, 1), and
_exterior_power_summands makes one product per Newton degree; listing
the weights of an exterior power (exterior_power) and splitting them is
the cross-check.  Where V is a GL or Sp standard representation twisted
by a character, its exterior powers have a closed form, read off one
walk down from hw (_standard_exterior_powers): while a retained
coordinate is 1 (none above 1, at most one 1), subtract that node's
simple root.  Each step is a reflection pairing 1 that raises the
length in W_I, so a walk that ends, at a weight with no 1, has met every
positive Levi coroot that pairs positively with hw, each once, with 1:
hw is minuscule (so no coordinate on the way is below -1), V is its
W_I-orbit, and as each weight has one lower neighbour, the orbit is the
chain w_1 > ... > w_n.  Such a chain is a GL standard module, its dual
or an Sp standard module (Bourbaki VIII 7.3; Proctor 1984): steps on
distinct nodes make V a GL one, Lambda^p V = V(omega_p) of highest
weight w_1 + ... + w_p; any other walk goes out along one block and
back, the Sp standard, and by Fulton-Harris Thm 17.5 Lambda^p V is the
sum over j = p, p - 2, ... >= 0, j <= n - p, of highest weights
w_1 + ... + w_j + (p - j)/2 (w_1 + w_n).  The dual -w_0(hw) is the
Levi-dominant conjugate of -hw: one straightening over the retained
nodes.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial, prod
from operator import add, mul
from typing import Collection, Dict, Iterable, Optional, Sequence, Tuple

from .limits import _index, check_cap, resource_cap
from .rootsys import (
    RootSystemError, Weight, _apply, _epsilon, _pairings, make_weight,
)
from .weyl import (
    ParabolicSubgroup,
    _levi_degrees,
    _upward_levels,
    _walk,
    levi_root_data,
    straighten,
)


class DominanceError(ValueError):
    """A weight violates the dominance required by an operation."""


class NotARepresentation(ValueError):
    """A weight multiset is not the character of any Levi representation."""


def _require_dominant(chi: Weight, P: ParabolicSubgroup) -> Weight:
    chi = make_weight(P.system, chi)
    for i in P.retained:  # unsorted; the message names the lowest such node
        if chi[i - 1] < 0:
            i = min(j for j in P.retained if chi[j - 1] < 0)
            raise DominanceError(
                f"coordinate {chi[i - 1]} at retained node {i} of {chi!r}; "
                f"dominance for {P!r} requires >= 0"
            )
    return chi


def _multiset(pairs: Iterable[Tuple[Weight, int]]) -> Tuple[Tuple[Weight, int], ...]:
    """A caller's (weight, multiplicity) pairs as a weight multiset: sorted,
    repeated weights summed, zero multiplicities dropped."""
    counts: Dict[Weight, int] = {}
    for w, m in pairs:
        m = _index(m, "multiplicity")
        if m < 0:
            raise ValueError(f"negative multiplicity {m} for {w!r}")
        if m:
            w = w if isinstance(w, Weight) else Weight(w)
            counts[w] = counts.get(w, 0) + m
    lengths = set(map(len, counts))
    if len(lengths) > 1:
        raise RootSystemError(f"weights of lengths {sorted(lengths)} in one multiset")
    return tuple(sorted(counts.items()))


def _weyl_formula(P: ParabolicSubgroup, v: Sequence[int]) -> Tuple[int, int]:
    """(negatives, dimension) for a rho-shifted regular v: the number of
    negative pairings <v, beta-vee> over the positive Levi roots beta, and
    |prod <v, beta-vee>| / prod <rho, beta-vee> (module notes)."""
    label = P.system.type_label
    if label in ("A", "C", "D"):
        rows = _pairings(label, _epsilon(label, v), P.crossed)
    else:
        rows = [[sum(map(mul, data.coroot, v)) for data in levi_root_data(P)]]
    den = 1
    for d in _levi_degrees(P):
        den *= factorial(d - 1) << (d - 1) * (label == "D")
    return sum(x < 0 for row in rows for x in row), abs(prod(map(prod, rows))) // den


def weyl_dimension(P: ParabolicSubgroup, chi: Weight) -> int:
    """Exact dimension of the Levi irreducible with highest weight chi."""
    return _weyl_formula(P, [x + 1 for x in _require_dominant(chi, P)])[1]


def weight_multiset(
    P: ParabolicSubgroup, chi: Weight, cap: Optional[int] = None
) -> Tuple[Tuple[Weight, int], ...]:
    """All weights of P's irrep of highest weight chi, with multiplicities, in one walk.

    Dominant mu come by offset height, then offset hw - mu: mu + k beta has
    its dominant conjugate strictly above mu, so its orbit is filled first.
    """
    system = P.system
    hw = _require_dominant(chi, P)
    lroots = levi_root_data(P)
    dim = _weyl_formula(P, [x + 1 for x in hw])[1]
    check_cap(f"weight multiset of {hw!r} for {P!r}", dim, resource_cap(cap))
    nodes = [i - 1 for i in sorted(P.retained)]
    two_rho = system.rho * 2

    # Dominant weights of the irrep: breadth-first subtraction of Levi
    # positive roots, keeping Levi-dominant results.
    offsets: Dict[Weight, Tuple[int, ...]] = {hw: (0,) * system.rank}
    frontier = [hw]
    while frontier:
        nxt = []
        for mu in frontier:
            for data in lroots:
                cand = mu - data.weight
                if cand in offsets or any(cand[i] < 0 for i in nodes):
                    continue
                offsets[cand] = tuple(map(add, offsets[mu], data.coefficients))
                nxt.append(cand)
        frontier = nxt

    counts: Dict[Weight, int] = {}
    for mu in sorted(offsets, key=lambda mu: (sum(offsets[mu]), offsets[mu])):
        m = 1
        if mu != hw:
            total = 0
            for data in lroots:
                beta = data.weight
                form = system.form(mu, data.coefficients)  # (mu, beta), then (nu, beta)
                nu = mu + beta
                while nu in counts:
                    form += data.norm
                    total += counts[nu] * form
                    nu = nu + beta
            # |hw + rho|^2 - |mu + rho|^2 = (hw - mu, hw + mu + 2 rho)
            denom = system.form(hw + mu + two_rho, offsets[mu])
            m, r = divmod(2 * total, denom)
            if r or m <= 0:
                raise AssertionError("Freudenthal recursion left a non-integer multiplicity")
        for level in _upward_levels(system, mu, nodes):
            counts.update(dict.fromkeys(level, m))
    size = sum(counts.values())
    if size != dim:
        raise AssertionError(f"character size {size} disagrees with Weyl dimension {dim}")
    return tuple(sorted(counts.items()))


def exterior_power(
    ms: Iterable[Tuple[Weight, int]], p: int, cap: Optional[int] = None
) -> Tuple[Tuple[Weight, int], ...]:
    """Weights of the p-th exterior power: sums over p-element sub-multisets."""
    ms = _multiset(ms)
    total = sum(m for _, m in ms)
    p = _index(p, "exterior power degree", ValueError)
    if not 0 <= p <= total:
        raise ValueError(f"exterior power degree {p} outside 0..{total}")
    limit = resource_cap(cap)
    check_cap("exterior power", comb(total, p), limit)
    elements: list[Weight] = []
    for w, m in ms:
        elements.extend([w] * m)
    rank = len(elements[0]) if elements else 0
    zero = Weight((0,) * rank)
    layers: list[Dict[Weight, int]] = [dict() for _ in range(p + 1)]
    layers[0][zero] = 1
    for idx, w in enumerate(elements):
        top = min(p, idx + 1)
        for k in range(top - 1, -1, -1):
            dest = layers[k + 1]
            for s, c in layers[k].items():
                key = s + w
                dest[key] = dest.get(key, 0) + c
    return tuple(sorted(layers[p].items()))


def _product(
    P: ParabolicSubgroup,
    terms: Iterable[Tuple[Weight, int, int]],
    weights: Collection[Tuple[Weight, int]],
) -> Dict[Weight, int]:
    """Highest weight -> nonzero net multiplicity of the module notes' product.

    Every lambda must be Levi-dominant (lambda + rho >= 1 on retained nodes).
    """
    system = P.system
    pairs = system._simple_pairs
    budget = system._root_count
    keep = [i + 1 in P.retained for i in range(system.rank)]
    supports = [([(i, x) for i, x in enumerate(mu) if x], m) for mu, m in weights]
    rho = system.rho
    shifted: Dict[Weight, int] = {}
    for lam, k, c in terms:
        base = [a + b for a, b in zip(lam, rho)]
        for support, m in supports:
            v = base[:]
            for i, x in support:
                v[i] += k * x
            heap = [i for i, _ in support if v[i] <= 0 and keep[i]]  # ascending: a heap
            n = c * m
            if heap:
                letters = _walk(pairs, v, keep, heap, budget, walls=True)
                if letters is None:
                    continue  # reached a wall
                if len(letters) % 2:
                    n = -n
            image = tuple.__new__(Weight, v)
            shifted[image] = shifted.get(image, 0) + n
    return {im - rho: n for im, n in shifted.items() if n}


def decompose_levi(
    ms: Iterable[Tuple[Weight, int]], P: ParabolicSubgroup
) -> Tuple[Tuple[Weight, int], ...]:
    """Decompose a W_I-stable multiset into Levi highest weights.

    The product of the module notes with the one term (0, 1, 1), i.e.
    chi_0 psi^1(ms) = ms.  Summands come sorted by highest weight.
    Raises NotARepresentation if the multiset is not W_I-stable or a net
    multiplicity is negative, i.e. if it is not a genuine character.
    """
    system = P.system
    pairs = system._simple_pairs
    retained = sorted(P.retained)
    ms = _multiset(ms)
    counts = dict(ms)
    for w, m in ms:
        if len(w) != system.rank:
            make_weight(system, w)  # raises RootSystemError
        for i in retained:
            if w[i - 1] and counts.get(_apply(pairs, (i,), w), 0) != m:
                raise NotARepresentation(
                    f"multiplicity of {w!r} changes under the reflection at node {i}"
                )
    nets = _product(P, ((Weight((0,) * system.rank), 1, 1),), ms)
    for hw, n in nets.items():
        if n < 0:
            raise NotARepresentation(f"net multiplicity {n} for highest weight {hw!r}")
    return tuple(sorted(nets.items()))


def _standard_exterior_powers(
    P: ParabolicSubgroup, hw: Weight
) -> Optional[Tuple[Tuple[Tuple[Weight, int], ...], ...]]:
    """_exterior_power_summands of V(hw), hw Levi-dominant, when V is a GL
    or Sp standard representation twisted (module notes); else None."""
    nodes = [i - 1 for i in P.retained]
    chain, steps = [hw], []
    while True:  # each step goes down one finite W_I-orbit, so the walk ends
        coords = [chain[-1][i] for i in nodes]
        if max(coords, default=0) > 1 or coords.count(1) > 1:
            return None
        if 1 not in coords:
            break
        steps.append(nodes[coords.index(1)])
        chain.append(chain[-1] - P.system.simple_roots[steps[-1]])
    n = len(chain)
    partial = list(accumulate(chain, initial=hw * 0))
    if len(set(steps)) == len(steps):  # GL_n: Lambda^p V = V(omega_p)
        return tuple(((w, 1),) for w in partial)
    pair = chain[0] + chain[-1]  # Sp_n: w_1 + w_n, twice the character
    return tuple(tuple(sorted((partial[j] + pair * ((p - j) // 2), 1)
                              for j in range(p % 2, min(p, n - p) + 1, 2)))
                 for p in range(n + 1))


def _exterior_power_summands(
    weights: Tuple[Tuple[Weight, int], ...], P: ParabolicSubgroup, cap: Optional[int] = None
) -> Tuple[Tuple[Tuple[Weight, int], ...], ...]:
    """Levi decomposition of every exterior power of a character V, given as
    its weight multiset.

    Entry p (0..n, n = dim V) lists the summands of Lambda^p V as
    decompose_levi(exterior_power(weights, p), P) would, without listing the
    weights of Lambda^p V.  For p <= n // 2, Newton's identity over the
    Adams operations, p Lambda^p = sum_{k=1..p} (-1)^(k-1) psi^k(V)
    Lambda^(p-k), is one product of the module notes over the terms
    (lambda, k, (-1)^(k-1) c), lambda of multiplicity c in Lambda^(p-k).
    Degree p makes len(weights) straightenings per summand of the powers
    below it, a count checked against the cap before the degree
    starts.  The wedge pairing into Lambda^n V = det V is perfect, so
    Lambda^(n-p) V = (Lambda^p V)^dual (x) det V: each summand hw of
    Lambda^p gives -w_0(hw) plus det V, the sum of the weights of V and
    a Levi character.
    """
    limit = resource_cap(cap)
    system = P.system
    top = sum(m for _, m in weights)
    powers: list[dict] = [{system.rho * 0: 1}]
    for p in range(1, top // 2 + 1):
        check_cap(
            f"exterior power {p} by Newton's identity (straightenings)",
            len(weights) * sum(len(term) for term in powers),
            limit,
        )
        terms = (
            (lam, k, c if k % 2 else -c)
            for k in range(1, p + 1)
            for lam, c in powers[p - k].items()
        )
        acc = _product(P, terms, weights)
        term: Dict[Weight, int] = {}
        for hw, n in acc.items():
            term[hw], r = divmod(n, p)
            if r or n < 0:
                raise AssertionError(
                    f"Newton's identity left {n}/{p} at {hw!r} in exterior power {p}"
                )
        powers.append(term)
    nodes = sorted(P.retained)
    det = Weight(sum(m * mu[i] for mu, m in weights) for i in range(system.rank))
    for p in range(top // 2 + 1, top + 1):
        powers.append({
            straighten(system, -hw, nodes)[0] + det: c for hw, c in powers[top - p].items()
        })
    return tuple(tuple(sorted(term.items())) for term in powers)


def dual_highest_weight(chi: Weight, P: ParabolicSubgroup) -> Weight:
    """Highest weight of the dual irrep: -w_0(chi) for the Levi longest w_0."""
    return straighten(P.system, -_require_dominant(chi, P), sorted(P.retained))[0]


def is_ample(chi: Weight, P: ParabolicSubgroup) -> bool:
    """Ampleness of E_P(chi) on G/P: positive across crossed nodes.

    True iff coords > 0 on every crossed node and >= 0 on every retained
    node (for line bundles, retained coordinates are zero anyway).
    """
    chi = make_weight(P.system, chi)
    return all(chi[i - 1] > 0 for i in P.crossed) and all(
        chi[i - 1] >= 0 for i in P.retained
    )
