"""Levi representations: dimensions, weight multisets, exterior powers.

A LeviIrrep is the irreducible representation of the Levi factor of a
parabolic P with a given P-dominant highest weight (coordinates >= 0 on
retained nodes; crossed coordinates are unconstrained central charges).
The full group is the parabolic with nothing crossed.

Dimensions come from the Weyl dimension formula over the Levi positive
roots, weight multiplicities from the Freudenthal recursion.  Both use the
invariant form given by the symmetrized Cartan matrix normalised so that
short roots have squared length 2; with full-group rho in place of the
Levi half-sum (the difference pairs to zero with every Levi root), all
intermediates are exact integers.  One product, _product, works in the
Levi irreducible basis: sum c chi_lambda psi^k(V) over terms
(lambda, k, c), where psi^k(V) has the weights k mu of V.  By
Brauer-Klimyk, each lambda + k mu + rho, mu of multiplicity m, is
straightened into the Levi chamber and (-1)^steps c m added at the
image; an image with a zero on a retained node is singular and dropped
after the sum (it never equals a regular image), and the rest give
highest weight image - rho.  decompose_levi is the term (0, 1, 1), and
_exterior_power_summands makes one product per Newton degree; listing
the weights of an exterior power (exterior_power) and splitting them is
the independent cross-check.
"""

from __future__ import annotations

from math import comb
from operator import mul
from types import MappingProxyType
from typing import Collection, Dict, Iterable, Mapping, Optional, Tuple, Union

from .limits import _index, check_cap, resource_cap
from .rootsys import RootSystem, RootSystemError, Weight, _apply, _Frozen, make_weight
from .weyl import (
    ParabolicSubgroup,
    _upward_levels,
    levi_root_data,
    parabolic,
    straighten,
)


class DominanceError(ValueError):
    """A weight violates the dominance required by an operation."""


class NotARepresentation(ValueError):
    """A weight multiset is not the character of any Levi representation."""


def is_dominant(chi: Weight, P: ParabolicSubgroup) -> bool:
    """Dominance for the Levi: coordinates >= 0 on all retained nodes."""
    chi = make_weight(P.system, chi)
    return all(chi[i - 1] >= 0 for i in P.retained)


def _require_dominant(chi: Weight, P: ParabolicSubgroup) -> Weight:
    chi = make_weight(P.system, chi)
    for i in sorted(P.retained):
        if chi[i - 1] < 0:
            raise DominanceError(
                f"coordinate {chi[i - 1]} at retained node {i} of {chi!r}; "
                f"dominance for {P!r} requires >= 0"
            )
    return chi


class WeightMultiset(_Frozen):
    """A finite multiset of weights with positive integer multiplicities."""

    __slots__ = ("counts", "total")

    def __init__(self, counts: Mapping[Weight, int]):
        clean: Dict[Weight, int] = {}
        total = 0
        for w, m in counts.items():
            m = _index(m, "multiplicity")
            if m < 0:
                raise ValueError(f"negative multiplicity {m} for {w!r}")
            if m:
                clean[w if isinstance(w, Weight) else Weight(w)] = m
                total += m
        lengths = set(map(len, clean))
        if len(lengths) > 1:
            raise RootSystemError(f"weights of lengths {sorted(lengths)} in one multiset")
        counts = MappingProxyType(dict(sorted(clean.items())))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightMultiset):
            return NotImplemented
        return dict(self.counts) == dict(other.counts)

    def __hash__(self) -> int:
        return hash(tuple(self.counts.items()))

    def __iter__(self):
        return iter(self.counts.items())

    def __len__(self) -> int:
        return len(self.counts)

    def __contains__(self, w) -> bool:
        return w in self.counts

    def multiplicity(self, w: Weight) -> int:
        return self.counts.get(w, 0)

    def __repr__(self) -> str:
        inner = ", ".join(f"{w!r}: {m}" for w, m in self.counts.items())
        return f"WeightMultiset({{{inner}}})"


SystemOrParabolic = Union[RootSystem, ParabolicSubgroup]


def _as_parabolic(system: SystemOrParabolic) -> ParabolicSubgroup:
    if isinstance(system, ParabolicSubgroup):
        return system
    if isinstance(system, RootSystem):
        return parabolic(system, ())
    raise TypeError(f"expected RootSystem or ParabolicSubgroup, got {system!r}")


def weyl_dimension(system: SystemOrParabolic, chi: Weight) -> int:
    """Exact dimension of the (Levi) irreducible with highest weight chi.

    Product over the (Levi) positive roots of <chi+rho, beta-vee> over
    <rho, beta-vee>, evaluated in big integers with a single exact division.
    """
    P = _as_parabolic(system)
    chi_rho = [x + 1 for x in _require_dominant(chi, P)]
    num = 1
    den = 1
    for data in levi_root_data(P):
        num *= sum(map(mul, data.coroot, chi_rho))
        den *= sum(data.coroot)
    q, r = divmod(num, den)
    if r:
        raise AssertionError("Weyl dimension formula produced a non-integer")
    return q


class LeviIrrep(_Frozen):
    """Irreducible representation of the Levi of P with highest weight chi."""

    __slots__ = ("parabolic", "highest_weight")

    def __init__(self, parabolic: ParabolicSubgroup, highest_weight: Weight):
        object.__setattr__(self, "parabolic", parabolic)
        object.__setattr__(
            self, "highest_weight", _require_dominant(highest_weight, parabolic)
        )

    def __eq__(self, other) -> bool:
        if type(other) is not LeviIrrep:
            return NotImplemented
        return (self.parabolic, self.highest_weight) == (
            other.parabolic, other.highest_weight
        )

    def __hash__(self) -> int:
        return hash((self.parabolic, self.highest_weight))

    def __repr__(self) -> str:
        return f"LeviIrrep({self.parabolic!r}, {self.highest_weight!r})"

    @property
    def dimension(self) -> int:
        return weyl_dimension(self.parabolic, self.highest_weight)


def _dominant_multiplicities(
    P: ParabolicSubgroup, hw: Weight
) -> Tuple[Tuple[Weight, int], ...]:
    """Freudenthal recursion: multiplicities of the dominant weights <= hw."""
    system = P.system
    lroots = levi_root_data(P)
    retained = sorted(P.retained)
    sym = system.symmetrizer

    # Dominant weights of the irrep: breadth-first subtraction of Levi
    # positive roots, keeping Levi-dominant results; offsets track hw - mu
    # in simple-root coordinates.
    zero = tuple(0 for _ in range(system.rank))
    offsets: Dict[Weight, Tuple[int, ...]] = {hw: zero}
    frontier = [hw]
    while frontier:
        nxt = []
        for mu in frontier:
            off = offsets[mu]
            for data in lroots:
                cand = mu - data.weight
                if cand in offsets or any(cand[i - 1] < 0 for i in retained):
                    continue
                offsets[cand] = tuple(
                    o + m for o, m in zip(off, data.coefficients)
                )
                nxt.append(cand)
        frontier = nxt

    order = sorted(offsets, key=lambda mu: (sum(offsets[mu]), offsets[mu]))
    mult: Dict[Weight, int] = {}
    for mu in order:
        if mu == hw:
            mult[mu] = 1
            continue
        total = 0
        for data in lroots:
            beta = data.weight
            norm = data.norm
            base = system.form(mu, data.coefficients)  # (mu, beta)
            nu = mu + beta
            k = 1
            while True:
                m = mult.get(straighten(system, nu, retained)[0], 0)
                if not m:
                    break  # root strings through a weight have no gaps
                total += m * (base + k * norm)
                nu = nu + beta
                k += 1
        off = offsets[mu]
        denom = sum(
            d * o * (h + m + 2)
            for d, o, h, m in zip(sym, off, hw, mu, strict=True)
        )
        q, r = divmod(2 * total, denom)
        if r or q <= 0:
            raise AssertionError("Freudenthal recursion left a non-integer multiplicity")
        mult[mu] = q
    return tuple(mult.items())


def weight_multiset(rep: LeviIrrep, cap: Optional[int] = None) -> WeightMultiset:
    """All weights of the irrep with multiplicities (W_I-orbits, each <= dim)."""
    dim = rep.dimension
    check_cap(f"weight multiset of {rep!r}", dim, resource_cap(cap))
    P = rep.parabolic
    nodes = [i - 1 for i in sorted(P.retained)]
    counts: Dict[Weight, int] = {}
    for mu, m in _dominant_multiplicities(P, rep.highest_weight):
        for level in _upward_levels(P.system, mu, nodes):
            counts.update(dict.fromkeys(level, m))
    ms = WeightMultiset(counts)
    if ms.total != dim:
        raise AssertionError(
            f"character size {ms.total} disagrees with Weyl dimension {dim}"
        )
    return ms


def exterior_power(
    ms: WeightMultiset, p: int, cap: Optional[int] = None
) -> WeightMultiset:
    """Weights of the p-th exterior power: sums over p-element sub-multisets."""
    p = _index(p, "exterior power degree", ValueError)
    if not 0 <= p <= ms.total:
        raise ValueError(f"exterior power degree {p} outside 0..{ms.total}")
    limit = resource_cap(cap)
    check_cap("exterior power", comb(ms.total, p), limit)
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
            if not layers[k]:
                continue
            dest = layers[k + 1]
            for s, c in layers[k].items():
                key = s + w
                dest[key] = dest.get(key, 0) + c
    return WeightMultiset(layers[p])


def _product(
    P: ParabolicSubgroup,
    terms: Iterable[Tuple[Weight, int, int]],
    weights: Collection[Tuple[Weight, int]],
) -> Dict[Weight, int]:
    """Highest weight -> net multiplicity (zeros kept) of the module notes' product."""
    system = P.system
    retained = sorted(P.retained)
    rho = system.rho
    shifted: Dict[Weight, int] = {}
    for lam, k, c in terms:
        base = [a + b for a, b in zip(lam, rho)]
        for mu, m in weights:
            v = [s + k * x for s, x in zip(base, mu)]
            image, letters = straighten(system, v, retained)
            shifted[image] = shifted.get(image, 0) + (-c if len(letters) % 2 else c) * m
    return {im - rho: n for im, n in shifted.items() if all(im[i - 1] for i in retained)}


def decompose_levi(
    ms: WeightMultiset, P: ParabolicSubgroup
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
    counts = ms.counts
    for w, m in counts.items():
        if len(w) != system.rank:
            make_weight(system, w)  # raises RootSystemError
        for i in retained:
            if w[i - 1] and counts.get(_apply(pairs, (i,), w), 0) != m:
                raise NotARepresentation(
                    f"multiplicity of {w!r} changes under the reflection at node {i}"
                )
    nets = _product(P, ((Weight((0,) * system.rank), 1, 1),), counts.items())
    for hw, n in nets.items():
        if n < 0:
            raise NotARepresentation(f"net multiplicity {n} for highest weight {hw!r}")
    return tuple(sorted((hw, n) for hw, n in nets.items() if n))


def _exterior_power_summands(
    ms: WeightMultiset, P: ParabolicSubgroup, cap: Optional[int] = None
) -> Tuple[Tuple[Tuple[Weight, int], ...], ...]:
    """Levi decomposition of every exterior power of a character V = ms.

    Entry p (0..n, n = ms.total) lists the summands of Lambda^p V as
    decompose_levi(exterior_power(ms, p), P) would, without listing the
    weights of Lambda^p V.  For p <= n // 2, Newton's identity over the
    Adams operations, p Lambda^p = sum_{k=1..p} (-1)^(k-1) psi^k(V)
    Lambda^(p-k), is one product of the module notes over the terms
    (lambda, k, (-1)^(k-1) c), lambda of multiplicity c in Lambda^(p-k).
    Degree p makes len(ms) straightenings per summand of the powers
    below it, a count checked against the cap before the degree
    starts.  The wedge pairing into Lambda^n V = det V is perfect, so
    Lambda^(n-p) V = (Lambda^p V)^dual (x) det V: each summand hw of
    Lambda^p gives the Levi-dominant conjugate of -hw, which is
    -w_0(hw), plus det V, the sum of the weights of V and a Levi
    character.  That upper half makes one straightening per summand of a
    degree already checked.
    """
    limit = resource_cap(cap)
    system = P.system
    retained = sorted(P.retained)
    weights = tuple(ms)
    top = ms.total
    powers: list[Dict[Weight, int]] = [{Weight((0,) * system.rank): 1}]
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
            q, r = divmod(n, p)
            if r or q < 0:
                raise AssertionError(
                    f"Newton's identity left {n}/{p} at {hw!r} in exterior power {p}"
                )
            if q:
                term[hw] = q
        powers.append(term)
    det = Weight(sum(m * mu[i] for mu, m in weights) for i in range(system.rank))
    for p in range(top // 2 + 1, top + 1):
        powers.append(
            {
                straighten(system, -hw, retained)[0] + det: c
                for hw, c in powers[top - p].items()
            }
        )
    return tuple(tuple(sorted(term.items())) for term in powers)


def dual_highest_weight(chi: Weight, P: ParabolicSubgroup) -> Weight:
    """Highest weight of the dual irrep: -w_0(chi) for the Levi longest w_0.

    That is the Levi-dominant conjugate of -chi, which straightening -chi
    over the retained nodes gives.
    """
    chi = _require_dominant(chi, P)
    return straighten(P.system, -chi, sorted(P.retained))[0]


def line_bundle_rank_check(chi: Weight, P: ParabolicSubgroup) -> bool:
    """True iff the equivariant bundle of chi has rank one.

    Equivalent to chi being supported on the crossed nodes: the characters
    of P are exactly the weights orthogonal to the Levi roots.
    """
    return weyl_dimension(P, chi) == 1


def is_ample(chi: Weight, P: ParabolicSubgroup) -> bool:
    """Ampleness of E_P(chi) on G/P: positive across crossed nodes.

    True iff coords > 0 on every crossed node and >= 0 on every retained
    node (for line bundles, retained coordinates are zero anyway).
    """
    chi = make_weight(P.system, chi)
    return all(chi[i - 1] > 0 for i in P.crossed) and all(
        chi[i - 1] >= 0 for i in P.retained
    )
