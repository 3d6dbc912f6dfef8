"""Seeded op generators for the three workloads.

An op is one `roofcalc` command line (always with --format json).  Every
op is sized with closed forms from `oracle` before it is emitted: the
coset count from the height product at L = 1, Weyl dimensions, and
comb(rank, p) for the exterior powers.  Draws are kept inside a band and
filled up to a fixed budget, so each run's work is a fixed function of
the seed and nearly the same for every seed.

Every workload also carries one tiny op of each kind its mix would
otherwise leave out, so that the traced run sees every traced function
on every workload.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import oracle

CAP = 10_000_000  # roofcalc's default resource cap
JSON = ["--format", "json"]

# family -> (group type, group rank, crossed pair) as a function of r
FAMILIES = {
    "AxA": lambda r: ("A", r, (1, 1)),
    "A_M": lambda r: ("A", r, (1, r)),
    "A_G": lambda r: ("A", 2 * r, (r, r + 1)),
    "C": lambda r: ("C", 3 * r - 1, (2 * r - 1, 2 * r)),
    "D": lambda r: ("D", r, (r - 1, r)),
    "F4": lambda r: ("F4", 4, (2, 3)),
    "G2": lambda r: ("G2", 2, (1, 2)),
}

SMALL_SYSTEMS = (
    [("A", n) for n in range(2, 10)]
    + [("C", n) for n in range(2, 8)]
    + [("D", n) for n in range(4, 8)]
    + [("F4", 4), ("G2", 2)]
)

Op = List[str]


def csv(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values)


def verify(family: str, r: Optional[int] = None) -> Op:
    tail = [] if r is None else ["--r", str(r)]
    return ["roof", "verify", family] + tail + JSON


def quotient(kind: str, n: int, crossed: Sequence[int]) -> Op:
    return ["class", "quotient", kind, str(n), "--cross", csv(crossed)] + JSON


def cosets(kind: str, n: int, crossed: Sequence[int]) -> Op:
    return ["weyl", "cosets", kind, str(n), "--cross", csv(crossed)] + JSON


def _fill(rng: random.Random, cands: List[Tuple[int, object]], budget: int) -> List[object]:
    """Random draws from (cost, item) candidates until the costs sum to ~budget.

    Draws are free while the remainder exceeds twice the largest cost; then
    each draw takes the candidate closest to the remainder (or to half of
    it), so the total misses the budget by at most a fraction of one draw.
    """
    out = []
    left = budget
    top = max(c for c, _ in cands)
    while left > 0:
        if left > 2 * top:
            cost, item = rng.choice(cands)
        else:
            goal = left if left <= top else left / 2
            cost, item = min(cands, key=lambda ci: (abs(ci[0] - goal), rng.random()))
            if cost > left + left // 4 and out:
                break
        out.append(item)
        left -= cost
    return out


def _parabolics(kinds, lo: int, hi: int) -> List[Tuple[int, Tuple[str, int, Tuple[int, ...]]]]:
    """(|W/W_I|, parabolic) for 1 to 3 crossed nodes with lo <= |W/W_I| <= hi."""
    out = []
    for kind, ranks in kinds:
        for n in ranks:
            for k in (1, 2, 3):
                for crossed in combinations(range(1, n + 1), k):
                    count = oracle.coset_count(kind, n, crossed)
                    if lo <= count <= hi:
                        out.append((count, (kind, n, crossed)))
    return out


def _igr(rng: random.Random) -> Op:
    n = rng.randint(1, 12)
    return ["count", "igr", str(rng.randint(1, n)), str(n), str(rng.choice((2, 3, 4, 5, 7, 9)))] + JSON


def _tiny_cosets(rng: random.Random) -> Op:
    kind, n, crossed = rng.choice(
        [p for _, p in _parabolics([("A", range(2, 5)), ("C", range(2, 4)), ("G2", [2])], 2, 24)]
    )
    return cosets(kind, n, crossed)


def koszul(rng: random.Random, small: bool) -> List[Op]:
    """roof verify on families whose bases are small and whose Koszul pages are big."""
    fams = [("F4", None), ("G2", None), ("C", 1), ("C", 2), ("AxA", rng.randint(1, 8))]
    if not small:
        fams += [("A_M", 11), ("A_M", 12), ("A_M", 13), ("D", 8), ("D", 9)]
    ops = [verify(f, r) for f, r in fams] + [_igr(rng), _tiny_cosets(rng)]
    rng.shuffle(ops)
    return ops


def bruhat(rng: random.Random, small: bool) -> List[Op]:
    """class quotient / weyl cosets draws over A/C/D parabolics, plus two Bruhat-bound roofs."""
    kinds = [("A", range(4, 12)), ("C", range(3, 8)), ("D", range(4, 9))]
    scale = 10 if small else 1
    # cost model: time per coset grows about linearly with the rank
    quot = [(count * p[1], p) for count, p in _parabolics(kinds, 300 // scale, 1500 // scale)]
    cos = [(count * p[1], p) for count, p in _parabolics(kinds, 30 // scale, 120 // scale)]
    ops = [quotient(*p) for p in _fill(rng, quot, 55_000 // scale)]
    ops += [cosets(*p) for p in _fill(rng, cos, 4_000 // scale)]
    ops += [verify("A_G", 2 if small else 5), verify("C", 1 if small else 3), _igr(rng)]
    rng.shuffle(ops)
    return ops


def _dominant(rng: random.Random, n: int, crossed, lo: int, hi: int) -> List[int]:
    return [rng.randint(lo, hi) if i in crossed else rng.randint(0, 2) for i in range(1, n + 1)]


def _short_query(rng: random.Random, what: str) -> Op:
    kind, n = rng.choice(SMALL_SYSTEMS)
    crossed = sorted(rng.sample(range(1, n + 1), rng.randint(1, min(2, n))))
    if what == "dim":
        return ["rep", "dim", kind, str(n), "--weight=" + csv(_dominant(rng, n, (), 0, 0))] + JSON
    if what == "bwb":
        chi = _dominant(rng, n, crossed, -6, 3)
        return ["bwb", kind, str(n), "--cross", csv(crossed), "--weight=" + csv(chi)] + JSON
    if what == "igr":
        return _igr(rng)
    while True:
        chi = [rng.randint(-2, 2) for _ in range(n)]
        if oracle.orbit_size(kind, n, chi, crossed) <= 300:
            return ["weyl", "orbit", kind, str(n), "--cross", csv(crossed), "--weight=" + csv(chi)] + JSON


def lookups(rng: random.Random, small: bool) -> List[Op]:
    """~120 short queries plus a few large `roots` builds."""
    # One build per type at ranks of nearly equal cost (|Phi+| * rank^2 within 8%),
    # the same every seed, so the build share does not swing with the draw.
    picks = [("A", 12)] if small else [("A", 37), ("C", 31), ("D", 31)]
    ops = [["roots", kind, str(n)] + JSON for kind, n in picks]
    mix = {"dim": 34, "bwb": 34, "igr": 18, "orbit": 18}
    if small:
        mix = {k: 2 for k in mix}
    for what, k in mix.items():
        ops += [_short_query(rng, what) for _ in range(k)]
    tiny = [p for _, p in _parabolics([("A", range(2, 6)), ("C", range(2, 4)), ("D", [4]), ("G2", [2])], 2, 60)]
    for _ in range(2 if small else 4):
        ops.append(quotient(*rng.choice(tiny)))
        ops.append(cosets(*rng.choice(tiny)))
    ops += [verify("C", 1), verify("G2"), verify("F4"), verify("AxA", rng.randint(1, 3))]
    rng.shuffle(ops)
    return ops


GENERATORS = {"koszul": koszul, "bruhat": bruhat, "lookups": lookups}


def generate(workload: str, seed: int, small: bool = False) -> List[Op]:
    ops = GENERATORS[workload](random.Random(f"{workload}:{seed}"), small)
    for op in ops:
        for n in op_sizes(op).values():
            if n > CAP:
                raise AssertionError(f"{op} exceeds the resource cap")
    return ops


def parse(op: Op) -> Dict[str, object]:
    """Split an op into command, group type and rank, crossed nodes, weight and family."""
    args = [a for a in op if a not in JSON]
    words = 1 if args[0] in ("roots", "bwb") else 2
    out: Dict[str, object] = {"cmd": " ".join(args[:words])}
    rest = args[words:]
    if out["cmd"] == "count igr":
        out["d"], out["n"], out["q"] = (int(x) for x in rest)
        return out
    if out["cmd"] == "roof verify":
        r = int(rest[2]) if len(rest) > 1 else None
        kind, n, pair = FAMILIES[rest[0]](r)
        out.update(family=rest[0], r=r, kind=kind, n=n, pair=pair)
        return out
    out["kind"], out["n"] = rest[0], int(rest[1])
    for i, a in enumerate(rest):
        if a == "--cross":
            out["crossed"] = tuple(sorted(oracle.crossed_set(rest[i + 1])))
        if a.startswith("--weight="):
            out["weight"] = [int(x) for x in a.split("=", 1)[1].split(",")]
    return out


def op_sizes(op: Op) -> Dict[str, int]:
    """Closed-form work of one op: cosets enumerated, exterior-power subsets, orbit points."""
    q = parse(op)
    out = {"cosets": 0, "ext_weights": 0}
    if q["cmd"] in ("class quotient", "weyl cosets"):
        out["cosets"] = oracle.coset_count(q["kind"], q["n"], q["crossed"])
    if q["cmd"] == "weyl orbit":
        out["orbit_points"] = oracle.orbit_size(q["kind"], q["n"], q["weight"], q["crossed"])
    if q["cmd"] == "roof verify":
        kind, n, (a, b) = q["kind"], q["n"], q["pair"]
        out["cosets"] = oracle.coset_count(kind, n, (a,)) + oracle.coset_count(kind, n, (b,))
        if q["family"] != "AxA":
            hw = [1 if i in (a, b) else 0 for i in range(1, n + 1)]
            for node in (a, b):
                rank = oracle.weyl_dimension(kind, n, hw, (node,))
                out["ext_weights"] += 2**rank - 1
                out["ext_layer_max"] = max(out.get("ext_layer_max", 0), comb(rank, rank // 2))
    return out


def plan(ops: List[Op]) -> Dict[str, int]:
    """Per-run work counts: cosets, exterior-power weights, roots built, ops."""
    systems = set()
    totals = {"ops": len(ops), "cosets": 0, "ext_weights": 0}
    for op in ops:
        q = parse(op)
        if "kind" in q:
            systems.add((q["kind"], q["n"]))
        sizes = op_sizes(op)
        totals["cosets"] += sizes["cosets"]
        totals["ext_weights"] += sizes["ext_weights"]
    totals["roots_built"] = sum(oracle.root_count(k, n) for k, n in systems)
    return totals
