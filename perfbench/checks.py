"""Output checks that do not trust the code under test.

`check(op, code, text)` returns None when an op's exit code and JSON
stdout agree with what `oracle` computes on its own, and otherwise a
one-line reason.  roof verify is also held to the values the README
documents for F4 and for C with r = 2.
"""

from __future__ import annotations

import json
from typing import Optional

import oracle
from workloads import Op, parse

# README: `roofcalc class quotient F4 4 --cross 2` and `roof verify C --r 2`
README_F4_CROSS_2 = [1, 1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 8, 7, 7, 6, 5, 4, 3, 2, 1, 1]
README_C2_H0 = (110, 165)


def _roots(q, out) -> Optional[str]:
    kind, n = q["kind"], q["n"]
    rows = out["positive_roots"]
    if out["count"] != oracle.root_count(kind, n) or len(rows) != out["count"]:
        return f"root count {out['count']} != closed form {oracle.root_count(kind, n)}"
    want = {m: (oracle.coroot(kind, n, m), oracle.norm(kind, n, m)) for m in oracle.positive_roots(kind, n)}
    got = {tuple(r["root_basis"]): (tuple(r["coroot"]), r["norm"]) for r in rows}
    if got != want:
        return "positive roots, coroots or norms differ from the root-string construction"
    return None


def _class(q, out) -> Optional[str]:
    want = oracle.class_coefficients(q["kind"], q["n"], q["crossed"])
    if out["coefficients"] != want:
        return f"class {out['coefficients']} != height product {want}"
    return None


def _cosets(q, out) -> Optional[str]:
    want = oracle.class_coefficients(q["kind"], q["n"], q["crossed"])
    reps = out["representatives"]
    hist = [0] * len(want)
    for rep in reps:
        if len(rep["word"]) != rep["length"] or rep["length"] >= len(hist):
            return f"representative {rep} has a bad length"
        hist[rep["length"]] += 1
    if out["count"] != sum(want) or len(reps) != out["count"]:
        return f"coset count {out['count']} != height product at L = 1 ({sum(want)})"
    if hist != want:
        return f"length histogram {hist} != height product {want}"
    if len({tuple(rep["word"]) for rep in reps}) != len(reps):
        return "repeated coset representative"
    return None


def _orbit(q, out) -> Optional[str]:
    kind, n, crossed, chi = q["kind"], q["n"], q["crossed"], q["weight"]
    points = [tuple(p) for p in out["orbit"]]
    size = oracle.orbit_size(kind, n, chi, crossed)
    if out["size"] != size or len(points) != size or len(set(points)) != size:
        return f"orbit size {out['size']} != |W_I|/|W_J| = {size}"
    if points != sorted(points) or tuple(chi) not in points:
        return "orbit is unsorted or misses the weight itself"
    mu = oracle.levi_dominant(kind, n, chi, crossed)
    if any(oracle.levi_dominant(kind, n, p, crossed) != mu for p in points):
        return "orbit point outside the W_I-orbit"
    return None


def _bwb(q, out) -> Optional[str]:
    status, degree, hw, dim = oracle.bwb(q["kind"], q["n"], q["weight"])
    got = (out["status"], out["degree"], out["g_highest_weight"], out["dimension"])
    if got != (status, degree, hw, dim):
        return f"bwb {got} != {(status, degree, hw, dim)}"
    return None


def _rep_dim(q, out) -> Optional[str]:
    want = oracle.weyl_dimension(q["kind"], q["n"], q["weight"])
    if out["dimension"] != want:
        return f"dimension {out['dimension']} != Weyl product {want}"
    return None


def _igr(q, out) -> Optional[str]:
    want = oracle.igr_points(q["d"], q["n"], q["q"])
    if out["count"] != want:
        return f"IGr count {out['count']} != q-binomial route {want}"
    return None


def _verify(q, out, code) -> Optional[str]:
    kind, n, (a, b) = q["kind"], q["n"], q["pair"]
    f1 = oracle.class_coefficients(kind, n, (a,))
    f2 = oracle.class_coefficients(kind, n, (b,))
    if out["class_f1"] != f1 or out["class_f2"] != f2:
        return "base classes differ from the height product"
    equal = f1 == f2
    rank = out["roof_rank"]
    certificate = f"L^{rank - 1}([Z1]-[Z2]) = 0" if equal else None
    if out["classes_equal"] != equal or out["certificate"] != certificate:
        return f"certificate {out['certificate']!r} != {certificate!r}"
    if bool(out["residual"]) == equal:
        return "residual disagrees with the class comparison"
    dim = oracle.root_count(kind, n) - len(oracle.levi_roots(kind, n, (a,)))
    if q["family"] == "AxA":
        bundle = dim + 1
    else:
        hw = [1 if i in (a, b) else 0 for i in range(1, n + 1)]
        bundle = oracle.weyl_dimension(kind, n, hw, (a,))
    if (out["base_dims"], out["bundle_rank"]) != (dim, bundle):
        return f"(base_dims, bundle_rank) {(out['base_dims'], out['bundle_rank'])} != {(dim, bundle)}"
    nontrivial = out["certificate"] is not None and out["distinctness"] is True
    if out["nontrivial_equivalence"] != nontrivial or code != (0 if nontrivial else 1):
        return f"exit code {code} does not match nontrivial_equivalence {nontrivial}"
    if q["family"] == "C" and out["igr_backend_agrees"] is not True:
        return "point-count backend disagrees"
    if q["family"] == "F4" and (f1 != README_F4_CROSS_2 or certificate != "L^2([Z1]-[Z2]) = 0"):
        return "F4 differs from the README"
    if q["family"] == "C" and q["r"] == 2 and (out["h0_z1"], out["h0_z2"]) != README_C2_H0:
        return f"C r=2 h0 {(out['h0_z1'], out['h0_z2'])} != README {README_C2_H0}"
    return None


CHECKS = {
    "roots": _roots,
    "class quotient": _class,
    "weyl cosets": _cosets,
    "weyl orbit": _orbit,
    "bwb": _bwb,
    "rep dim": _rep_dim,
    "count igr": _igr,
}


def check(op: Op, code, text: bytes) -> Optional[str]:
    """None if the op's exit code and JSON output are right, else the reason."""
    q = parse(op)
    if q["cmd"] != "roof verify" and code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(text)
    except ValueError:
        return "stdout is not JSON"
    try:
        if q["cmd"] == "roof verify":
            return _verify(q, out, code)
        return CHECKS[q["cmd"]](q, out)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
