"""Command-line surface for the engine.

Every subcommand supports --format text|json.  JSON output is
deterministic: keys are sorted, indentation is fixed, and all payload
data comes from already-sorted engine structures, so identical inputs
produce byte-identical bytes.  _dumps writes it, byte for byte what
json.dumps(payload, indent=2, sort_keys=True) gives, without the
pure-Python encoder that json falls back to whenever indent is set.

Each handler returns its JSON payload, a callable that renders the text
report and the exit code; main renders only the format asked for.  The
argparse tree is built once per process, on the first call of main, and
reused: parsing does not change it.

Exit codes: 0 success; 1 when `roof verify` finds no nontrivial
equivalence; 2 on validation errors (bad flags, bad math inputs); 3
when a computation exceeds the resource cap (flag --cap or environment
variable ROOFCALC_CAP).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, Optional, Sequence, Tuple

from .bwb import SINGLE, bwb
from .limits import DEFAULT_CAP, ENV_VAR, ResourceCapExceeded
from .motive import class_of_quotient, igr_point_count
from .reps import DominanceError, NotARepresentation, weyl_dimension
from .roofs import catalog, verify_roof
from .rootsys import RootSystemError, build_root_system, make_weight
from .weyl import minimal_coset_reps, orbit, parabolic


def _csv_ints(text: str, what: str) -> Tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(
            f"{what} must be a comma-separated list of integers, got {text!r}"
        ) from None


Handled = Tuple[dict, Callable[[], str], int]  # payload, text renderer, exit code
_escape = json.encoder.encode_basestring_ascii


def _dumps(o, pad: str = "\n") -> str:
    """json.dumps(o, indent=2, sort_keys=True); pad is the current line break.

    Takes str, int, bool, None, list, tuple and dict with str keys;
    anything else, floats and non-str keys included, raises TypeError.
    """
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(type(x) is int for x in o):
            body = sep.join(map(int.__repr__, o))
        else:
            body = sep.join(_dumps(x, inner) for x in o)
        return "[" + inner + body + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        body = sep.join(
            _escape(k) + ": " + _dumps(v, inner) for k, v in sorted(o.items())
        )
        return "{" + inner + body + pad + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--cap",
        type=int,
        default=None,
        help=f"resource cap override (default {DEFAULT_CAP}, or ${ENV_VAR})",
    )

    parser = argparse.ArgumentParser(
        prog="roofcalc",
        description="Exact Lie-theory calculator: root systems, Weyl cosets, "
        "Borel-Weil-Bott cohomology, Grothendieck-ring classes, and "
        "L-equivalence certificates for homogeneous roofs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[common], help="positive roots of a system")
    p.set_defaults(run=_cmd_roots)
    p.add_argument("type", help="system type: A, C, D, F4 or G2")
    p.add_argument("rank", type=int)

    weyl = sub.add_parser("weyl", help="Weyl group computations")
    wsub = weyl.add_subparsers(dest="weyl_command", required=True)
    p = wsub.add_parser(
        "cosets", parents=[common], help="minimal length coset representatives"
    )
    p.set_defaults(run=_cmd_weyl_cosets)
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.add_argument("--cross", required=True, help="comma-separated crossed nodes")
    p = wsub.add_parser(
        "orbit", parents=[common], help="orbit of a weight under the Levi Weyl group"
    )
    p.set_defaults(run=_cmd_weyl_orbit)
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.add_argument("--cross", required=True, help="comma-separated crossed nodes")
    p.add_argument(
        "--weight", required=True, help="comma-separated fundamental coordinates"
    )

    rep = sub.add_parser("rep", help="representation data")
    rsub = rep.add_subparsers(dest="rep_command", required=True)
    p = rsub.add_parser(
        "dim", parents=[common], help="dimension of the irrep of a dominant weight"
    )
    p.set_defaults(run=_cmd_rep_dim)
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.add_argument("--weight", required=True)

    p = sub.add_parser(
        "bwb", parents=[common], help="cohomology of an equivariant bundle on G/P"
    )
    p.set_defaults(run=_cmd_bwb)
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.add_argument("--cross", required=True)
    p.add_argument("--weight", required=True)

    cls = sub.add_parser("class", help="Grothendieck-ring classes")
    csub = cls.add_subparsers(dest="class_command", required=True)
    p = csub.add_parser(
        "quotient", parents=[common], help="[G/P] as a polynomial in L"
    )
    p.set_defaults(run=_cmd_class_quotient)
    p.add_argument("type")
    p.add_argument("rank", type=int)
    p.add_argument("--cross", required=True)

    count = sub.add_parser("count", help="finite-field point counts")
    cnt = count.add_subparsers(dest="count_command", required=True)
    p = cnt.add_parser(
        "igr", parents=[common], help="points of IGr(d, 2n) over F_q"
    )
    p.set_defaults(run=_cmd_count_igr)
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)

    roof = sub.add_parser("roof", help="homogeneous roof catalog and verification")
    roofsub = roof.add_subparsers(dest="roof_command", required=True)
    p = roofsub.add_parser("list", parents=[common], help="list the roof families")
    p.set_defaults(run=_cmd_roof_list)
    p = roofsub.add_parser(
        "verify", parents=[common], help="verify one family member end to end"
    )
    p.set_defaults(run=_cmd_roof_verify)
    p.add_argument("family")
    p.add_argument("--r", type=int, default=None, help="family parameter")

    return parser


def _cmd_roots(args) -> Handled:
    system = build_root_system(args.type, args.rank, cap=args.cap)
    rows = [
        {
            "fundamental": list(data.weight),
            "root_basis": list(data.coefficients),
            "coroot": list(data.coroot),
            "norm": data.norm,
        }
        for data in system.root_data
    ]
    payload = {
        "type": system.type_label,
        "rank": system.rank,
        "count": len(rows),
        "positive_roots": rows,
    }

    def text() -> str:
        lines = [
            f"positive roots of {system.type_label} rank {system.rank}: {len(rows)}"
        ]
        for data in system.root_data:
            lines.append(
                f"  fund {tuple(data.weight)}   roots {data.coefficients}   "
                f"norm {data.norm}"
            )
        return "\n".join(lines)

    return payload, text, 0


def _cmd_weyl_cosets(args) -> Handled:
    system = build_root_system(args.type, args.rank)
    P = parabolic(system, _csv_ints(args.cross, "--cross"))
    reps = minimal_coset_reps(P, cap=args.cap)
    payload = {
        "type": system.type_label,
        "rank": system.rank,
        "crossed": sorted(P.crossed),
        "count": len(reps),
        "representatives": [
            {"length": ell, "word": list(w.word)} for w, ell in reps
        ],
    }

    def text() -> str:
        lines = [
            f"{len(reps)} minimal coset representatives, "
            f"{system.type_label} rank {system.rank} crossed {sorted(P.crossed)}"
        ]
        for w, ell in reps:
            word = " ".join(str(i) for i in w.word) if w.word else "e"
            lines.append(f"  length {ell}: {word}")
        return "\n".join(lines)

    return payload, text, 0


def _cmd_weyl_orbit(args) -> Handled:
    system = build_root_system(args.type, args.rank)
    P = parabolic(system, _csv_ints(args.cross, "--cross"))
    chi = make_weight(system, _csv_ints(args.weight, "--weight"))
    points = orbit(chi, P, cap=args.cap)
    payload = {
        "type": system.type_label,
        "rank": system.rank,
        "crossed": sorted(P.crossed),
        "weight": list(chi),
        "size": len(points),
        "orbit": [list(w) for w in points],
    }

    def text() -> str:
        lines = [f"orbit size {len(points)}"]
        lines.extend(f"  {tuple(w)}" for w in points)
        return "\n".join(lines)

    return payload, text, 0


def _cmd_rep_dim(args) -> Handled:
    system = build_root_system(args.type, args.rank)
    chi = make_weight(system, _csv_ints(args.weight, "--weight"))
    dim = weyl_dimension(system, chi)
    payload = {
        "type": system.type_label,
        "rank": system.rank,
        "weight": list(chi),
        "dimension": dim,
    }
    return payload, lambda: str(dim), 0


def _cmd_bwb(args) -> Handled:
    system = build_root_system(args.type, args.rank)
    P = parabolic(system, _csv_ints(args.cross, "--cross"))
    chi = make_weight(system, _csv_ints(args.weight, "--weight"))
    res = bwb(P, chi)
    payload = {
        "type": system.type_label,
        "rank": system.rank,
        "crossed": sorted(P.crossed),
        "weight": list(chi),
        "status": res.status,
        "degree": res.degree,
        "g_highest_weight": list(res.g_highest_weight)
        if res.g_highest_weight is not None
        else None,
        "dimension": res.dimension,
    }

    def text() -> str:
        if res.status != SINGLE:
            return "Vanishes"
        return (
            f"Single at degree {res.degree}: highest weight "
            f"{tuple(res.g_highest_weight)}, dimension {res.dimension}"
        )

    return payload, text, 0


def _cmd_class_quotient(args) -> Handled:
    system = build_root_system(args.type, args.rank)
    P = parabolic(system, _csv_ints(args.cross, "--cross"))
    poly = class_of_quotient(P)
    rendered = str(poly)
    payload = {
        "type": system.type_label,
        "rank": system.rank,
        "crossed": sorted(P.crossed),
        "coefficients": list(poly.coeffs),
        "rendered": rendered,
    }
    return payload, lambda: rendered, 0


def _cmd_count_igr(args) -> Handled:
    value = igr_point_count(args.d, args.n, args.q)
    payload = {"d": args.d, "n": args.n, "q": args.q, "count": value}
    return payload, lambda: str(value), 0


def _cmd_roof_list(args) -> Handled:
    rows = catalog()
    payload = {"families": [dict(row) for row in rows]}

    def text() -> str:
        header = (
            f"{'label':<6} {'group':<10} {'crossed':<22} {'roof rank':<10} parameter"
        )
        lines = [header]
        for row in rows:
            lines.append(
                f"{row['label']:<6} {row['group']:<10} {row['crossed_pair']:<22} "
                f"{row['roof_rank']:<10} {row['parameter']}"
            )
        return "\n".join(lines)

    return payload, text, 0


def _cmd_roof_verify(args) -> Handled:
    report = verify_roof(args.family, args.r, cap=args.cap)
    code = 0 if report.nontrivial_equivalence else 1
    return report.to_json_dict(), report.render_text, code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, code = args.run(args)
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RootSystemError, DominanceError, NotARepresentation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_dumps(payload) if args.format == "json" else text())
    return code


if __name__ == "__main__":
    sys.exit(main())
