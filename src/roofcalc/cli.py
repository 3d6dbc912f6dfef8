"""Command-line surface for the engine.

Every subcommand supports --format text|json and --cap.  JSON output is
deterministic: keys are sorted, indentation is fixed, and all payload
data comes from already-sorted engine structures, so identical inputs
produce byte-identical bytes.  _dumps writes it, byte for byte what
json.dumps(payload, indent=2, sort_keys=True) gives, without the
pure-Python encoder that json falls back to whenever indent is set.  A
list or tuple whose items are all of exact type int (no bools, no int
subclasses), such as a weight's coordinates, is written by one
%-format call with a "%d" slot per item.  A list or tuple of two or
more dicts of one shape, such as the rows of `roots`, is written from
one row template, repeated once per row and filled by one %-format call
with the rows' ints flattened: one shape means the same str keys in the
same order in every row, each value an exact int or a list or tuple of
exact ints of the same length in every row.  Everything else is written
item by item, and so is any list that fails these tests, which therefore
gives the same bytes or the same TypeError.

Each argument is declared once, in a parent parser; _LEAVES gives each
subcommand its help, its handler and the parents it takes.  _resolve
turns `<type> <rank>`, --cross and --weight into the root system (built
under --cap), the parabolic and the weight, with the payload fields
that echo them.  Each handler returns its JSON payload, a callable that
renders the text report and the exit code; main renders only the format
asked for, inside the same error mapping as the handler.  The argparse
tree is built once per process, on the first call of main, and reused:
parsing does not change it.

Exit codes: 0 success; 1 when `roof verify` finds no nontrivial
equivalence; 2 on validation errors (bad flags, bad math inputs, an
answer too large to print); 3 when a computation exceeds the resource
cap (flag --cap or environment variable ROOFCALC_CAP).  When the reader
closes stdout early, the output stops quietly and the code stays the
command's own.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, Optional, Sequence, Tuple

from .bwb import SINGLE, bwb
from .limits import DEFAULT_CAP, ENV_VAR, ResourceCapExceeded
from .motive import _igr_count_bits, class_of_quotient, igr_point_count
from .reps import DominanceError, NotARepresentation, weyl_dimension
from .roofs import catalog, verify_roof
from .rootsys import (
    SUPPORTED_TYPES, RootSystem, RootSystemError, Weight, build_root_system, make_weight,
)
from .weyl import ParabolicSubgroup, minimal_coset_reps, orbit, parabolic


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
    Lists of exact ints and lists of same-shape int rows (_dumps_rows)
    are each written by one %-format call, the rest item by item.
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
        types = set(map(type, o))
        if types == {int}:
            return ("[" + inner + sep.join(["%d"] * len(o)) + pad + "]") % tuple(o)
        if types == {dict} and len(o) > 1:
            rows = _dumps_rows(o, inner)
            if rows is not None:
                return "[" + inner + rows + pad + "]"
        return "[" + inner + sep.join([_dumps(x, inner) for x in o]) + pad + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        body = sep.join(
            [_escape(k) + ": " + _dumps(v, inner) for k, v in sorted(o.items())]
        )
        return "{" + inner + body + pad + "}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _dumps_rows(rows, pad: str) -> Optional[str]:
    """The rows of a list of dicts of one shape, comma-joined, or None.

    One shape: every row has the first row's str keys in the first
    row's order, and each value is an exact int, or a list or tuple of
    exact ints whose length is the same in every row.  Such rows are
    written from one row template, repeated once per row and filled by
    one %-format call with the flattened ints; pad is the line break
    before each row.  On any other list the answer is None, and the
    item-by-item path writes the same bytes or raises the same TypeError.
    """
    first = rows[0]
    keys = tuple(first)
    if (
        not keys
        or not all(map(isinstance, keys, repeat(str)))
        or set(map(tuple, rows)) != {keys}
    ):
        return None
    inner = pad + "  "
    vinner = inner + "  "
    vsep = "," + vinner
    fields, columns = [], []
    for key in sorted(keys):
        value = first[key]
        column = list(map(itemgetter(key), rows))
        field = _escape(key).replace("%", "%%") + ": "
        if type(value) is int:
            fields.append(field + "%d")
            columns.append(zip(column))
        elif isinstance(value, (list, tuple)) and set(map(type, value)) <= {int}:
            n = len(value)
            if not all(map(isinstance, column, repeat((list, tuple)))) or set(
                map(len, column)
            ) != {n}:
                return None
            vector = "[" + vinner + vsep.join(["%d"] * n) + inner + "]" if n else "[]"
            fields.append(field + vector)
            columns.append(column)
        else:
            return None
    flat = tuple(chain.from_iterable(chain.from_iterable(zip(*columns))))
    if not set(map(type, flat)) <= {int}:
        return None
    row = "{" + inner + ("," + inner).join(fields) + pad + "}"
    return ("," + pad).join([row] * len(rows)) % flat


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
    parent = {
        name: argparse.ArgumentParser(add_help=False)
        for name in ("system", "cross", "weight", "igr", "family")
    }
    parent["system"].add_argument(
        "type", help=f"system type: {', '.join(SUPPORTED_TYPES[:-1])} or {SUPPORTED_TYPES[-1]}"
    )
    parent["system"].add_argument("rank", type=int)
    parent["cross"].add_argument(
        "--cross", required=True, help="comma-separated crossed nodes"
    )
    parent["weight"].add_argument(
        "--weight", required=True, help="comma-separated fundamental coordinates"
    )
    parent["igr"].add_argument("d", type=int)
    parent["igr"].add_argument("n", type=int)
    parent["igr"].add_argument("q", type=int)
    parent["family"].add_argument("family")
    parent["family"].add_argument(
        "--r", type=int, default=None, help="family parameter"
    )

    parser = argparse.ArgumentParser(
        prog="roofcalc",
        description="Exact Lie-theory calculator: root systems, Weyl cosets, "
        "Borel-Weil-Bott cohomology, Grothendieck-ring classes, and "
        "L-equivalence certificates for homogeneous roofs.",
    )
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_text, run, takes in _LEAVES:
        group, _, leaf = name.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(
                group, help=_GROUP_HELP[group]
            ).add_subparsers(dest=f"{group}_command", required=True)
        p = subs[group].add_parser(
            leaf, parents=[common, *(parent[x] for x in takes)], help=help_text
        )
        p.set_defaults(run=run)
    return parser


def _resolve(
    args,
) -> Tuple[RootSystem, Optional[ParabolicSubgroup], Optional[Weight], dict]:
    """The system, parabolic and weight the arguments name, and their echo.

    The system is built under --cap.  A subcommand that takes no --cross
    or no --weight gets None in that place and no payload field for it.
    """
    system = build_root_system(args.type, args.rank, cap=args.cap)
    echo = {"type": system.type_label, "rank": system.rank}
    P = chi = None
    if "cross" in args:
        P = parabolic(system, _csv_ints(args.cross, "--cross"))
        echo["crossed"] = sorted(P.crossed)
    if "weight" in args:
        chi = make_weight(system, _csv_ints(args.weight, "--weight"))
        echo["weight"] = list(chi)
    return system, P, chi, echo


def _cmd_roots(args) -> Handled:
    system, _, _, echo = _resolve(args)
    rows = [
        {
            "fundamental": data.weight,
            "root_basis": data.coefficients,
            "coroot": data.coroot,
            "norm": data.norm,
        }
        for data in system.root_data
    ]
    payload = {**echo, "count": len(rows), "positive_roots": rows}

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
    system, P, _, echo = _resolve(args)
    reps = minimal_coset_reps(P, cap=args.cap)
    payload = {
        **echo,
        "count": len(reps),
        "representatives": [
            {"length": ell, "word": list(w.word)} for w, ell in reps
        ],
    }

    def text() -> str:
        lines = [
            f"{len(reps)} minimal coset representatives, "
            f"{system.type_label} rank {system.rank} crossed {echo['crossed']}"
        ]
        for w, ell in reps:
            word = " ".join(str(i) for i in w.word) if w.word else "e"
            lines.append(f"  length {ell}: {word}")
        return "\n".join(lines)

    return payload, text, 0


def _cmd_weyl_orbit(args) -> Handled:
    _, P, chi, echo = _resolve(args)
    points = orbit(chi, P, cap=args.cap)
    payload = {**echo, "size": len(points), "orbit": [list(w) for w in points]}

    def text() -> str:
        lines = [f"orbit size {len(points)}"]
        lines.extend(f"  {tuple(w)}" for w in points)
        return "\n".join(lines)

    return payload, text, 0


def _cmd_rep_dim(args) -> Handled:
    system, _, chi, echo = _resolve(args)
    dim = weyl_dimension(system, chi)
    return {**echo, "dimension": dim}, lambda: str(dim), 0


def _cmd_bwb(args) -> Handled:
    _, P, chi, echo = _resolve(args)
    res = bwb(P, chi)
    payload = {
        **echo,
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
    _, P, _, echo = _resolve(args)
    poly = class_of_quotient(P)
    rendered = str(poly)
    payload = {**echo, "coefficients": list(poly.coeffs), "rendered": rendered}
    return payload, lambda: rendered, 0


def _cmd_count_igr(args) -> Handled:
    # The count has at least `bits` bits, so at least (bits - 1) * 3 // 10 + 1
    # digits (log10 2 > 0.3): refuse one that cannot be printed before
    # computing it.
    bits = _igr_count_bits(args.d, args.n, args.q)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and (bits - 1) * 3 // 10 >= limit:
        raise ValueError(
            f"the point count has more than {limit} digits, past the "
            "interpreter's limit for integer-to-string conversion"
        )
    value = igr_point_count(args.d, args.n, args.q, cap=args.cap)
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


_GROUP_HELP = {
    "weyl": "Weyl group computations",
    "rep": "representation data",
    "class": "Grothendieck-ring classes",
    "count": "finite-field point counts",
    "roof": "homogeneous roof catalog and verification",
}
# subcommand, help, handler, and the parents in build_parser that hold
# its arguments beyond --format and --cap
_LEAVES = (
    ("roots", "positive roots of a system", _cmd_roots, ("system",)),
    ("weyl cosets", "minimal length coset representatives", _cmd_weyl_cosets,
     ("system", "cross")),
    ("weyl orbit", "orbit of a weight under the Levi Weyl group", _cmd_weyl_orbit,
     ("system", "cross", "weight")),
    ("rep dim", "dimension of the irrep of a dominant weight", _cmd_rep_dim,
     ("system", "weight")),
    ("bwb", "cohomology of an equivariant bundle on G/P", _cmd_bwb,
     ("system", "cross", "weight")),
    ("class quotient", "[G/P] as a polynomial in L", _cmd_class_quotient,
     ("system", "cross")),
    ("count igr", "points of IGr(d, 2n) over F_q", _cmd_count_igr, ("igr",)),
    ("roof list", "list the roof families", _cmd_roof_list, ()),
    ("roof verify", "verify one family member end to end", _cmd_roof_verify,
     ("family",)),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, text, code = args.run(args)
        out = _dumps(payload) if args.format == "json" else text()
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RootSystemError, DominanceError, NotARepresentation, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # The reader is gone.  Point stdout at the null device, so that the
        # interpreter's flush at exit has nothing left to fail on.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
