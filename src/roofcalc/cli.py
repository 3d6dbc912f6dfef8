"""Command-line surface for the engine.

Every subcommand supports --format text|json and --cap.  JSON output is
deterministic: keys are sorted, indentation is fixed, and all payload
data comes from already-sorted engine structures, so identical inputs
produce byte-identical bytes.  _dumps writes it, byte for byte what
json.dumps(payload, indent=2, sort_keys=True) gives, without the
pure-Python encoder that json falls back to whenever indent is set.
Two kinds of list or tuple are each written by one %-format call with
their ints flattened, from templates with a "%d" slot per int: items all
of exact type int (no bools, no int subclasses), such as a weight's
coordinates, from one template; and two or more dicts of one key set,
such as the rows of `roots` or of `weyl cosets`, from one template per
row shape.  A row must have the same str keys in the same order as
every other row, each value an exact int or a list or tuple of exact
ints; its shape is the lengths of those lists, so the rows of `roots`
share one template and the rows of `weyl cosets` take one per word
length.  Everything else is written item by item, and so is any list
that fails these tests, which therefore gives the same bytes or the same
TypeError.

Each argument is declared once, in the table _ARGS: its long flag or
positional name, int or str, required, default, choices and help.
_LEAVES gives each subcommand its help, its handler and the arguments
it takes beyond --format and --cap.  main reads a plain command line
with _scan, from those two tables alone: the subcommand's exact words,
then its positionals and its own long flags in any order, each flag as
`--flag value` (the value not starting with "-") or `--flag=value` (the
value not "--").  _scan gives what parse_args would, or None on anything
else (-h, an abbreviated flag, "--", a value starting with "-", an
unknown, missing or extra token, an int field int() refuses, a --format
outside its choices).  Only then does main import argparse, build its
tree (build_parser, once per process; parsing does not change it) and
parse with it, so argparse alone writes help text and usage errors.
_resolve turns `<type> <rank>`, --cross and --weight into the root
system (built under --cap), the parabolic and the weight, with the
payload fields that echo them.  Each handler returns its JSON payload, a
callable that renders the text report and the exit code; main renders
only the format asked for, inside the same error mapping as the handler.

Exit codes: 0 success; 1 when `roof verify` finds no nontrivial
equivalence; 2 on validation errors (bad flags, bad math inputs, an
answer too large to print); 3 when a computation exceeds the resource
cap (flag --cap or environment variable ROOFCALC_CAP).  When the reader
closes stdout early, the output stops quietly and the code stays the
command's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from itertools import chain, repeat
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Tuple

from .bwb import SINGLE, bwb
from .limits import DEFAULT_CAP, ENV_VAR, ResourceCapExceeded, resource_cap
from .motive import _igr_count_bits, class_of_quotient, igr_point_count
from .reps import weyl_dimension
from .roofs import catalog, verify_roof
from .rootsys import SUPPORTED_TYPES, RootSystem, Weight, build_root_system, make_weight
from .weyl import ParabolicSubgroup, minimal_coset_reps, orbit, parabolic

if TYPE_CHECKING:
    import argparse


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
    Two kinds of list are each written by one %-format call with their
    ints flattened: exact ints, from one template; and two or more int
    rows of one key set (_dumps_rows), from one template per row shape.
    Every other list, such as the points of `weyl orbit`, and any that
    fails these tests, is written item by item.
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


def _ints(n: int, pad: str) -> str:
    """The %-template of a list of n exact ints; pad is its line break."""
    if not n:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(["%d"] * n) + pad + "]"


def _dumps_rows(rows, pad: str) -> Optional[str]:
    """The rows of a list of dicts of one key set, comma-joined, or None.

    Every row must have the first row's str keys in the first row's
    order, and each value must be an exact int, or a list or tuple of
    exact ints in every row.  A row's shape is the lengths of its lists;
    each shape gets one row template, and the rows are filled by one
    %-format call with their ints flattened.  When every list column
    has one length, as in `roots`, one template is repeated and no row
    is looked up.  pad is the line break before each row.  On any other
    list the answer is None, and the item-by-item path writes the same
    bytes or raises the same TypeError.
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
    fields, columns, ragged = [], [], []  # ragged: (slot, field, lengths)
    for key in sorted(keys):
        value = first[key]
        column = list(map(itemgetter(key), rows))
        field = _escape(key).replace("%", "%%") + ": "
        if type(value) is int:
            fields.append(field + "%d")
            columns.append(zip(column))
        elif isinstance(value, (list, tuple)) and set(map(type, value)) <= {int}:
            if not all(map(isinstance, column, repeat((list, tuple)))):
                return None
            lengths = list(map(len, column))
            if len(set(lengths)) == 1:
                fields.append(field + _ints(lengths[0], inner))
            else:
                ragged.append((len(fields), field, lengths))
                fields.append(field)
            columns.append(column)
        else:
            return None
    flat = tuple(chain.from_iterable(chain.from_iterable(zip(*columns))))
    if not set(map(type, flat)) <= {int}:
        return None
    if not ragged:
        row = "{" + inner + ("," + inner).join(fields) + pad + "}"
        return ("," + pad).join([row] * len(rows)) % flat
    shapes = list(zip(*[lengths for _, _, lengths in ragged]))
    templates = {}
    for shape in set(shapes):
        for (slot, field, _), n in zip(ragged, shape):
            fields[slot] = field + _ints(n, inner)
        templates[shape] = "{" + inner + ("," + inner).join(fields) + pad + "}"
    return ("," + pad).join(map(templates.__getitem__, shapes)) % flat


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and shared after it."""
    import argparse

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
        p = subs[group].add_parser(leaf, help=help_text)
        for dest in ("format", "cap", *takes):
            flag, kind, required, default, choices, text = _ARGS[dest]
            if flag is None:
                p.add_argument(dest, type=kind, help=text)
            else:
                p.add_argument(
                    flag, type=kind, required=required, default=default,
                    choices=choices, help=text,
                )
        p.set_defaults(run=run)
    return parser


def _scan(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """What build_parser().parse_args(argv) returns, for a plain argv; else None.

    Plain: a subcommand's exact words, then exactly its positionals and
    any of its own long flags, in any order, each flag as `--flag value`
    (the value not starting with "-") or `--flag=value` (the value not
    "--"); every required flag given, int() taking each int field and
    --format within its choices.  A repeated flag keeps its last value,
    as in argparse.  Never prints and never exits.
    """
    words = 2 if argv and argv[0] in _GROUP_HELP else 1
    leaf = _LEAF_BY_WORDS.get(tuple(argv[:words]))
    if leaf is None:
        return None
    dests = ("format", "cap", *leaf[3])
    flags = {_ARGS[d][0]: d for d in dests if _ARGS[d][0] is not None}
    positionals = [d for d in dests if _ARGS[d][0] is None]
    given, read = [], []  # positional values; (dest, value) of each flag
    tokens = iter(argv[words:])
    for token in tokens:
        if not token.startswith("-"):
            given.append(token)
            continue
        flag, eq, value = token.partition("=")
        dest = flags.get(flag)
        if dest is None:
            return None
        if eq:
            # argparse on Python 3.11 stores [] for `--flag=--`
            if value == "--":
                return None
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        read.append((dest, value))
    if len(given) != len(positionals):
        return None
    # argparse converts and checks every value it reads, a repeated flag's
    # earlier ones too, and keeps the last
    values = {}
    for dest, value in chain(read, zip(positionals, given)):
        _, kind, _, _, choices, _ = _ARGS[dest]
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for dest in dests:
        if dest not in values:
            _, _, required, default, _, _ = _ARGS[dest]
            if required:
                return None
            values[dest] = default
    names = {"command": argv[0]}
    if words == 2:
        names[argv[0] + "_command"] = argv[1]
    return SimpleNamespace(**names, **values, run=leaf[2])


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
    if hasattr(args, "cross"):
        P = parabolic(system, _csv_ints(args.cross, "--cross"))
        echo["crossed"] = sorted(P.crossed)
    if hasattr(args, "weight"):
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
# Each argument once: dest -> (long flag, or None for a positional; int or
# str; required; default; choices; help).  build_parser declares a leaf's
# rows on it, in the leaf's order; _scan reads them directly.
_ARGS = {
    "format": ("--format", str, False, "text", ("text", "json"),
               "output format (default: text)"),
    "cap": ("--cap", int, False, None, None,
            f"resource cap override (default {DEFAULT_CAP}, or ${ENV_VAR})"),
    "type": (None, str, True, None, None,
             f"system type: {', '.join(SUPPORTED_TYPES[:-1])} or {SUPPORTED_TYPES[-1]}"),
    "rank": (None, int, True, None, None, None),
    "cross": ("--cross", str, True, None, None, "comma-separated crossed nodes"),
    "weight": ("--weight", str, True, None, None,
               "comma-separated fundamental coordinates"),
    "d": (None, int, True, None, None, None),
    "n": (None, int, True, None, None, None),
    "q": (None, int, True, None, None, None),
    "family": (None, str, True, None, None, None),
    "r": ("--r", int, False, None, None, "family parameter"),
}
# subcommand, help, handler, and the rows of _ARGS it takes beyond
# --format and --cap
_LEAVES = (
    ("roots", "positive roots of a system", _cmd_roots, ("type", "rank")),
    ("weyl cosets", "minimal length coset representatives", _cmd_weyl_cosets,
     ("type", "rank", "cross")),
    ("weyl orbit", "orbit of a weight under the Levi Weyl group", _cmd_weyl_orbit,
     ("type", "rank", "cross", "weight")),
    ("rep dim", "dimension of the irrep of a dominant weight", _cmd_rep_dim,
     ("type", "rank", "weight")),
    ("bwb", "cohomology of an equivariant bundle on G/P", _cmd_bwb,
     ("type", "rank", "cross", "weight")),
    ("class quotient", "[G/P] as a polynomial in L", _cmd_class_quotient,
     ("type", "rank", "cross")),
    ("count igr", "points of IGr(d, 2n) over F_q", _cmd_count_igr, ("d", "n", "q")),
    ("roof list", "list the roof families", _cmd_roof_list, ()),
    ("roof verify", "verify one family member end to end", _cmd_roof_verify,
     ("family", "r")),
)
_LEAF_BY_WORDS = {tuple(leaf[0].split()): leaf for leaf in _LEAVES}


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _scan(argv)
    if args is None:
        args = build_parser().parse_args(argv)
        # argparse on Python 3.11 stores [] for `--flag=--` (newer argparse
        # stores "--", which the flag's type, choices or handler refuses);
        # parsing the subcommand and the flag alone gives that flag's
        # usage error, "expected one argument", and exits 2
        for dest, value in vars(args).items():
            if isinstance(value, list):
                words = [args.command]
                if args.command in _GROUP_HELP:
                    words.append(getattr(args, args.command + "_command"))
                build_parser().parse_args([*words, _ARGS[dest][0]])
    try:
        args.cap = resource_cap(args.cap)
        payload, text, code = args.run(args)
        out = _dumps(payload) if args.format == "json" else text()
    except ResourceCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
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
