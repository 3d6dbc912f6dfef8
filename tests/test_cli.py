"""Command-line interface: formats, determinism, exit codes."""

import argparse
import enum
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roofcalc.cli
from roofcalc import (
    ResourceCapExceeded,
    Weight,
    build_root_system,
    igr_point_count,
    koszul_zero_locus_cohomology,
    make_weight,
    parabolic,
    roof_data,
)
from roofcalc.cli import _dumps, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_text_and_json(capsys):
    code, out, _ = run(capsys, "roots", "G2", "2")
    assert code == 0
    assert out.startswith("positive roots of G2 rank 2: 6")
    code, out, _ = run(capsys, "roots", "G2", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert len(payload["positive_roots"]) == 6
    assert {row["norm"] for row in payload["positive_roots"]} == {2, 6}


def test_weyl_cosets(capsys):
    code, out, _ = run(
        capsys, "weyl", "cosets", "C", "3", "--cross", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    lengths = [row["length"] for row in payload["representatives"]]
    assert lengths == sorted(lengths)
    assert payload["representatives"][0]["word"] == []


def test_weyl_orbit(capsys):
    # orbit under W_I for the RETAINED nodes; crossing node 1 leaves s2
    code, out, _ = run(
        capsys, "weyl", "orbit", "C", "2", "--cross", "1",
        "--weight", "0,1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2
    assert payload["orbit"] == [[0, 1], [2, -1]]
    # crossing everything leaves the trivial group
    code, out, _ = run(
        capsys, "weyl", "orbit", "C", "2", "--cross", "1,2",
        "--weight", "1,1", "--format", "json",
    )
    assert json.loads(out)["size"] == 1


def test_rep_dim_text_is_bare_integer(capsys):
    code, out, _ = run(capsys, "rep", "dim", "F4", "4", "--weight", "0,1,0,0")
    assert code == 0
    assert out == "1274\n"


def test_bwb_text(capsys):
    # negative leading coordinates need the --weight=... spelling so
    # argparse does not read the value as a flag
    code, out, _ = run(capsys, "bwb", "C", "3", "--cross", "1", "--weight=-7,0,0")
    assert code == 0
    assert out == "Single at degree 5: highest weight (1, 0, 0), dimension 6\n"
    code, out, _ = run(capsys, "bwb", "C", "3", "--cross", "1", "--weight=-3,0,0")
    assert code == 0
    assert out == "Vanishes\n"


def test_class_quotient_text_renders_polynomial(capsys):
    code, out, _ = run(capsys, "class", "quotient", "A", "2", "--cross", "1")
    assert code == 0
    assert out == "1 + L + L^2\n"


def test_count_igr(capsys):
    code, out, _ = run(capsys, "count", "igr", "2", "2", "3")
    assert code == 0
    assert out == "40\n"
    code, out, _ = run(capsys, "count", "igr", "2", "2", "3", "--format", "json")
    payload = json.loads(out)
    assert payload == {"count": 40, "d": 2, "n": 2, "q": 3}


def test_roof_list(capsys):
    code, out, _ = run(capsys, "roof", "list")
    assert code == 0
    for label in ("AxA", "A_M", "A_G", "C", "D", "F4", "G2"):
        assert label in out
    code, out, _ = run(capsys, "roof", "list", "--format", "json")
    payload = json.loads(out)
    assert len(payload["families"]) == 7


def test_roof_verify_exit_codes(capsys):
    # nontrivial equivalence: exit 0
    code, out, _ = run(capsys, "roof", "verify", "F4")
    assert code == 0
    assert "nontrivial equivalence: yes" in out
    # equal classes but no distinctness: exit 1
    code, out, _ = run(capsys, "roof", "verify", "A_G", "--r", "2")
    assert code == 1
    assert "nontrivial equivalence: no" in out
    code, _, _ = run(capsys, "roof", "verify", "AxA", "--r", "1")
    assert code == 1


def test_roof_verify_json_payload(capsys):
    code, out, _ = run(capsys, "roof", "verify", "C", "--r", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes_equal"] is True
    assert payload["igr_backend_agrees"] is True
    assert payload["h0_z1"] == 110
    assert payload["h0_z2"] == 165
    assert payload["certificate"] == "L^3([Z1]-[Z2]) = 0"


def test_json_output_is_byte_identical(capsys):
    argv = ("roof", "verify", "F4", "--format", "json")
    code1 = main(list(argv))
    first = capsys.readouterr().out
    code2 = main(list(argv))
    second = capsys.readouterr().out
    assert (code1, code2) == (0, 0)
    assert first == second
    # canonical form: sorted keys, two-space indent, trailing newline
    payload = json.loads(first)
    assert first == json.dumps(payload, indent=2, sort_keys=True) + "\n"


_text = st.text() | st.text(alphabet='"\\/\n\t\x00\x1f\x7f \u00e9\u2028\U0001f600a')
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | _text
)


@st.composite
def _rows_of_one_shape(draw, values):
    """2-5 dict rows of one shape, of which one is sometimes perturbed."""
    keys = draw(
        st.lists(
            st.sampled_from(["%d", "100%", "a"]) | _text, min_size=1, max_size=4, unique=True
        )
    )
    widths = [draw(st.none() | st.integers(0, 4)) for _ in keys]
    vector = st.sampled_from([list, tuple, Weight])

    def value(width):
        if width is None:
            return draw(st.integers())
        ints = draw(st.lists(st.integers(), min_size=width, max_size=width))
        return draw(vector)(ints)

    rows = [
        {k: value(w) for k, w in zip(keys, widths)}
        for _ in range(draw(st.integers(2, 5)))
    ]
    i = draw(st.integers(0, len(rows) - 1))
    key = draw(st.sampled_from(keys))
    change = draw(st.sampled_from(["none", "value", "drop", "add", "reorder"]))
    if change == "value":
        rows[i][key] = draw(values)
    elif change == "drop":
        del rows[i][key]
    elif change == "add":
        rows[i][draw(_text)] = draw(values)
    elif change == "reorder":
        rows[i] = dict(reversed(list(rows[i].items())))
    return rows


_int_vector = st.sampled_from([list, tuple, Weight]).flatmap(
    lambda kind: st.lists(st.integers(), max_size=4).map(kind)
)
_planted = st.booleans() | st.floats() | _text


@st.composite
def _ragged_rows(draw):
    """2-6 dict rows of one key set whose int vectors change length.

    A bool, float or str is sometimes planted in one row, as its value
    or inside its vector.
    """
    keys = draw(
        st.lists(
            st.sampled_from(["%d", "100%", "a"]) | _text, min_size=1, max_size=3, unique=True
        )
    )
    vectors = [draw(st.booleans()) for _ in keys]
    vectors[draw(st.integers(0, len(keys) - 1))] = True
    rows = [
        {k: draw(_int_vector if v else st.integers()) for k, v in zip(keys, vectors)}
        for _ in range(draw(st.integers(2, 6)))
    ]
    if draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        key = draw(st.sampled_from(keys))
        if vectors[keys.index(key)] and row[key] and draw(st.booleans()):
            row[key] = list(row[key])
            row[key][draw(st.integers(0, len(row[key]) - 1))] = draw(_planted)
        else:
            row[key] = draw(_planted)
    return rows


_payloads = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers() | st.booleans(), max_size=40)
    | st.lists(st.integers(), max_size=40).map(Weight)
    | st.dictionaries(_text, inner, max_size=4)
    | _rows_of_one_shape(inner)
    | _ragged_rows()
    | st.lists(_int_vector, max_size=8),
    max_leaves=24,
)


def _has_float(o):
    if isinstance(o, dict):
        o = list(o.values())
    if isinstance(o, (list, tuple)):
        return any(map(_has_float, o))
    return isinstance(o, float)


@given(_payloads)
def test_dumps_matches_json_dumps(payload):
    if _has_float(payload):
        # json takes floats, _dumps refuses them wherever they are
        with pytest.raises(TypeError, match="^Object of type float is not JSON"):
            _dumps(payload)
    else:
        assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


class _Node(enum.IntEnum):
    FIRST = 1
    SECOND = 2


def test_dumps_int_vectors():
    big = 2**64
    for payload in (
        [1, True, 0],
        [False, 0],
        (True,),
        [1, _Node.SECOND, 3],
        [_Node.FIRST],
        {"node": _Node.SECOND, "nodes": (_Node.FIRST, 0)},
        [big, -big, big * big, -(big**3) - 1, 0],
        Weight((3, -1, 0, 2**70)),
        [Weight((1, 0)), Weight(()), (Weight((-2,)),)],
        # equal lengths at two depths, and an int vector beside a mixed one
        [[1, 2], [3, 4], 5, 6],
        {"a": [1, 2], "b": [[1, 2], [3, 4]], "c": [1, None], "d": [1, "2"]},
    ):
        assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize("kind, rank", [("A", 37), ("C", 31), ("D", 31)])
def test_dumps_matches_json_dumps_on_roots_payloads(kind, rank):
    args = roofcalc.cli.build_parser().parse_args(["roots", kind, str(rank)])
    payload, _, code = args.run(args)
    assert code == 0
    assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "argv, items",
    [
        ("weyl cosets A 11 --cross 6", 924),
        ("weyl cosets D 8 --cross 4", 1120),
        ("weyl orbit C 6 --cross 1 --weight=0,2,2,-2,1,-1", 240),
        ("roof verify C --r 2", None),
    ],
)
def test_dumps_matches_json_dumps_on_ragged_payloads(argv, items):
    args = roofcalc.cli.build_parser().parse_args(argv.split())
    payload, _, code = args.run(args)
    assert code == 0
    if items is not None:
        assert len(payload.get("representatives", payload.get("orbit"))) == items
    assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_dumps_rows_of_one_shape():
    # rows of one shape are written from one template
    templated = (
        [
            {"v": [1, -2], "t": (3, 4), "w": Weight((5, 2**70)), "n": 7},
            {"v": [8, 9], "t": (-10, 11), "w": Weight((0, 0)), "n": -12},
            {"v": [0, 0], "t": (1, 1), "w": Weight((1, -1)), "n": 0},
        ],
        [{"a": [], "b": ()}, {"a": [], "b": ()}],
        [{"e": [], "n": 1}, {"e": (), "n": 2}],
        [{"%d": 1, "100%": [2, 3]}, {"%d": 4, "100%": [5, 6]}],
        # and rows whose vectors change length from one template per shape
        [{"a": [1, 2]}, {"a": [3]}],
        [{"a": [1]}, {"a": []}],
    )
    # anything else goes item by item, to the same bytes
    item_by_item = (
        [{"a": [1, 2]}, {"a": [1, True]}],
        [{"n": 1}, {"n": _Node.SECOND}],
        [{"n": _Node.FIRST}, {"n": 2}],
        [{"a": 1, "b": [2]}, {"a": 3}],
        [{"a": 1}, {"a": 3, "b": [2]}],
        [{"a": 1, "b": [2]}, {"b": [3], "a": 4}],
        [{"a": 1}, {"a": [1]}],
        [{"a": [1]}, {"a": 1}],
        [{"a": [1]}, {"a": "x"}],
        [{"a": [1]}, {"a": None}],
        [{"s": "x"}, {"s": "y"}],
        [{"a": [1, "2"]}, {"a": [3, "4"]}],
        [{}, {}],
    )
    for rows in templated:
        assert roofcalc.cli._dumps_rows(rows, "\n  ") is not None
        assert _dumps(rows) == json.dumps(rows, indent=2, sort_keys=True)
    for rows in item_by_item:
        assert roofcalc.cli._dumps_rows(rows, "\n  ") is None
        assert _dumps(rows) == json.dumps(rows, indent=2, sort_keys=True)
    # rows the writer refuses raise what the first refused row raises alone
    for rows in (
        [{1: 0}, {1: 0}],
        [{"a": 1, 2: 0}, {"a": 1, 2: 0}],
        [{"a": [1]}, {"a": [1.0]}],
    ):
        with pytest.raises(TypeError) as alone:
            [_dumps(row) for row in rows]
        with pytest.raises(TypeError, match=re.escape(str(alone.value))):
            _dumps(rows)
    # one row, and lists of row lists
    for payload in (
        [{"a": 1, "b": [2]}],
        [[{"a": 1}, {"a": 2}], [{"a": [3]}, {"a": [4]}], [{"a": 5}]],
        {"rows": [[{"%d": [1]}, {"%d": [2]}]] * 2},
    ):
        assert _dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_dumps_raises_on_what_it_does_not_write():
    for payload in (
        1.5,
        [1, 2.0],
        {"a": {1: 0}},
        {None: 1},
        {1, 2},
        b"x",
        [{"a": 1.5}, {"a": 2.5}],
        [{"a": [1]}, {"a": [1.0]}],
        [{1: 0}, {1: 0}],
        [{"a": [1]}, {"a": {1: 0}}],
        [{"a": [1]}, {"a": {1}}],
    ):
        with pytest.raises(TypeError):
            _dumps(payload)


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    roofcalc.cli.build_parser.cache_clear()
    # a plain command line is read without the argparse tree
    assert run(capsys, "rep", "dim", "G2", "2", "--weight", "1,0") == (0, "14\n", "")
    assert built == []
    # the first command line the scanner leaves to argparse builds the tree
    assert run(capsys, "count", "igr", "2", "2", "3", "--form", "text") == (0, "40\n", "")
    tree = len(built)
    assert tree > 0
    # a cap from one call does not stay for the next
    cosets = ("weyl", "cosets", "F4", "4", "--cross", "1,2,3,4")
    assert run(capsys, *cosets, "--cap", "100")[0] == 3
    assert run(capsys, *cosets)[0] == 0
    assert run(capsys, *cosets, "--ca", "100")[0] == 3
    assert run(capsys, *cosets, "--form", "text")[0] == 0
    # nor does a usage error
    with pytest.raises(SystemExit) as exc:
        main(["roots"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "count", "igr", "2", "2", "3") == (0, "40\n", "")
    # nor the format
    for spelling in ("--format", "--form"):
        code, out, _ = run(capsys, "count", "igr", "2", "2", "3", spelling, "json")
        assert json.loads(out) == {"count": 40, "d": 2, "n": 2, "q": 3}
        assert run(capsys, "count", "igr", "2", "2", "3") == (0, "40\n", "")
    assert len(built) == tree


_ARG_VALUES = st.text(alphabet="-=,09 aCF", max_size=5)
_NOT_A_FLAG = _ARG_VALUES.filter(lambda v: not v.startswith("-"))
_PERTURBATIONS = (
    "abbreviated", "dash value", "empty =", "= --", "--", "-h", "repeated",
    "missing positional", "extra positional", "bad int", "format xml",
)


@st.composite
def _command_lines(draw, change):
    """A plain argv for one leaf, built from the argument table, with the
    change named (one of _PERTURBATIONS) applied, if any."""
    name, _, _, takes = draw(st.sampled_from(roofcalc.cli._LEAVES))
    rows = roofcalc.cli._ARGS
    chunks, flags, ints = [], [], []  # ints: the chunks of int positionals
    free = []  # the flags that take any string
    for dest in ("format", "cap", *takes):
        flag, kind, required, _, choices, _ = rows[dest]
        if flag is None:
            value = str(draw(st.integers(0, 99))) if kind is int else draw(_NOT_A_FLAG)
            chunks.append(["positional", value])
            if kind is int:
                ints.append(chunks[-1])
            continue
        flags.append(flag)
        if kind is str and choices is None:
            free.append(flag)
        if not (required or draw(st.booleans())):
            continue
        joined = draw(st.booleans())
        if choices:
            value = draw(st.sampled_from(choices))
        elif kind is int:
            value = str(draw(st.integers(-99 if joined else 0, 99)))
        elif joined:
            value = draw(_ARG_VALUES.filter(lambda v: v != "--"))
        else:
            value = draw(_NOT_A_FLAG)
        # flags go anywhere among the positionals, which keep their order
        at = draw(st.integers(0, len(chunks)))
        chunks.insert(at, [flag + "=" + value] if joined else [flag, value])
    at = draw(st.integers(0, len(chunks)))
    flag = draw(st.sampled_from(flags))
    positional = [i for i, c in enumerate(chunks) if c[0] == "positional"]
    if change == "abbreviated" and len(flag) > 3:
        chunks.insert(at, [flag[: draw(st.integers(3, len(flag) - 1))], "1"])
    elif change == "dash value":
        chunks.insert(at, [flag, "-" + draw(_ARG_VALUES)])
    elif change == "empty =":
        chunks.insert(at, [flag + "="])
    elif change == "= --":
        # argparse on Python 3.11 reads it as [], which a free flag given
        # last shows
        chunks.append([draw(st.sampled_from(free or flags)) + "=--"])
    elif change in ("--", "-h"):
        chunks.insert(at, [change])
    elif change == "repeated":
        chunks.insert(at, [flag, "text" if flag == "--format" else "7"])
    elif change == "missing positional" and positional:
        del chunks[draw(st.sampled_from(positional))]
    elif change == "extra positional":
        chunks.insert(at, ["positional", "7"])
    elif change == "bad int":
        bad = draw(st.sampled_from(["x", "1.5", "", "0x10"]))
        if ints:
            draw(st.sampled_from(ints))[1] = bad
        else:
            chunks.insert(at, ["--cap", bad])
    elif change == "format xml":
        chunks.insert(at, ["--format", "xml"])
    tokens = [t for c in chunks for t in (c[1:] if c[0] == "positional" else c)]
    return [*name.split(), *tokens]


@pytest.mark.parametrize("change", (None, *_PERTURBATIONS))
@settings(max_examples=25)
@given(data=st.data())
def test_scan_agrees_with_argparse(change, data):
    argv = data.draw(_command_lines(change))
    scanned = roofcalc.cli._scan(argv)
    if change is None:
        assert scanned is not None, argv
    if scanned is not None:
        expected = roofcalc.cli.build_parser().parse_args(argv)
        assert vars(scanned) == vars(expected), argv


def _readme_command_lines():
    """Each synopsis line of the README's Command line block, with sample
    values for its placeholders, and each of its example command lines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    samples = {
        "<type>": "C", "<rank>": "3", "<nodes>": "1", "<csv>": "1,0,0", "<d>": "2",
        "<n>": "2", "<q>": "3", "<family>": "C", "[--r": "--r", "N]": "2",
    }
    lines = []
    for line in section.splitlines():
        line = line.removeprefix("$ ")
        if line.startswith("roofcalc "):
            words = re.split(r"\s{2,}", line)[0].split()[1:]
            # a synopsis ends at its last placeholder, where one space may
            # separate it from the description
            ends = [i for i, w in enumerate(words) if w[0] == "<" or w[-1] == "]"]
            words = words[: ends[-1] + 1] if ends else words
            lines.append([samples.get(w, w) for w in words])
    return lines


def test_plain_command_lines_take_the_scanner(capsys):
    command_lines = _readme_command_lines()
    assert len(command_lines) == 13
    command_lines += [[*argv, "--format", "json"] for argv, _, _ in PINNED_JSON]
    command_lines += [list(argv) for argv, _, _ in PINNED_TEXT]
    for argv in command_lines:
        scanned = roofcalc.cli._scan(argv)
        assert scanned is not None, argv
        assert vars(scanned) == vars(roofcalc.cli.build_parser().parse_args(argv)), argv
    # argparse on Python 3.11 reads `--weight=--` as [], not "--"
    assert roofcalc.cli._scan(["rep", "dim", "A", "2", "--weight=--"]) is None
    # an abbreviated flag goes to argparse, which writes the same answer
    assert run(capsys, "roots", "G2", "2", "--form", "json") == run(
        capsys, "roots", "G2", "2", "--format", "json"
    )
    # a value starting with "-" is a usage error, as is a flag of another leaf
    for argv, message in (
        (["rep", "dim", "A", "2", "--weight", "-1,0"],
         "argument --weight: expected one argument"),
        (["weyl", "cosets", "A", "3", "--cross", "2", "--weight=1,0,0"],
         "unrecognized arguments: --weight=1,0,0"),
    ):
        assert roofcalc.cli._scan(argv) is None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: roofcalc ")
        assert captured.err.endswith(message + "\n"), captured.err


def test_roots_honors_cap(capsys):
    # G2 stores 6 positive roots of 2 coordinates
    code, out, err = run(capsys, "roots", "G2", "2", "--cap", "11")
    assert (code, out) == (3, "")
    assert "12" in err
    assert run(capsys, "roots", "G2", "2", "--cap", "12")[0] == 0
    # checked before anything is built
    code, _, err = run(capsys, "roots", "A", "1000")
    assert code == 3
    assert "500500000" in err


# sha256 of the --format json stdout; a change that alters answers on
# purpose re-records these and says which ones moved
PINNED_JSON = (
    (("roots", "C", "5"), 0,
     "a95d148c48cdb92e230b5158369c9134bcd298848abca68060108b279763ef32"),
    (("weyl", "cosets", "D", "5", "--cross", "2"), 0,
     "9b1a3fb35bbd0deacce86051ce76805d3ff4904ad934a74e7729981f64229586"),
    (("weyl", "orbit", "F4", "4", "--cross", "1", "--weight", "0,1,0,1"), 0,
     "7a8f6aa44136680fd2673813a2474a662a1fc62dd787a5781e98f8da8735e9b6"),
    (("bwb", "C", "4", "--cross", "2", "--weight=0,-5,1,2"), 0,
     "435e8922579c76f9345db6d400823db4ab2df9ff78d481a93366ac08fb7cf48d"),
    (("rep", "dim", "F4", "4", "--weight", "0,1,0,0"), 0,
     "2eadec62b48dd8629bd17cfccba02e20fd93d197aedf4227a80566db6e7b5c42"),
    (("class", "quotient", "C", "5", "--cross", "2"), 0,
     "565d8d8faba81bc46aa62f8992f5404228bc8d9fa90c5c55257766f6bf325226"),
    (("roof", "verify", "F4"), 0,
     "a3931b1a2672515929983d2127243ce6298ccab4961996ad5209dfd79e01f787"),
    (("roof", "verify", "G2"), 0,
     "47bee3460a86c77ec0b3560a8af5dcf7376af4e7d9041ce6926247a84e68ab3c"),
    (("roof", "verify", "C", "--r", "2"), 0,
     "cbaf66fb7a7b9c4490f1ba068cc9c6786c39bf2cc62822ba13689c7e02da51d2"),
    (("roof", "verify", "D", "--r", "6"), 1,
     "f08e5364706d6842f359b25bd0de540a8e74da154005a50a343234c983673013"),
    (("roof", "verify", "A_M", "--r", "8"), 1,
     "65f2f140ad8464a027479f54414f45be50a662100c870f2ea5fa267abc2fd5d0"),
    (("roof", "list"), 0,
     "5c101b40c2f2e270f2d19b44e211d336a3f4778ea456ecd4e296e3c37abfb330"),
    (("roof", "verify", "AxA", "--r", "2"), 1,
     "ce15a8eaa1124c65c2bc772e27355ef98eae2ddf8c9f649d90cd8f7286adc788"),
    (("roof", "verify", "A_G", "--r", "3"), 1,
     "79107843902566c2f8775b3b30911353c8070fd63c7c6c45213a7c1e7cd9c037"),
    # the Inconclusive first page of Z1
    (("roof", "verify", "C", "--r", "1"), 1,
     "31835e090178989231f1ee57a5d99f926422d0bbf4982a57878f01b0a217eac6"),
    (("roof", "verify", "D", "--r", "4"), 1,
     "97d7fd1cabde1815169f303b0c86424efc851b3fd0ff7bbcdc50091edadccb67"),
)

# sha256 of the default text stdout, pinned the same way
PINNED_TEXT = (
    (("roof", "list"), 0,
     "4201b17c8335067ad01d01f8a0d1e2ea54e54e6bbffade566251daa9ec2eae2c"),
    (("roof", "verify", "F4"), 0,
     "fb48f3c07ed7b7d97c783b3adc8b584ff4fd47a2b066dd5df731a841e847345e"),
    # the Inconclusive first page of Z1, in text
    (("roof", "verify", "C", "--r", "1"), 1,
     "f20e1d5e8c25369468949ca841da06aceefe27cdc39f4eeb9eed18c8bfdf11e9"),
)


def test_json_output_matches_pinned_digests(capsys):
    for argv, expected_code, digest in PINNED_JSON:
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == expected_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_text_output_matches_pinned_digests(capsys):
    for argv, expected_code, digest in PINNED_TEXT:
        code, out, _ = run(capsys, *argv)
        assert code == expected_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_text_and_json_agree_numerically(capsys):
    _, text_out, _ = run(capsys, "rep", "dim", "C", "5", "--weight", "0,0,1,0,0")
    _, json_out, _ = run(
        capsys, "rep", "dim", "C", "5", "--weight", "0,0,1,0,0", "--format", "json"
    )
    assert int(text_out) == json.loads(json_out)["dimension"] == 110


def test_validation_errors_exit_2(capsys, monkeypatch):
    code, out, err = run(capsys, "roots", "E8", "8")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, _, err = run(capsys, "rep", "dim", "C", "3", "--weight", "1,x,0")
    assert code == 2
    assert "--weight" in err
    code, _, err = run(capsys, "bwb", "C", "3", "--cross", "1", "--weight", "0,-1,0")
    assert code == 2
    code, _, err = run(capsys, "roof", "verify", "C")
    assert code == 2
    assert "requires the parameter" in err
    code, out, err = run(
        capsys, "weyl", "orbit", "A", "3", "--cross", "0", "--weight", "1,0,0"
    )
    assert (code, out) == (2, "")
    assert "crossed node 0 out of range 1..3" in err
    for argv in (("roots", "G2", "2"), ("roof", "list")):
        code, out, err = run(capsys, *argv, "--cap", "0")
        assert (code, out) == (2, ""), argv
        assert "resource cap must be >= 1, got 0" in err
    for raw, message in (("abc", "must be an integer"), ("0", "must be >= 1")):
        monkeypatch.setenv("ROOFCALC_CAP", raw)
        for argv in (("roots", "G2", "2"), ("roof", "list")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"ROOFCALC_CAP {message}, got {raw!r}" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["roots"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    capsys.readouterr()
    # `--flag=--` exits 2 naming the flag on every Python.  Where argparse
    # stores [] for it (Python 3.11), that is the flag without its value;
    # newer argparse stores "--", which the flag's type, choices or
    # handler refuses
    probe = argparse.ArgumentParser()
    probe.add_argument("--x")
    stores_list = probe.parse_args(["--x=--"]).x == []
    for argv, flag in (
        ("rep dim A 2 --weight=--", "--weight"),
        ("weyl cosets A 2 --cross=--", "--cross"),
        ("roots G2 2 --format=--", "--format"),
        ("roots G2 2 --cap=--", "--cap"),
        ("roof verify C --r=--", "--r"),
    ):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        assert code == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert re.search(r"error: (argument )?" + flag + r"\b", err), (argv, err)
        if stores_list:
            assert err.endswith(f": error: argument {flag}: expected one argument\n"), argv


def test_cap_exceeded_exits_3(capsys):
    code, out, err = run(
        capsys, "weyl", "cosets", "F4", "4", "--cross", "1,2,3,4", "--cap", "100"
    )
    assert code == 3
    assert out == ""
    assert "cap" in err.lower()


def test_cap_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("ROOFCALC_CAP", "100")
    code, _, err = run(capsys, "weyl", "cosets", "F4", "4", "--cross", "1,2,3,4")
    assert code == 3
    # explicit flag wins over the environment
    code, out, _ = run(
        capsys, "weyl", "cosets", "F4", "4", "--cross", "1,2,3,4",
        "--cap", "2000", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 1152


# F4 stores 24 positive roots of 4 coordinates, 96 in all
F4_TYPE_RANK_LEAVES = (
    ("roots", "F4", "4"),
    ("weyl", "cosets", "F4", "4", "--cross", "1"),
    ("weyl", "orbit", "F4", "4", "--cross", "1", "--weight", "0,0,0,1"),
    ("rep", "dim", "F4", "4", "--weight", "0,0,0,1"),
    ("bwb", "F4", "4", "--cross", "1", "--weight", "0,0,0,1"),
    ("class", "quotient", "F4", "4", "--cross", "2"),
)


def test_cap_flag_bounds_every_root_build(capsys, monkeypatch):
    for argv in F4_TYPE_RANK_LEAVES:
        code, out, err = run(capsys, *argv, "--cap", "95")
        assert (code, out) == (3, ""), argv
        assert "root system F4 rank 4 needs 96" in err, argv
        assert run(capsys, *argv, "--cap", "96")[0] == 0, argv
    # the flag wins over the environment for the root build too
    monkeypatch.setenv("ROOFCALC_CAP", "50")
    code, out, _ = run(
        capsys, "weyl", "cosets", "F4", "4", "--cross", "1",
        "--cap", "2000", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["count"] == 24


def test_cap_bounds_koszul_straightenings():
    # C r=3: the largest count is 24 straightenings, for the third
    # exterior power on the Z1 side (Newton stops at the middle degree of
    # the 6-dimensional dual bundle; duality fills the rest).  C8 stores
    # 512 root coordinates, so `roof verify --cap` trips on the build
    # first: the group is built outside the cap here.
    fam = roof_data("C", 3)
    system = build_root_system(fam.group_type, fam.group_rank)
    node = fam.crossed_pair[0]
    P = parabolic(system, (node,))
    twist = make_weight(
        system, tuple(int(j == node) for j in range(1, system.rank + 1))
    )
    with pytest.raises(ResourceCapExceeded) as err:
        koszul_zero_locus_cohomology(P, fam.bundle_weight, twist, cap=23)
    assert "exterior power 3" in str(err.value) and err.value.needed == 24
    assert koszul_zero_locus_cohomology(P, fam.bundle_weight, twist, cap=24).h0 == 3808


def test_roof_verify_cap_bounds_the_build(capsys, monkeypatch):
    code, out, err = run(capsys, "roof", "verify", "C", "--r", "3", "--cap", "511")
    assert (code, out) == (3, "")
    assert "root system C rank 8 needs 512" in err
    assert run(capsys, "roof", "verify", "C", "--r", "3", "--cap", "512")[0] == 0
    # the flag wins over the environment for the build too
    monkeypatch.setenv("ROOFCALC_CAP", "50")
    assert run(capsys, "roof", "verify", "F4", "--cap", "1000")[0] == 0
    code, _, err = run(capsys, "roof", "verify", "F4")
    assert code == 3 and "root system F4 rank 4 needs 96" in err


def test_count_igr_checks_its_size_first(capsys):
    # IGr(40, 80) has dimension 820, so its count over F_2 has at least
    # 821 bits (28 digits of 30 bits); the denominator prod_{j<=40} (2^j - 1)
    # is bounded by 820 * bit_length(2) = 1640 bits (55 digits), and the
    # division costs 55 * 28 = 1540 digit products
    code, out, err = run(capsys, "count", "igr", "40", "40", "2", "--cap", "1539")
    assert (code, out) == (3, "")
    assert "IGr(40, 80) over F_2 (30-bit digit products) needs 1540" in err
    assert run(capsys, "count", "igr", "40", "40", "2", "--cap", "1540")[0] == 0
    with pytest.raises(ResourceCapExceeded):
        igr_point_count(40, 40, 2, cap=1539)
    # about 4.5 million bits: past the int-to-str limit, refused before
    # the product is taken
    code, out, err = run(capsys, "count", "igr", "3000", "3000", "2")
    assert (code, out) == (2, "")
    assert "digits" in err and err.count("\n") == 1


def test_render_errors_exit_2(capsys):
    # answers past the interpreter's 4300-digit int-to-str limit fail
    # while the report is rendered, after the computation returned
    huge = ",".join(["9" * 1000] * 10)
    for argv in (
        ("count", "igr", "150", "150", "9"),
        ("count", "igr", "150", "150", "9", "--format", "json"),
        ("rep", "dim", "A", "10", "--weight", huge),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv[:3]
        assert err.startswith("error:") and err.count("\n") == 1, argv[:3]


def test_closed_pipe_exits_quietly():
    # the text of roots A 37 (about 175 kB) is larger than a pipe buffer,
    # so the write is still pending when the reader goes away
    src = Path(roofcalc.cli.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "roofcalc.cli", "roots", "A", "37"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"positive roots of A rank 37: 703\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def _leaves(parser, path=()):
    """The name paths of the subcommands of parser that have none of their own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path
    for action in subs:
        for name, child in action.choices.items():
            yield from _leaves(child, (*path, name))


def test_every_leaf_has_help_and_a_readme_line(capsys):
    leaves = sorted(_leaves(roofcalc.cli.build_parser()))
    for leaf in leaves:
        # the leaf builds and formats the arguments of all its parents
        with pytest.raises(SystemExit) as exc:
            main([*leaf, "-h"])
        assert exc.value.code == 0, leaf
        assert capsys.readouterr().out.startswith("usage: roofcalc " + " ".join(leaf))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    listed = []
    for line in block.splitlines():
        if line.startswith("roofcalc "):
            words = re.split(r"\s{2,}", line)[0].split()[1:]
            listed.append(tuple(itertools.takewhile(lambda w: w[0] not in "<[-", words)))
    assert sorted(listed) == leaves
    assert len(leaves) == 9


def test_roof_verify_a_m_27_within_default_cap(capsys):
    # Lambda^13 of the rank-27 bundle has comb(27, 13) > 10^7 weights
    code, out, _ = run(capsys, "roof", "verify", "A_M", "--r", "27", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["h0_z1"], payload["h0_z2"]) == (28, 28)


def test_console_script_entry_point(capsys, monkeypatch):
    # The `roofcalc` executable is declared in pyproject.toml; check the
    # declaration itself so the test holds from a source checkout, and
    # the installed entry point as well wherever the package is installed.
    import importlib
    import importlib.metadata as md
    import sys
    from pathlib import Path

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    import roofcalc.cli

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    declared = scripts["roofcalc"]
    assert declared == "roofcalc.cli:main"

    module_name, _, attr = declared.partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert target is roofcalc.cli.main

    # the generated wrapper calls sys.exit(main()) with no arguments
    monkeypatch.setattr(
        sys, "argv", ["roofcalc", "rep", "dim", "G2", "2", "--weight", "1,0"]
    )
    assert target() == 0
    assert capsys.readouterr().out == "14\n"

    try:
        dist = md.distribution("roofcalc")
    except md.PackageNotFoundError:
        return
    installed = [
        ep for ep in dist.entry_points
        if ep.group == "console_scripts" and ep.name == "roofcalc"
    ]
    assert [ep.value for ep in installed] == [declared]
