"""Record types: reprs, equality, hashing and immutability, pinned."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import roofcalc
from roofcalc import (
    CohomologyResult,
    KoszulResult,
    LeviIrrep,
    LPolynomial,
    ParabolicSubgroup,
    RoofFamily,
    RoofReport,
    RootData,
    RootSystem,
    Weight,
    WeightMultiset,
    WeylElement,
    build_root_system,
    bwb,
    from_word,
    identity,
    parabolic,
    roof_data,
    verify_roof,
)
from roofcalc.rootsys import _build_interned

F4 = build_root_system("F4", 4)
G2 = build_root_system("G2", 2)

ROOF_REPORT_G2 = (
    "RoofReport(family=RoofFamily(label='G2', r=None, group='G2', group_type='G2', "
    "group_rank=2, product=False, crossed_pair=(1, 2), base_dims=5, bundle_rank=2, "
    "bundle_weight=Weight(1, 1)), class_f1=LPolynomial(coeffs=(1, 1, 1, 1, 1, 1)), "
    "class_f2=LPolynomial(coeffs=(1, 1, 1, 1, 1, 1)), classes_equal=True, "
    "residual=LPolynomial(coeffs=()), certificate='L^1([Z1]-[Z2]) = 0', "
    "koszul_z1=KoszulResult(status='Determined', first_page=((0, 0, 14),), "
    "cohomology=((0, 14),), h0=14), koszul_z2=KoszulResult(status='Determined', "
    "first_page=((0, 0, 7),), cohomology=((0, 7),), h0=7), igr_backend_agrees=None, "
    "lefschetz_applicable=True, distinctness=True, notes=('distinctness rests on "
    "Picard restriction: an isomorphism of the zero loci would have to match the "
    "ample generators, so unequal h0 rules one out', 'pairs in this family are "
    "documented in prior constructions; this report is informational'))"
)

# type -> (fields, a function called twice for two equal instances, a
# function making an unequal instance, the exact repr of the first)
CASES = {
    RootData: (
        ("weight", "coefficients", "coroot", "norm"),
        lambda: F4.root_data[-1],
        lambda: F4.root_data[0],
        "RootData(weight=Weight(1, 0, 0, 0), coefficients=(2, 3, 4, 2), "
        "coroot=(2, 3, 2, 1), norm=4)",
    ),
    RootSystem: (
        ("type_label", "rank", "cartan", "symmetrizer", "simple_roots",
         "positive_roots", "root_data", "rho", "root_coefficient_index",
         "_simple_pairs"),
        lambda: build_root_system("f4", 4),
        lambda: G2,
        "RootSystem(F4, 4)",
    ),
    ParabolicSubgroup: (
        ("system", "crossed", "retained"),
        lambda: parabolic(F4, [2]),
        lambda: parabolic(F4, [3]),
        "Parabolic(F44, crossed={2})",
    ),
    WeylElement: (
        ("system", "word", "canonical_key"),
        lambda: from_word(F4, (2, 1, 2, 1, 1)),
        lambda: identity(F4),
        "WeylElement(s1*s2*s1)",
    ),
    CohomologyResult: (
        ("status", "degree", "g_highest_weight", "dimension"),
        lambda: bwb(parabolic(F4, [2]), Weight((0, 1, 0, 0))),
        lambda: bwb(parabolic(G2, [1]), Weight((-1, 0))),
        "CohomologyResult(status='Single', degree=0, "
        "g_highest_weight=Weight(0, 1, 0, 0), dimension=1274)",
    ),
    LPolynomial: (
        ("coeffs",),
        lambda: LPolynomial([1, 1, 0, 0]),
        lambda: LPolynomial([1, 1, 1]),
        "LPolynomial(coeffs=(1, 1))",
    ),
    LeviIrrep: (
        ("parabolic", "highest_weight"),
        lambda: LeviIrrep(parabolic(G2, [1]), (1, 1)),
        lambda: LeviIrrep(parabolic(G2, [1]), (1, 2)),
        "LeviIrrep(Parabolic(G22, crossed={1}), Weight(1, 1))",
    ),
    RoofFamily: (
        ("label", "r", "group", "group_type", "group_rank", "product",
         "crossed_pair", "base_dims", "bundle_rank", "bundle_weight"),
        lambda: roof_data("G2"),
        lambda: roof_data("F4"),
        "RoofFamily(label='G2', r=None, group='G2', group_type='G2', group_rank=2, "
        "product=False, crossed_pair=(1, 2), base_dims=5, bundle_rank=2, "
        "bundle_weight=Weight(1, 1))",
    ),
    KoszulResult: (
        ("status", "first_page", "cohomology", "h0"),
        lambda: verify_roof("G2").koszul_z1,
        lambda: verify_roof("G2").koszul_z2,
        "KoszulResult(status='Determined', first_page=((0, 0, 14),), "
        "cohomology=((0, 14),), h0=14)",
    ),
    RoofReport: (
        ("family", "class_f1", "class_f2", "classes_equal", "residual",
         "certificate", "koszul_z1", "koszul_z2", "igr_backend_agrees",
         "lefschetz_applicable", "distinctness", "notes"),
        lambda: verify_roof("G2"),
        lambda: verify_roof("C", 1),
        ROOF_REPORT_G2,
    ),
    WeightMultiset: (
        ("counts", "total"),
        lambda: WeightMultiset({(0, 1): 1, (1, -1): 2, (0, 0): 0}),
        lambda: WeightMultiset({(0, 1): 1}),
        "WeightMultiset({Weight(0, 1): 1, Weight(1, -1): 2})",
    ),
}


@pytest.mark.parametrize("kind", list(CASES), ids=lambda kind: kind.__name__)
def test_record_repr_equality_and_hash(kind):
    fields, make, make_other, text = CASES[kind]
    a, b, c = make(), make(), make_other()
    assert type(a) is type(b) is type(c) is kind
    assert repr(a) == text
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    if kind is RootSystem:
        assert a is b
        assert hash(a) == object.__hash__(a)
    elif kind is WeylElement:
        assert hash(a) == hash((a.system.type_label, a.system.rank, a.canonical_key))
    elif kind is WeightMultiset:
        assert hash(a) == hash(tuple(a.counts.items()))
    else:
        assert hash(a) == hash(tuple(getattr(a, name) for name in fields))


@pytest.mark.parametrize(
    "kind",
    [kind for kind in CASES if kind is not WeightMultiset],
    ids=lambda kind: kind.__name__,
)
def test_record_fields_cannot_be_assigned(kind):
    fields, make, _, _ = CASES[kind]
    record = make()
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


def test_weight_multiset_is_immutable():
    ms = CASES[WeightMultiset][1]()
    before = hash(ms)
    with pytest.raises(AttributeError):
        ms.counts = {}
    with pytest.raises(AttributeError):
        ms.total = 0
    with pytest.raises(AttributeError):
        del ms.total
    assert (ms.total, hash(ms)) == (3, before)


def test_root_systems_compare_by_identity():
    twin = _build_interned.__wrapped__("F4", 4)
    assert twin is not F4 and twin.root_data == F4.root_data
    assert twin != F4 and not twin == F4
    assert build_root_system("F4", 4) is F4
    # Weyl elements compare by type, rank and key, not by system object
    w = from_word(F4, (1, 2))
    assert from_word(twin, (1, 2)) == w and hash(from_word(twin, (1, 2))) == hash(w)


def test_weyl_elements_compare_by_key_alone():
    e = identity(F4)
    relabelled = WeylElement(F4, (1, 1), e.canonical_key)
    assert relabelled == e and not relabelled != e
    assert hash(relabelled) == hash(e)
    assert relabelled != from_word(F4, (1,))


def test_cli_import_loads_no_heavy_stdlib_modules():
    # -S: site hooks (.pth files) of some environments import modules of
    # their own, and this pins what roofcalc itself loads
    src = Path(roofcalc.__file__).resolve().parents[1]
    # argparse, gettext and locale are left for help and usage errors: a
    # plain command line does not load them either
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import roofcalc.cli\n"
        "heavy = {'dataclasses', 'inspect', 'fractions', 'decimal', 'argparse',"
        " 'gettext', 'locale'}\n"
        "print(' '.join(sorted(heavy & set(sys.modules))))\n"
        "roofcalc.cli.main(['rep', 'dim', 'G2', '2', '--weight', '1,0'])\n"
        "print(' '.join(sorted(heavy & set(sys.modules))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(src)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.splitlines() == ["", "14", ""]


def test_public_names_match_all():
    bound = sorted(
        name
        for name, value in vars(roofcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert sorted(roofcalc.__all__) == bound
    assert all(hasattr(roofcalc, name) for name in roofcalc.__all__)
    # the test-only references live in tests/oracles.py
    for name in ("BundleCohomology", "bundle_cohomology", "dot_action", "inversions"):
        with pytest.raises(ImportError):
            exec(f"from roofcalc import {name}", {})


def _annotation_names(node):
    """Names an annotation reads, inside quoted forward references too."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def _library_modules():
    """(file name, syntax tree) of each src/roofcalc module."""
    for path in sorted(Path(roofcalc.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_library_modules_use_every_name_they_import():
    unused = []
    for name, tree in _library_modules():
        if name == "__init__.py":  # its imports are the re-exports
            continue
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
                used.update(_annotation_names(node.annotation))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                used.update(_annotation_names(node.returns))
        unused += [f"{name}:{line} {alias}" for alias, line in imported.items()
                   if alias not in used]
    assert unused == []


def test_library_reads_every_private_name_its_modules_define():
    # a module-level _name (function, class or assignment) that no module
    # reads, as a name, an attribute or an import, is dead code
    defined, read = [], set()
    for name, tree in _library_modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                lhs = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [sub.id for target in lhs
                           for sub in ast.walk(target) if isinstance(sub, ast.Name)]
            else:
                continue
            for target in targets:
                if target.startswith("_") and not target.startswith("__"):
                    defined.append((target, f"{name}:{node.lineno} {target}"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
                read.update(_annotation_names(node.annotation))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
                read.update(_annotation_names(node.returns))
    assert len(defined) >= 40
    assert [where for target, where in defined if target not in read] == []
