"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Each test drives the public surface (CLI or library), checks the frozen
expected values exactly, and enforces the stated wall-clock budget.
The PASS/FAIL line prints straight to the terminal even under capture.
"""

import json
import time
from contextlib import contextmanager
from math import comb, factorial

from roofcalc import (
    SINGLE,
    VANISHES,
    build_root_system,
    bwb,
    dual_highest_weight,
    exterior_power,
    igr_point_count,
    make_weight,
    orbit,
    parabolic,
    reflect,
    verify_roof,
    weight_multiset,
    weyl_dimension,
    weyl_group_order,
)
from roofcalc.cli import main

from property_suites import ALL_SUITES


@contextmanager
def criterion(capsys, label, budget=None):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if budget is not None:
            assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {label}")
        raise
    with capsys.disabled():
        print(f"PASS {label} ({elapsed:.2f}s)")


def run_cli_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


F4_BASE_COEFFS = [1, 1, 2, 3, 4, 5, 6, 7, 7, 8, 8, 8, 7, 7, 6, 5, 4, 3, 2, 1, 1]


def test_criterion_1_f4_base_classes(capsys):
    with criterion(capsys, "criterion 1: F4 base classes", budget=10):
        for node in ("2", "3"):
            code, payload = run_cli_json(
                capsys, "class", "quotient", "F4", "4", "--cross", node
            )
            assert code == 0
            assert payload["coefficients"] == F4_BASE_COEFFS
            assert sum(payload["coefficients"]) == 96
            code = main(["class", "quotient", "F4", "4", "--cross", node])
            text = capsys.readouterr().out
            assert code == 0
            assert text.strip() == payload["rendered"]


def test_criterion_2_f4_roof(capsys):
    with criterion(capsys, "criterion 2: F4 roof verification", budget=30):
        code, payload = run_cli_json(capsys, "roof", "verify", "F4")
        assert code == 0
        assert payload["classes_equal"] is True
        assert (payload["h0_z1"], payload["h0_z2"]) == (1274, 273)
        assert payload["certificate"] == "L^2([Z1]-[Z2]) = 0"
        assert payload["distinctness"] is True


def test_criterion_3_c_family_r2(capsys):
    with criterion(capsys, "criterion 3: C-family roof at r=2", budget=60):
        code, payload = run_cli_json(capsys, "roof", "verify", "C", "--r", "2")
        assert code == 0
        assert payload["classes_equal"] is True
        assert payload["igr_backend_agrees"] is True
        for side in ("first_page_z1", "first_page_z2"):
            assert all(p == 0 for p, _, _ in payload[side])
        h0 = (payload["h0_z1"], payload["h0_z2"])
        assert h0 == (110, 165)
        assert h0 == (
            comb(10, 3) - comb(10, 1),
            comb(10, 4) - comb(10, 2),
        )
        assert payload["certificate"] == "L^3([Z1]-[Z2]) = 0"


def test_criterion_4_c_family_r3(capsys):
    with criterion(capsys, "criterion 4: C-family roof at r=3", budget=300):
        rep = verify_roof("C", 3)
        assert rep.classes_equal
        cosets1 = sum(rep.class_f1.coeffs)
        cosets2 = sum(rep.class_f2.coeffs)
        assert cosets1 == cosets2 == 1792
        c8 = build_root_system("C", 8)
        levi5 = factorial(5) * weyl_group_order(build_root_system("C", 3))
        levi6 = factorial(6) * weyl_group_order(build_root_system("C", 2))
        assert cosets1 * levi5 == weyl_group_order(c8)
        assert cosets2 * levi6 == weyl_group_order(c8)
        for q in (2, 3, 5):
            assert igr_point_count(5, 8, q) == igr_point_count(6, 8, q)
            assert rep.class_f1(q) == igr_point_count(5, 8, q)
        for side in (rep.koszul_z1, rep.koszul_z2):
            assert all(p == 0 for p, _, _ in side.first_page)
        h0 = (rep.h0_z1, rep.h0_z2)
        assert h0 == (3808, 6188)
        assert h0 == (
            comb(16, 5) - comb(16, 3),
            comb(16, 6) - comb(16, 4),
        )
        omega5 = make_weight(c8, (0, 0, 0, 0, 1, 0, 0, 0))
        omega6 = make_weight(c8, (0, 0, 0, 0, 0, 1, 0, 0))
        G = parabolic(c8, ())
        assert h0 == (weyl_dimension(G, omega5), weyl_dimension(G, omega6))


def test_criterion_5_property_suites(capsys):
    for name, runner, threshold in ALL_SUITES:
        with criterion(capsys, f"criterion 5: property suite {name}"):
            cases = runner()
            assert cases >= threshold, (name, cases, threshold)


def test_criterion_6_f4_regression_vectors(capsys):
    with criterion(capsys, "criterion 6: F4 regression vectors", budget=5):
        f4 = build_root_system("F4", 4)
        w = lambda *coords: make_weight(f4, coords)
        assert reflect(f4, w(1, 0, 0, 0), 1) == w(-1, 1, 0, 0)
        assert reflect(f4, w(0, 1, 0, 0), 2) == w(1, -1, 2, 0)
        assert reflect(f4, w(0, 0, 1, 0), 3) == w(0, 1, -1, 1)
        assert reflect(f4, w(0, 0, 0, 1), 4) == w(0, 0, 1, -1)

        P1 = parabolic(f4, (2,))
        dual = dual_highest_weight(w(0, 1, 1, 0), P1)
        assert dual == w(0, -2, 0, 1)

        assert set(orbit(dual, P1)) == {
            w(0, -2, 0, 1),
            w(0, -2, 1, -1),
            w(0, -1, -1, 0),
        }

        dual_ms = weight_multiset(P1, dual)
        square = exterior_power(dual_ms, 2)
        assert dict(square.counts) == {
            w(0, -4, 1, 0): 1,
            w(0, -3, -1, 1): 1,
            w(0, -3, 0, -1): 1,
        }
        cube = exterior_power(dual_ms, 3)
        assert dict(cube.counts) == {w(0, -5, 0, 0): 1}

        assert bwb(P1, w(0, -4, 0, 0)).status == VANISHES
        assert bwb(P1, w(0, 1, 0, 0)).status == SINGLE
