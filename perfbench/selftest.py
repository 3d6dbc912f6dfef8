"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Runs every workload at its smallest size (--size small), untraced and
   traced, and asserts that the last line names every metric of
   BENCHMARK.json with its unit, that the human-readable lines print every
   end-to-end metric and fail_ratio, and that nothing fails.
2. Plants wrong answers (a class polynomial with one coefficient bumped,
   a changed byte in a later run, a wrong exit code) and asserts that
   each counts as a failed op.
3. Runs the benchmark in a directory holding only BENCHMARK.json and
   perfbench/, and asserts that it exits non-zero without a result.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import checks
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if cwd == run.ROOT:
        cmd += ["--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics() -> None:
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(run.ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (w["name"], kind, set(got) ^ set(want))
            for name in list(want) + ["fail_ratio"]:
                assert any(line.startswith(name + " ") for line in lines[:-1]), (w["name"], name)
            print(f"ok   {w['name']} --trace {trace}: {len(got)} metrics, {result['attempted']} ops")


def _tamper(record: dict, text: bytes) -> dict:
    return dict(record, text=text, sha256=hashlib.sha256(text).hexdigest())


def check_planted_answers() -> None:
    ops = [workloads.quotient("F4", 4, (2,)), workloads.verify("C", 2), workloads.quotient("A", 5, (2, 4))]
    good = run.spawn(ops, False, True, run.DEADLINE_S)
    again = run.spawn(ops, False, True, run.DEADLINE_S)
    clean = run.score(ops, [good, again], {})
    assert clean["failed"] == 0, clean["reasons"]

    out = json.loads(good["records"][0]["text"])
    out["coefficients"][3] += 1
    bumped = _tamper(good["records"][0], json.dumps(out, indent=2, sort_keys=True).encode())
    assert checks.check(ops[0], 0, bumped["text"]) is not None
    planted = dict(good, records=[bumped] + good["records"][1:])
    result = run.score(ops, [planted, again], {})
    assert result["failed"] == 2 and set(result["reasons"]) == {0}, result  # that op, in both runs
    print("ok   a class with one coefficient bumped counts as failed:", result["reasons"][0][:60])

    flipped = _tamper(again["records"][2], again["records"][2]["text"].replace(b"1", b"2", 1))
    result = run.score(ops, [good, dict(again, records=again["records"][:2] + [flipped])], {})
    assert result["failed"] == 1, result
    print("ok   a run whose output bytes differ from the first run counts as failed")

    wrong_code = dict(good["records"][1], code=1)
    result = run.score(ops, [dict(good, records=[good["records"][0], wrong_code, good["records"][2]])], {})
    assert result["failed"] == 1, result
    print("ok   roof verify with the wrong exit code counts as failed:", result["reasons"][1][:60])

    digests = {" ".join(ops[2]): "0" * 64}
    result = run.score(ops, [good], digests)
    assert result["failed"] == 1, result
    print("ok   an output that differs from digests.json counts as failed")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
        print("ok   without src/ the benchmark exits", proc.returncode, "and prints no result")


if __name__ == "__main__":
    check_metrics()
    check_planted_answers()
    check_bare_directory()
    print("selftest passed")
