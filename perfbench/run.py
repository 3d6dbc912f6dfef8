"""roofcalc benchmark driver (stdlib only).

    python3 perfbench/run.py --workload koszul|bruhat|lookups --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src.  The seed generates the op list (see workloads.py); the program
sees only the generated command lines.  Each run of the op list happens
in a fresh interpreter (child.py), one at a time, as a closed loop with
one client, because roofcalc interns root systems and caches Levi data
and Freudenthal multiplicities per process, so a second pass in the same
interpreter would time warm caches.  Runs repeat while the next one is
expected to end within S seconds (at least three), and each metric is
the median over runs.  Times are scaled to a fixed machine speed with a
reference loop timed inside each run (see CALIBRATION_NOMINAL_S); the
raw times are printed beside them.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced runs and reports the per-layer metrics, including the tracing
overhead (traced over untraced wall_s).  Every op's output is checked by
checks.py on the first run and must be byte-identical on every other
run and, where recorded, to digests.json.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
MIN_RUNS = 3
HARD_LIMIT_S = 150.0  # start no run after this, and
DEADLINE_S = 170.0  # kill a run still going then, so the benchmark ends within 180 s
# Shared hosts change speed by 30% and more over minutes, for every
# process alike.  Each run therefore times a fixed reference loop between
# its ops (child.calibrate), and the time metrics are scaled to the speed
# at which that loop takes this many seconds; raw times are printed too.
CALIBRATION_NOMINAL_S = 0.01

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "rootsys.build_root_system.calls": "count",
    "rootsys.build_root_system.s": "s",
    "rootsys.roots_built": "count",
    "weyl.coset_lengths.s": "s",
    "weyl.coset_lengths.cosets": "count",
    "weyl.minimal_coset_reps.s": "s",
    "weyl.minimal_coset_reps.cosets": "count",
    "weyl.orbit.calls": "count",
    "weyl.orbit.s": "s",
    "weyl.orbit.points": "count",
    "motive.class_of_quotient.calls": "count",
    "motive.class_of_quotient.self_s": "s",
    "motive.igr_class.s": "s",
    "motive.igr_point_count.s": "s",
    "reps.weight_multiset.calls": "count",
    "reps.weight_multiset.self_s": "s",
    "reps.weight_multiset.weights": "count",
    "reps.exterior_power.calls": "count",
    "reps.exterior_power.s": "s",
    "reps.exterior_power.weights": "count",
    "reps.exterior_power.distinct": "count",
    "reps.decompose_levi.self_s": "s",
    "reps.decompose_levi.irreps": "count",
    "reps.weyl_dimension.calls": "count",
    "reps.weyl_dimension.s": "s",
    "bwb.bwb.calls": "count",
    "bwb.bwb.s": "s",
    "bwb.single_ratio": "ratio",
    "roofs.verify_roof.self_s": "s",
    "roofs.koszul_zero_locus_cohomology.self_s": "s",
    "roofs.first_page_cells": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# per-layer metrics whose tracer stat has another name
STAT_KEY = {
    "rootsys.roots_built": "rootsys.build_root_system.roots",
    "roofs.first_page_cells": "roofs.koszul_zero_locus_cohomology.first_page_cells",
}

# layer shares of traced op time that the workloads are designed around
SHARES = {
    "koszul": ("reps + weyl.orbit", ["reps.weight_multiset", "reps.exterior_power", "reps.decompose_levi", "reps.weyl_dimension", "weyl.orbit"]),
    "bruhat": ("weyl.coset_lengths + weyl.minimal_coset_reps", ["weyl.coset_lengths", "weyl.minimal_coset_reps"]),
    "lookups": ("rootsys.build_root_system", ["rootsys.build_root_system"]),
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("ROOFCALC_CAP", None)  # the default cap applies
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(ops: List[workloads.Op], trace: bool, keep_text: bool, timeout: float) -> dict:
    """One fresh-interpreter run of the op list; returns per-op records and run metrics."""
    request = json.dumps({"ops": ops, "trace": trace}).encode()
    start = _monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        out, err = proc.communicate(request, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"trace": trace, "error": f"run exceeded {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"trace": trace, "error": f"exit {proc.returncode}: {err.decode(errors='replace')[-400:]}"}
    records = []
    pos = 0
    for _ in ops:
        nl = out.index(b"\n", pos)
        head = json.loads(out[pos:nl])
        text = out[nl + 1 : nl + 1 + head["bytes"]]
        pos = nl + 1 + head["bytes"]
        head["sha256"] = hashlib.sha256(text).hexdigest()
        if keep_text:
            head["text"] = text
        records.append(head)
    final = json.loads(out[pos:])
    return {
        "trace": trace,
        "records": records,
        "stats": final["trace"],
        "setup_s": final["ready"] - start,
        "wall_s": sum(r["wall"] for r in records),
        "cpu_s": sum(r["cpu"] for r in records),
        "slowest_op_s": max((r["wall"] for r in records), default=0.0),
        "peak_rss_mib": final["maxrss_kib"] / 1024,
        "calibration_s": final["calibration_s"],
    }


def load_digests() -> Dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    table = json.loads(DIGESTS.read_text())
    return {op: sha for ops in table["ops"].values() for op, sha in ops.items()}


def score(ops: List[workloads.Op], runs: List[dict], digests: Dict[str, str]) -> Dict[str, object]:
    """Check every run's outputs; returns attempted, failed and one reason per bad op.

    The first complete run is checked against checks.py and digests.json.
    Every other run must repeat its exit codes and output bytes exactly.
    """
    ref = next((r for r in runs if "error" not in r), None)
    bad: Dict[int, str] = {}
    if ref is not None:
        for i, (op, rec) in enumerate(zip(ops, ref["records"])):
            reason = checks.check(op, rec["code"], rec["text"])
            want = digests.get(" ".join(op))
            if reason is None and want is not None and want != rec["sha256"]:
                reason = "output differs from the recorded digest"
            if reason is not None:
                bad[i] = reason
    attempted = failed = 0
    for run in runs:
        attempted += len(ops)
        if "error" in run or ref is None:
            failed += len(ops)
            continue
        for i, (mine, first) in enumerate(zip(run["records"], ref["records"])):
            if i in bad or (mine["code"], mine["sha256"]) != (first["code"], first["sha256"]):
                failed += 1
    return {"attempted": attempted, "failed": failed, "reasons": bad, "ref": ref}


def scaled(run: dict, seconds: float) -> float:
    """A time of `run` rescaled to the machine speed at which the calibration loop takes CALIBRATION_NOMINAL_S."""
    return seconds * CALIBRATION_NOMINAL_S / run["calibration_s"]


def run_digest(ops: List[workloads.Op], ref: Optional[dict]) -> Optional[str]:
    if ref is None:
        return None
    lines = "".join(f"{' '.join(op)} {rec['sha256']}\n" for op, rec in zip(ops, ref["records"]))
    return hashlib.sha256(lines.encode()).hexdigest()


def layer_metrics(stats: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced run (trace.overhead_ratio is added by the caller)."""
    out = {name: stats.get(STAT_KEY.get(name, name), 0.0) for name in PER_LAYER}
    calls = stats.get("bwb.bwb.calls", 0.0)
    out["bwb.single_ratio"] = stats.get("bwb.bwb.single", 0.0) / calls if calls else 0.0
    return out


def unit(name: str) -> str:
    return END_TO_END.get(name) or PER_LAYER[name]


def measure(workload: str, seed: int, seconds: int, trace: bool, small: bool) -> int:
    begin = _monotonic()
    if not (SRC / "roofcalc" / "cli.py").is_file():
        print(f"no roofcalc sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    ops = workloads.generate(workload, seed, small)
    warm = spawn([], False, False, DEADLINE_S)  # fills bytecode caches; checks the import
    if "error" in warm:
        print(f"roofcalc cannot be started from {SRC}: {warm['error']}", file=sys.stderr)
        return 2
    runs: List[dict] = []
    durations: List[float] = []
    while True:
        n_plain = sum(1 for r in runs if not r["trace"])
        n_traced = len(runs) - n_plain
        enough = n_plain >= MIN_RUNS and (not trace or n_traced >= MIN_RUNS)
        elapsed = _monotonic() - begin
        # stop before a run that would end past --seconds
        if enough and elapsed + statistics.median(durations) > seconds:
            break
        if durations and elapsed + max(durations) > HARD_LIMIT_S:
            break
        traced = trace and n_traced < n_plain
        t0 = _monotonic()
        runs.append(spawn(ops, traced, not runs, DEADLINE_S - (t0 - begin)))
        durations.append(_monotonic() - t0)
        if "error" in runs[-1]:
            break
    result = score(ops, runs, load_digests())
    plain = [r for r in runs if not r["trace"] and "error" not in r]
    traced_runs = [r for r in runs if r["trace"] and "error" not in r]
    if not plain or (trace and not traced_runs):
        error = next((r["error"] for r in runs if "error" in r), "no complete run")
        print(f"no complete run of workload {workload}: {error}", file=sys.stderr)
        return 1

    raw = {name: [r[name] for r in plain] for name in END_TO_END}
    e2e = {name: statistics.median(scaled(r, r[name]) for r in plain) for name in ("setup_s", "wall_s", "cpu_s")}
    # the op that is slowest by its median over runs: a per-run maximum would
    # pick whichever of several similar ops the machine's noise slowed most
    e2e["slowest_op_s"] = max(
        statistics.median(scaled(r, r["records"][i]["wall"]) for r in plain) for i in range(len(ops))
    )
    e2e["peak_rss_mib"] = statistics.median(raw["peak_rss_mib"])
    calibration = [r["calibration_s"] for r in plain]
    print(f"# workload {workload}, seed {seed}, {len(ops)} ops per run; closed loop, 1 client, "
          f"a fresh interpreter per run; {len(plain)} untraced + {len(traced_runs)} traced runs")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, {platform.machine()}")
    print("# plan: " + ", ".join(f"{k} {v}" for k, v in workloads.plan(ops).items()))
    print(f"# calibration loop: median {statistics.median(calibration):.6g} s per run "
          f"(min {min(calibration):.6g}, max {max(calibration):.6g}); times below are scaled "
          f"to {CALIBRATION_NOMINAL_S} s, raw medians in brackets")
    for name in END_TO_END:
        value, values = e2e[name], raw[name]
        print(f"{name:<14} median {value:.6g} {unit(name)}  [raw {statistics.median(values):.6g}] "
              f"(n={len(values)} runs; raw per run min {min(values):.6g}, max {max(values):.6g})")
        print(f"#   {name} raw per run: " + " ".join(f"{v:.4g}" for v in values))
    ratio = result["failed"] / result["attempted"]
    print(f"{'fail_ratio':<14} {ratio:.6g} ratio  ({result['failed']} of {result['attempted']} ops, n={len(runs)} runs)")
    for i, reason in sorted(result["reasons"].items()):
        print(f"# FAILED {' '.join(ops[i])}: {reason}")
    print(f"# run digest (sha256 over every op's JSON stdout): {run_digest(ops, result['ref'])}")

    metrics = {name: {"value": value, "unit": unit(name)} for name, value in e2e.items()}
    if trace:
        per_run = [layer_metrics(r["stats"]) for r in traced_runs]
        layers = {name: statistics.median(m[name] for m in per_run) for name in PER_LAYER}
        traced_wall = statistics.median(scaled(r, r["wall_s"]) for r in traced_runs)
        layers["trace.overhead_ratio"] = traced_wall / e2e["wall_s"]
        for name, value in layers.items():
            print(f"{name:<42} {value:.6g} {unit(name)}")
        label, parts = SHARES[workload]
        stats = traced_runs[0]["stats"]
        share = sum(stats.get(p + ".self_s", 0.0) for p in parts) / stats["cli.main.s"]
        print(f"# share of traced op time in {label}: {share:.1%}")
        metrics = {name: {"value": value, "unit": unit(name)} for name, value in layers.items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the self-test's reduced op lists")
    args = parser.parse_args(argv)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.size == "small")


if __name__ == "__main__":
    sys.exit(main())
