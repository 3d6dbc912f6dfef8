"""One workload run in a fresh interpreter; started by run.py, not by hand.

Reads {"ops": [...], "trace": bool} as JSON on stdin and runs each op
through roofcalc.cli.main with stdout captured.  For every op it writes
a JSON header line {code, wall, cpu, bytes, err} followed by the op's
raw stdout bytes; it ends with one JSON line {ready, maxrss_kib,
calibration_s, trace}, where calibration_s is the mean time of a fixed
reference loop run before the first op, after the last, and whenever
CALIBRATE_EVERY_S of op time has passed.
`ready` is CLOCK_MONOTONIC right after `import roofcalc.cli`, so the
parent, which reads the same clock before spawning, gets the set-up time.
"""

import sys
import time

try:
    import roofcalc.cli as cli
except ImportError as exc:
    print(f"cannot import roofcalc: {exc}", file=sys.stderr)
    sys.exit(2)
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402  (after the timed import on purpose)
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


CALIBRATE_EVERY_S = 0.25  # op time between two calibration samples


def calibrate() -> float:
    """Seconds for a fixed pure-Python Weyl-orbit enumeration that uses no roofcalc code.

    Timed between ops with the garbage collector off (so the program's heap
    does not enter it), it samples how fast the machine runs at that moment.
    """
    n = 5
    cols = [tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for i in range(n)) for j in range(n)]
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(2):
            seen = {(1,) * n}
            frontier = list(seen)
            while frontier:
                nxt = []
                for mu in frontier:
                    for i in range(n):
                        c = mu[i]
                        if c:
                            image = tuple(m - c * a for m, a in zip(mu, cols[i]))
                            if image not in seen:
                                seen.add(image)
                                nxt.append(image)
                frontier = nxt
        return time.perf_counter() - start
    finally:
        gc.enable()


def main() -> None:
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = sys.stdout.buffer
    samples = []
    since = CALIBRATE_EVERY_S
    for argv in request["ops"]:
        if since >= CALIBRATE_EVERY_S:
            samples.append(calibrate())
            since = 0.0
        buf, err = io.StringIO(), io.StringIO()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failed op, reported to the parent
            code = f"raised {exc!r}"
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        since += wall
        text = buf.getvalue().encode()
        if tracer is not None:
            tracer.stats["cli.output_bytes"] += len(text)
        header = {"code": code, "wall": wall, "cpu": cpu, "bytes": len(text), "err": err.getvalue()[-400:]}
        out.write(json.dumps(header).encode() + b"\n")
        out.write(text)
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples.append(calibrate())
    final = {
        "ready": READY,
        "maxrss_kib": maxrss_kib,
        "calibration_s": sum(samples) / len(samples),
        "trace": dict(tracer.stats) if tracer is not None else None,
    }
    out.write(json.dumps(final).encode() + b"\n")
    out.flush()


if __name__ == "__main__":
    main()
