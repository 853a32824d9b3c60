"""End-to-end benchmark of the rmtorus CLI.

Usage, from the root of the repository:

    python3 rmbench/run.py --workload match-sweep [--seed 1] [--seconds 36] [--trace 0]

One client in a closed loop calls rmtorus.cli.main(argv) in this process,
with stdout captured, until --seconds have passed, always finishing the
round of requests it is in.  Every output is then checked against an
independent computation (oracles.py); a wrong answer exits 1 without a
result.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 the same inputs run with spans around
each layer's public functions and the per-layer metrics are reported.
Result files and span dumps go to rmbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "rmbench_out"
SETUP_SAMPLES = 11
MEASURED_BACKEND = "python"

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def measure_setup() -> float:
    """Median time to import rmtorus.cli in a fresh interpreter: what every
    CLI invocation pays before it does any work.  One unmeasured import first
    writes the bytecode cache, as a user's first invocation would."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import rmtorus.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if done.returncode != 0:
            raise SystemExit(f"importing rmtorus failed:\n{done.stderr}")
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def call(main, argv) -> tuple[int, str, str, float]:
    """One request.  An exception escaping main (a traceback for a user)
    ends the run without a result."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_loop(workload, main, seconds: float, tracer: Tracer | None):
    """Closed loop over whole rounds; returns (records, wall seconds)."""
    records = []
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds:
        for req in workload.round(r):
            if tracer is None:
                rc, out, err, dt = call(main, req.argv)
            else:
                span = tracer.begin_request(req.kind)
                rc, out, err, dt = call(main, req.argv)
                tracer.end_request(span)
            records.append((req, rc, out, err, dt))
        r += 1
    return records, time.perf_counter() - start


def check_all(records) -> int:
    """Checks every output; returns the number of failed requests, which may
    only be the known digit-limit fault.  Runs after the program's last
    call, so it may lift the int-to-str digit limit."""
    sys.set_int_max_str_digits(0)
    seen = set()
    failed = 0
    for req, rc, out, err, _ in records:
        if rc != 0:
            if not (req.digit_limit_fault and rc == 2 and "Exceeds the limit (4300 digits)" in err):
                raise oracles.WrongAnswer(f"{' '.join(req.argv)}: exit {rc}: {err.strip()}")
            failed += 1
            continue
        key = (req.argv, out)
        if key not in seen:
            try:
                req.check(out)
            except (oracles.WrongAnswer, KeyError, ValueError, TypeError) as exc:
                raise oracles.WrongAnswer(f"{' '.join(req.argv)}: {exc!r}") from None
            seen.add(key)
    return failed


def percentile(sorted_values: list[float], q: float) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "rmtorus" / "cli.py").is_file():
        print(f"rmtorus sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    setup_s = measure_setup() if args.trace == 0 else None

    sys.path.insert(0, str(SRC))
    import rmtorus.cli
    import rmtorus.ecpoints

    if Path(rmtorus.cli.__file__).resolve().parent != SRC / "rmtorus":
        print(f"imported rmtorus from {rmtorus.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # rmtorus.ecpoints counts points with a compiled kernel when one has been
    # built in place (it is not tracked); the bounds and the figures in
    # README.md were measured on the pure-Python one.
    backend = rmtorus.ecpoints.BACKEND
    if backend != MEASURED_BACKEND:
        print(f"point-count backend is {backend!r}, not {MEASURED_BACKEND!r}: "
              "these figures do not compare with README.md", file=sys.stderr)

    workload = WORKLOADS[args.workload](args.seed, OUT / "work")
    for req in workload.round(0)[:3]:  # warm-up, untimed
        call(rmtorus.cli.main, req.argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    records, wall = run_loop(workload, rmtorus.cli.main, args.seconds, tracer)

    try:
        failed = check_all(records)
    except oracles.WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        return 1

    attempted = len(records)
    ok = sorted(dt * 1000 for _, rc, _, _, dt in records if rc == 0)
    if args.trace:
        metrics = tracer.metrics(attempted)
        metrics["trace.ops_per_s"] = {"value": len(ok) / wall, "unit": "ops/s"}
        tracer.dump(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(ok) / wall, "unit": "ops/s"},
            "op_p50_ms": {"value": statistics.median(ok), "unit": "ms"},
            "op_p90_ms": {"value": percentile(ok, 90), "unit": "ms"},
        }
    beyond_p90 = len(ok) - int(0.9 * len(ok))
    print(f"{args.workload} seed={args.seed} trace={args.trace} backend={backend}: {attempted} attempted, "
          f"{failed} failed, {len(ok)} completed in {wall:.2f} s ({beyond_p90} beyond p90)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
