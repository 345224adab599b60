"""symquartic benchmark: seeded workloads through the public decision entry
points, with every answer verified exactly.

    python3 bench/run.py --workload limit_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  Workloads (see workloads.py and BENCHMARK.json):

  limit_sweep  LIMIT scope: is_nonneg_limit, sos_membership_limit,
               boundary_status_limit
  finite_scan  n = 4..8: is_nonneg, sos_membership, and
               find_separating_functional on every SOS-OUT form
  large_n      n = 64..128: is_nonneg, is_strictly_positive

--trace 0 measures the end-to-end metrics: one untimed start that
brings the bytecode cache up to date, SETUP_STARTS cold starts of a worker
process (import plus warm-up pass) for setup_s, then one worker that
repeats whole passes of the workload, untraced, for --seconds.
--trace 1 measures the per-layer metrics: two workers each run one traced
pass of the same forms, and every call count and count metric must agree
between the two; a third runs the pass untraced, for the tracing overhead.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit status: 0 when
every answer verified, 1 on a failed or wrong operation, 2 when the
library is missing, 3 when the traced runs disagree (unsteady).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_STARTS = 5
#: The whole command must end within this many seconds.
BUDGET_S = 170.0
WORKLOADS = ("limit_sweep", "finite_scan", "large_n")


def spawn(args, mode: str, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--spawned", repr(spawned)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker ({mode}) did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker ({mode}) exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def check_digest(workload: str, seed: int, value: str) -> bool:
    """Compare a status digest with the one recorded for the seed, if any."""
    data = json.loads((BENCH / "baseline.json").read_text())
    want = data["status_digests"].get(workload, {}).get(str(seed))
    if want is None:
        print(f"status digest {value} (no recorded value for seed {seed})")
        return True
    verdict = "matches" if want == value else f"DIFFERS from the recorded {want}"
    print(f"status digest {value} {verdict}")
    return want == value


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    # the first start writes or refreshes the bytecode cache (__pycache__
    # under src/ and bench/); the timed starts then all read it, whatever
    # state an earlier run or a test run left it in
    priming = spawn(args, "setup", min(60.0, deadline - time.monotonic()))["setup_s"]
    setups = []
    for _ in range(SETUP_STARTS - 1):
        setups.append(spawn(args, "setup", min(60.0, deadline - time.monotonic()))["setup_s"])
    res = spawn(args, "timed", deadline - time.monotonic())
    setups.append(res["setup_s"])
    setup_s = statistics.median(setups)
    out_ops, found = res["sos_out"], res["separators_verified"]
    lines = [
        ("forms_per_s", res["forms_per_s"], "1/s",
         f"{res['samples']} form operations in {res['passes']} passes of "
         f"{res['pass_forms']}, closed loop, 1 client; wall clock "
         f"{res['wall_forms_per_s']:.4f}/s over {res['elapsed_s']:.2f} s"),
        ("form_ms.p50", res["p50_ms"], "ms", f"wall clock {res['wall_p50_ms']:.4f} ms"),
        ("form_ms.tail", res["tail_ms"], "ms",
         f"p{res['tail_pct']}, {res['beyond']} of {res['samples']} samples beyond it; "
         f"wall clock {res['wall_tail_ms']:.4f} ms"),
        ("setup_s", setup_s, "s",
         "median of cold starts " + ", ".join(f"{s:.3f}" for s in setups)
         + f" (after one that refreshed the bytecode cache, {priming:.3f})"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", "timed worker, at the end of its second pass"),
        ("failed_frac", res["failed"] / res["attempted"], "1",
         f"{res['failed']} of {res['attempted']}; not in the JSON metrics, "
         "which hold no metric that is 0 when all is well"),
    ]
    if args.workload == "finite_scan":
        lines.append((
            "separator_found_frac", found / out_ops if out_ops else 0.0, "1",
            f"{found} of {out_ops} SOS-OUT operations; not in the JSON "
            "metrics, as it is defined on finite_scan only",
        ))
    print("latencies are calibrated: each is scaled to a 1 ms run of the "
          "calibration kernel timed around it (see worker.calibrate)")
    for name, value, unit, note in lines:
        print(f"{name:>22} {value:12.4f} {unit:<4} {note}")
    metrics = {
        name: metric(value, unit)
        for name, value, unit, _ in lines
        if name not in ("failed_frac", "separator_found_frac")
    }
    return res, metrics


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    first = spawn(args, "trace", deadline - time.monotonic())
    second = spawn(args, "trace", deadline - time.monotonic())
    untraced_run = spawn(args, "once", deadline - time.monotonic())
    unsteady = [
        name for name, v in first["layers"].items()
        if name.endswith(".calls") and second["layers"][name] != v
    ]
    unsteady += [k for k, v in first["counts"].items() if second["counts"][k] != v]
    unsteady += [k for k, v in first["mix"].items() if second["mix"][k] != v]
    if len({first["status_digest"], second["status_digest"], untraced_run["status_digest"]}) > 1:
        unsteady.append("status digest")
    if unsteady:
        print("UNSTEADY: these differ between runs of the same seed: "
              + ", ".join(unsteady), file=sys.stderr)
        raise SystemExit(3)
    metrics = {}
    for name, v in first["layers"].items():
        if name.endswith(".calls"):
            metrics[name] = metric(v, "count")
        else:
            metrics[name] = metric((v + second["layers"][name]) / 2, "ms")
    units = {"degree_max": "degree", "degree_sum": "degree", "coeff_bits_max": "bits"}
    for name, v in first["counts"].items():
        metrics[name] = metric(v, units.get(name.rsplit(".", 1)[1], "1"))
    for name, v in first["mix"].items():
        metrics[name] = metric(v, "1")
    untraced = untraced_run["forms_per_s"]
    traced = (first["traced_forms_per_s"] + second["traced_forms_per_s"]) / 2
    metrics["trace.untraced_forms_per_s"] = metric(untraced, "1/s")
    metrics["trace.traced_forms_per_s"] = metric(traced, "1/s")
    metrics["trace.overhead_frac"] = metric(1 - traced / untraced, "1")
    for name, m in metrics.items():
        print(f"{name:>52} {m['value']:14.4f} {m['unit']}")
    print(f"tracing overhead: {untraced:.3f} forms/s untraced, {traced:.3f} traced "
          f"({100 * (1 - traced / untraced):.1f}% slower)")
    for other in (second, untraced_run):
        first["attempted"] += other["attempted"]
        first["failed"] += other["failed"]
        first["problems"] += other["problems"]
    return first, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "symquartic" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    if args.trace:
        res, metrics = per_layer(args, deadline)
    else:
        res, metrics = end_to_end(args, deadline)
    print("wait time: none measured; the program has no queue or lock")
    if not args.trace:
        for name, share in res["mix"].items():
            print(f"{name:>28} {share:12.4f}")
    correct = res["failed"] == 0
    for problem in res["problems"]:
        print(f"FAILED: {problem}")
    correct &= check_digest(args.workload, args.seed, res["status_digest"])
    if "evidence_digest" in res:
        print(f"evidence digest {res['evidence_digest']} (information only)")
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
