"""Worker process of the benchmark: one workload in one mode, single
threaded.  Started by run.py; prints one JSON object on its last line.

Modes:
  setup    import symquartic, run the warm-up pass, report the set-up time
  timed    then repeat whole passes of the workload, untraced, until at
           least --seconds have passed (and at least MIN_PASSES passes)
  once     then one untraced pass
  trace    then one traced pass of the same forms as ``once``; run.py
           starts two such workers and compares them (determinism check)

Every answer is verified exactly after the timed region (see queries.py).
Latencies are reported calibrated and on the wall clock (see calibrate).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
#: Tail percentiles tried, highest first; the tail is the highest one with
#: at least TAIL_BEYOND samples above it in MIN_PASSES passes, so that it
#: does not change with the number of passes a run completes.
TAIL_LADDER = (99, 98, 95, 90, 80, 75, 50)
TAIL_BEYOND = 10

#: Latencies are reported as if the calibration kernel had taken this long
#: around every form operation (see calibrate).
CAL_NOMINAL_S = 0.001
_CAL_POLY = (Fraction(3, 7), Fraction(-5, 11), Fraction(2, 3), Fraction(-1, 13), Fraction(9, 5))


def calibrate() -> float:
    """Seconds taken by a fixed exact-arithmetic kernel that uses only the
    standard library (Horner evaluation of a rational polynomial at 50
    points, about a millisecond).

    On a 2-vCPU VM on a shared host, speed switched every few seconds
    between a fast state and one 1.5-1.8 times slower, and all code slowed
    alike; the kernel, timed before and after every form operation,
    measures which state the operation ran in.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 51):
        x, v = Fraction(k, 17), Fraction(0)
        for c in _CAL_POLY:
            v = v * x + c
        acc += v
    return time.perf_counter() - t0


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import symquartic

    if Path(symquartic.__file__).resolve().parent != (src / "symquartic").resolve():
        raise SystemExit(f"symquartic imported from {symquartic.__file__}, not {src}")


def tail_percentile(n: int) -> int:
    for q in TAIL_LADDER:
        if n - math.ceil(q * n / 100) >= TAIL_BEYOND:
            return q
    return TAIL_LADDER[-1]


def percentile(sorted_values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    idx = max(0, math.ceil(q * len(sorted_values) / 100) - 1)
    return sorted_values[idx]


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_pass(queries, workload, items, deadline=None, scale=1, after_each=None):
    """Closed loop, one client: each form's queries, then the next form.

    Returns the records, the wall latencies and the calibrated latencies:
    each wall latency times CAL_NOMINAL_S over the median of the six
    calibration times nearest the operation, three before and three after
    (a single kernel run can catch an interrupt; the machine's state lasts
    seconds).
    """
    recs, lat = [], []
    cal = [calibrate()]
    for item in items:
        t0 = time.perf_counter()
        rec = queries.run(workload, item, scale)
        lat.append(time.perf_counter() - t0)
        if after_each is not None:
            after_each()
        cal.append(calibrate())
        recs.append(rec)
        if deadline is not None and time.perf_counter() > deadline:
            break
    cal_lat = [
        dt * CAL_NOMINAL_S / statistics.median(cal[max(0, i - 2) : i + 4])
        for i, dt in enumerate(lat)
    ]
    return recs, lat, cal_lat


def verify_pass(queries, workload, recs) -> None:
    for rec in recs:
        rec.problems.extend(queries.verify(rec))
    if workload == "finite_scan":
        queries.verify_groups(recs)


def mix(recs, reach=None) -> dict:
    """Input-mix shares of one pass: verdict shares per query, and (traced
    passes) the share of forms that reach the algebraic-number paths."""
    ok = [r for r in recs if r.error is None]
    out = {}

    def share(sel, of):
        of = list(of)
        return sum(1 for r in of if sel(r)) / len(of) if of else 0.0

    out["mix.nonneg_in_frac"] = share(lambda r: r.nonneg.status == "IN", ok)
    with_sos = [r for r in ok if r.sos is not None]
    out["mix.sos_in_frac"] = share(lambda r: r.sos.status == "IN", with_sos)
    out["mix.sos_irrational_note_frac"] = share(lambda r: r.sos.note is not None, with_sos)
    sos_out = [r for r in with_sos if r.sos.status == "OUT"]
    out["mix.sos_out_nonneg_in_frac"] = share(lambda r: r.nonneg.status == "IN", sos_out)
    with_bd = [r for r in ok if r.boundary is not None]
    out["mix.boundary_frac"] = share(lambda r: r.boundary.status == "BOUNDARY", with_bd)
    with_sp = [r for r in ok if r.strictly_positive is not None]
    out["mix.strictly_positive_frac"] = share(lambda r: r.strictly_positive, with_sp)
    if reach is not None:
        out["mix.irreducible_factors_frac"] = sum(1 for a, _ in reach if a) / len(reach)
        out["mix.algebraic_sign_frac"] = sum(1 for _, b in reach if b) / len(reach)
    return out


def summarize(recs) -> dict:
    failed = [r for r in recs if r.error is not None or r.problems]
    sos_out = [r for r in recs if r.error is None and r.sos is not None and r.sos.status == "OUT"]
    return {
        "attempted": len(recs),
        "failed": len(failed),
        "problems": [
            f"{r.item.family} n={r.item.n} {r.item.coeffs}: {r.error or r.problems}"
            for r in failed[:5]
        ],
        "sos_out": len(sos_out),
        "separators_verified": sum(1 for r in sos_out if r.separator is not None and not r.problems),
    }


def traced_pass(queries, tracer_mod, workload, items):
    tr = tracer_mod.Tracer()
    reach = []
    seen = [0, 0]

    def note_reach():
        now = [tr.calls["algebra.irreducible_factors"],
               tr.calls["algebra.AlgebraicField.sign_of_poly"]]
        reach.append((now[0] > seen[0], now[1] > seen[1]))
        seen[:] = now

    with tr:
        recs, _, cal_lat = run_pass(queries, workload, items, None, 1, note_reach)
        tr.enabled = False
        verify_pass(queries, workload, recs)
    layers = {}
    for name in tracer_mod.traced_names():
        layers[f"{name}.calls"] = tr.calls[name]
        layers[f"{name}.self_ms"] = tr.self_ns[name] / 1e6
    for name in tracer_mod.ENTRY_POINTS:
        calls = tr.calls[name]
        layers[f"{name}.ms_per_call"] = tr.total_ns[name] / 1e6 / calls if calls else 0.0
    counts = dict(tr.counts)
    seps = counts.pop("sos.find_separating_functional.found")
    calls = tr.calls["sos.find_separating_functional"]
    counts["sos.find_separating_functional.found_frac"] = seps / calls if calls else 0.0
    return recs, len(recs) / sum(cal_lat), layers, counts, mix(recs, reach)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "once", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    args = ap.parse_args(argv)

    _import_library()
    import queries
    import tracer as tracer_mod
    import workloads

    queries.arm_deadlines()
    warm = [queries.run(args.workload, it) for it in workloads.warmup_items(args.workload)]
    example = workloads.Item("warmup", workloads.EXAMPLE_6_10, None, 0)
    boundary = queries.positivity.boundary_status_limit(queries.make_form(example))
    verify_pass(queries, args.workload, warm)
    setup_s = time.monotonic() - args.spawned
    bad = [r.error or r.problems for r in warm if r.error or r.problems]
    if bad or boundary.status != "BOUNDARY":
        print(f"warm-up pass failed: {bad or boundary}", file=sys.stderr)
        return 1
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    items = workloads.PASSES[args.workload](args.seed)
    result["pass_forms"] = len(items)
    if args.mode == "trace":
        recs, traced_rate, layers, counts, shares = traced_pass(
            queries, tracer_mod, args.workload, items
        )
        result.update(summarize(recs))
        result["status_digest"] = digest(r.statuses() for r in recs)
        result["traced_forms_per_s"] = traced_rate
        result["layers"] = layers
        result["counts"] = counts
        result["mix"] = shares
        print(json.dumps(result))
        return 0

    # one pass in once mode; whole passes until --seconds otherwise, with a
    # hard stop far beyond the normal run length
    passes, lats, cal_lats = [], [], []
    rss_mb = None
    t_start = time.perf_counter()
    hard_stop = t_start + 3 * args.seconds + 60
    while True:
        # pass k runs every form multiplied by k, so that no pass repeats an
        # input of an earlier one (a result cache cannot serve it)
        recs, lat, cal_lat = run_pass(queries, args.workload, items, hard_stop, len(passes) + 1)
        passes.append(recs)
        lats.extend(lat)
        cal_lats.extend(cal_lat)
        elapsed = time.perf_counter() - t_start
        if len(passes) == MIN_PASSES:
            # read here, not at the end: later passes keep their records
            # too, and how many there are depends on the library's speed
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.mode == "once" or time.perf_counter() > hard_stop:
            break
        if len(passes) >= MIN_PASSES and elapsed >= args.seconds:
            break
    if rss_mb is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    q = tail_percentile(len(items) * MIN_PASSES)
    lats.sort()
    cal_lats.sort()
    result.update(
        forms_per_s=len(cal_lats) / sum(cal_lats),
        p50_ms=1000 * statistics.median(cal_lats),
        tail_ms=1000 * percentile(cal_lats, q),
        wall_forms_per_s=len(lats) / elapsed,
        wall_p50_ms=1000 * statistics.median(lats),
        wall_tail_ms=1000 * percentile(lats, q),
        elapsed_s=elapsed,
        passes=len(passes),
        tail_pct=q,
        samples=len(lats),
        beyond=len(lats) - math.ceil(q * len(lats) / 100),
        peak_rss_mb=rss_mb,
    )
    all_recs = []
    for recs in passes:
        verify_pass(queries, args.workload, recs)
        all_recs.extend(recs)
    first = passes[0]
    for recs in passes[1:]:
        for a, b in zip(first, recs):
            if a.statuses() != b.statuses():
                b.problems.append("status differs from the first pass")
    result.update(summarize(all_recs))
    result["status_digest"] = digest(r.statuses() for r in first)
    result["evidence_digest"] = digest(r.evidence() for r in first)
    result["mix"] = mix(first)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
