#!/usr/bin/env python3
"""CI gate over a campaign metrics.json snapshot.

Reads the snapshot written by `campaign --metrics FILE` (schema in
docs/observability.md) and fails when the campaign's efficiency
signals regress:

  * retry_rate     -- protocol retries per measured point. A jump
                      means the measurement protocol is fighting the
                      simulator (or a change made attempts invalid).
  * idle_fraction  -- fraction of pooled worker time spent waiting.
                      A jump means the executor is serializing work
                      it used to overlap.

Both are checked against absolute ceilings, and -- when --baseline
is given -- against the previous snapshot with relative slack, so a
slow drift under the ceiling still fails the gate.

With --telemetry-dir the script additionally validates every
<system>/*.telemetry.json artifact written by `campaign --telemetry`
(schema syncperf-telemetry-v1) and applies two physics gates that pin
the simulators to the paper's explanations:

  * false sharing   -- cpu.line_ping_pong must be exactly zero for
                      every strided experiment whose stride spans at
                      least one 64-byte cache line (stride x dtype
                      size >= 64): each thread then owns its line and
                      nothing can ping-pong.
  * contention      -- the mean cpu.acq_wait_ticks of the contended
                      atomic-update experiments must grow (weakly)
                      monotonically with the thread count: more
                      threads queue longer on the line's exclusive
                      service slot, never shorter.

The snapshot's deterministic-class loop_batch_* counters (steady-
state loop batching, docs/performance.md) are always validated for
internal consistency, and when a telemetry dir is given too, a third
physics gate applies: if the telemetry witnessed contention (line
ping-pongs, lock contention, CAS conflicts) while the batcher was
engaged, loop_batch_fallbacks must be nonzero -- contention perturbs
the boundary fingerprints the batcher keys on.

Exit status: 0 ok, 1 gate failed, 2 bad invocation/input.
Stdlib only; no third-party imports.
"""

import argparse
import glob
import json
import math
import os
import re
import sys

TELEMETRY_SCHEMA = "syncperf-telemetry-v1"
CACHE_LINE_BYTES = 64
DTYPE_SIZES = {"int": 4, "ull": 8, "float": 4, "double": 8}

# Strided per-thread-slot experiments subject to the false-sharing
# gate, e.g. omp_atomic_array_s8_int or omp_flush_s16_double.
STRIDED_RE = re.compile(
    r"^omp_(?:atomic_array|flush)_s(\d+)_(int|ull|float|double)\.csv$")

# Contended single-address experiments subject to the monotonic-wait
# gate.
CONTENDED_RE = re.compile(
    r"^omp_atomic_(?:update|capture)_(int|ull|float|double)\.csv$")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            snapshot = json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit(f"check_metrics: cannot read {path}: {err}")
    if not isinstance(snapshot, dict) or "timing" not in snapshot:
        sys.exit(f"check_metrics: {path} is not a metrics snapshot")
    return snapshot


def rate(snapshot, key):
    value = snapshot.get("timing", {}).get(key)
    if not isinstance(value, (int, float)):
        sys.exit(f"check_metrics: snapshot has no timing.{key}")
    return float(value)


def bucket_low(i):
    return i if i <= 1 else 1 << (i - 1)


def bucket_high(i):
    if i == 0:
        return 0
    if i >= 64:
        return (1 << 64) - 1
    return (1 << i) - 1


def validate_histogram(name, hist, errors):
    buckets = hist.get("buckets")
    if not isinstance(buckets, list):
        errors.append(f"{name}: histogram has no bucket list")
        return
    count = sum(b.get("count", 0) for b in buckets)
    total = sum(b.get("sum", 0) for b in buckets)
    if hist.get("count") != count:
        errors.append(f"{name}: count {hist.get('count')} != "
                      f"bucket total {count}")
    if hist.get("sum") != total:
        errors.append(f"{name}: sum {hist.get('sum')} != "
                      f"bucket total {total}")
    if count and not math.isclose(hist.get("mean", 0.0), total / count,
                                  rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"{name}: mean is not sum/count")
    for b in buckets:
        idx = b.get("index")
        if not isinstance(idx, int) or idx < 0 or idx > 64:
            errors.append(f"{name}: bad bucket index {idx!r}")
            continue
        lo, hi = b.get("min"), b.get("max")
        if not (bucket_low(idx) <= lo <= hi <= bucket_high(idx)):
            errors.append(f"{name}: bucket {idx} range [{lo}, {hi}] "
                          f"outside [{bucket_low(idx)}, "
                          f"{bucket_high(idx)}]")


def validate_telemetry(path, doc):
    """Schema errors of one telemetry.json document, as strings."""
    errors = []
    if doc.get("schema") != TELEMETRY_SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected "
                      f"{TELEMETRY_SCHEMA!r}")
    for key in ("experiment", "system"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            errors.append(f"missing or empty {key!r}")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        errors.append("missing or empty point list")
        points = []
    for i, point in enumerate(points):
        where = f"point {i}"
        axes = point.get("axes")
        if not isinstance(axes, dict) or not axes:
            errors.append(f"{where}: missing axes")
        elif not all(isinstance(v, int) and v > 0
                     for v in axes.values()):
            errors.append(f"{where}: non-positive axis value")
        counters = point.get("counters", {})
        if not all(isinstance(v, int) and v >= 0
                   for v in counters.values()):
            errors.append(f"{where}: negative or non-integer counter")
        for name, hist in point.get("histograms", {}).items():
            validate_histogram(f"{where}: {name}", hist, errors)
    return errors


def gate_false_sharing(experiment, doc, failures):
    match = STRIDED_RE.match(experiment)
    if not match:
        return
    stride, dtype = int(match.group(1)), match.group(2)
    if stride * DTYPE_SIZES[dtype] < CACHE_LINE_BYTES:
        return  # threads genuinely share lines: ping-pongs expected
    for point in doc.get("points", []):
        pingpongs = point.get("counters", {}).get(
            "cpu.line_ping_pong", 0)
        if pingpongs:
            failures.append(
                f"{experiment} {point.get('axes')}: stride {stride} x "
                f"{DTYPE_SIZES[dtype]} B covers a full cache line but "
                f"cpu.line_ping_pong = {pingpongs} (expected 0)")


def gate_monotonic_wait(experiment, doc, failures, slack=0.05):
    if not CONTENDED_RE.match(experiment):
        return
    series = []
    for point in doc.get("points", []):
        threads = point.get("axes", {}).get("threads")
        hist = point.get("histograms", {}).get("cpu.acq_wait_ticks")
        if threads is None or hist is None:
            continue
        series.append((threads, hist.get("mean", 0.0)))
    series.sort()
    for (t0, m0), (t1, m1) in zip(series, series[1:]):
        if m1 < m0 * (1 - slack):
            failures.append(
                f"{experiment}: mean cpu.acq_wait_ticks fell from "
                f"{m0:.1f} ({t0} threads) to {m1:.1f} ({t1} threads); "
                f"contended waits must grow with the team")
    if len(series) >= 2 and series[-1][1] <= series[0][1]:
        failures.append(
            f"{experiment}: no wait growth across the sweep "
            f"({series[0][1]:.1f} -> {series[-1][1]:.1f} ticks)")


# Telemetry counters that witness inter-thread interference. Any of
# these firing means the machine's timing pattern shifted at least
# once, which the loop batcher must have seen as a changed boundary
# fingerprint (see the loop-batch gate in main()).
CONTENTION_COUNTERS = ("cpu.line_ping_pong", "cpu.lock_contended",
                       "gpu.cas_conflicts")


def check_telemetry(root):
    """Validate and gate every telemetry artifact under root.

    Returns (ok, contention): whether all schema checks and physics
    gates passed, and the summed contention-witness counters across
    every point (input to the loop-batch fallback gate).
    """
    paths = sorted(glob.glob(os.path.join(root, "*",
                                          "*.telemetry.json")))
    if not paths:
        sys.exit(f"check_metrics: no telemetry.json files under "
                 f"{root} (run campaign --telemetry)")
    failures = []
    gated = 0
    contention = 0
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as err:
            failures.append(f"{path}: unreadable: {err}")
            continue
        rel = os.path.relpath(path, root)
        for error in validate_telemetry(path, doc):
            failures.append(f"{rel}: {error}")
        experiment = doc.get("experiment", "")
        gate_false_sharing(experiment, doc, failures)
        gate_monotonic_wait(experiment, doc, failures)
        if STRIDED_RE.match(experiment) or \
                CONTENDED_RE.match(experiment):
            gated += 1
        for point in doc.get("points", []):
            counters = point.get("counters", {})
            contention += sum(counters.get(name, 0)
                              for name in CONTENTION_COUNTERS)
    print(f"check_metrics: {len(paths)} telemetry files validated, "
          f"{gated} covered by physics gates")
    for failure in failures:
        print(f"check_metrics: telemetry: {failure}")
    return not failures, contention


def check_loop_batch(counters, contention):
    """Gate the steady-state loop batcher's counters.

    The three loop_batch_* counters are deterministic-class: for a
    given campaign they are a function of the simulated work alone,
    so they must be internally consistent -- and when the telemetry
    shows contention, physics demands fallbacks: a contended line
    perturbs the boundary fingerprint, and a batcher that never
    falls back in that regime is batching through state changes.
    Returns a list of failure strings.
    """
    failures = []
    iters = counters.get("loop_batch_iters", 0)
    windows = counters.get("loop_batch_windows", 0)
    fallbacks = counters.get("loop_batch_fallbacks", 0)
    for name in ("loop_batch_iters", "loop_batch_windows",
                 "loop_batch_fallbacks"):
        value = counters.get(name, 0)
        if not isinstance(value, int) or value < 0:
            failures.append(f"{name} = {value!r} is not a "
                            f"non-negative integer")
            return failures
    print(f"check_metrics: loop batching: {iters} iters batched in "
          f"{windows} windows, {fallbacks} fallbacks")
    # A window always advances at least one full period of at least
    # one timed iteration, so the two engage together.
    if (iters > 0) != (windows > 0):
        failures.append(
            f"loop_batch_iters ({iters}) and loop_batch_windows "
            f"({windows}) disagree about whether batching engaged")
    if contention is None:
        return failures
    if iters > 0 and contention > 0 and fallbacks == 0:
        failures.append(
            f"telemetry shows {contention} contention events "
            f"({', '.join(CONTENTION_COUNTERS)}) but the engaged "
            f"batcher recorded zero fallbacks -- it must be jumping "
            f"across fingerprint changes")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Gate a campaign metrics.json snapshot and/or "
                    "telemetry artifacts.")
    parser.add_argument("metrics", nargs="?",
                        help="metrics.json to check")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="previous metrics.json to compare against")
    parser.add_argument(
        "--max-retry-rate", type=float, default=0.25, metavar="X",
        help="absolute ceiling on retry_rate (default %(default)s)")
    parser.add_argument(
        "--max-idle-fraction", type=float, default=0.60, metavar="X",
        help="absolute ceiling on idle_fraction (default %(default)s)")
    parser.add_argument(
        "--slack", type=float, default=10.0, metavar="PCT",
        help="allowed relative growth over the baseline, percent "
             "(default %(default)s)")
    parser.add_argument(
        "--telemetry-dir", metavar="DIR",
        help="validate <system>/*.telemetry.json under DIR and apply "
             "the physics gates")
    args = parser.parse_args()

    if args.metrics is None and args.telemetry_dir is None:
        parser.error("need a metrics.json and/or --telemetry-dir")

    telemetry_ok, contention = (
        check_telemetry(args.telemetry_dir)
        if args.telemetry_dir else (True, None))
    if args.metrics is None:
        if not telemetry_ok:
            print("check_metrics: GATE FAILED", file=sys.stderr)
            return 1
        print("check_metrics: all gates passed")
        return 0

    current = load(args.metrics)
    baseline = load(args.baseline) if args.baseline else None

    ceilings = {
        "retry_rate": args.max_retry_rate,
        "idle_fraction": args.max_idle_fraction,
    }
    # Relative slack alone would flag 0 -> 0.001; the absolute floor
    # keeps the baseline comparison meaningful only above noise.
    noise_floor = 0.02

    failed = False
    for key, ceiling in ceilings.items():
        value = rate(current, key)
        verdict = "ok"
        if value > ceiling:
            verdict = f"FAIL (ceiling {ceiling})"
            failed = True
        print(f"check_metrics: {key} = {value:.4f} [{verdict}]")

        if baseline is None:
            continue
        previous = rate(baseline, key)
        allowed = max(previous * (1 + args.slack / 100),
                      previous + noise_floor)
        if value > allowed:
            print(f"check_metrics: {key} regressed: baseline "
                  f"{previous:.4f}, current {value:.4f}, allowed "
                  f"{allowed:.4f} (+{args.slack}% slack)")
            failed = True

    counters = current.get("counters")
    if not isinstance(counters, dict):
        print("check_metrics: snapshot has no counters section "
              "(truncated or from a crashed campaign?)")
        counters = {}
        failed = True
    committed = counters.get("points_committed", 0)
    failed_points = counters.get("points_failed", 0)
    skipped = counters.get("points_skipped", 0)
    print(f"check_metrics: {committed} points committed, "
          f"{failed_points} failed, {skipped} skipped")
    if failed_points:
        print("check_metrics: campaign had failed points")
        failed = True
    # A snapshot with nothing committed and nothing resumed-over means
    # the campaign did no work: its rates gate nothing, so passing it
    # would be a silent no-op. Fail loudly instead.
    if counters and committed == 0 and skipped == 0:
        print("check_metrics: campaign committed no points "
              "(crashed early, or measured nothing?)")
        failed = True

    for failure in check_loop_batch(counters, contention):
        print(f"check_metrics: loop batching: {failure}")
        failed = True

    if failed or not telemetry_ok:
        print("check_metrics: GATE FAILED", file=sys.stderr)
        return 1
    print("check_metrics: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
