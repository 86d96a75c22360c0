#!/usr/bin/env python3
"""Campaign benchmark: time the `campaign` driver on fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--systems FRAGMENTS] [--bless]

Builds the driver from this checkout (perfbench/CMakeLists.txt, into
.bench_build/), runs one workload, checks every CSV tree it writes
against the digests pinned in perfbench/digests/, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs
the layer probe twice with --trace/--metrics/--status, self-checks the
two runs, and reports the per-layer metrics. --systems replaces the
workload's system set (a held-out variant, e.g. `--systems a100`);
--bless rewrites the workload's digest file from a fresh run over every
system its mode covers. perfbench/README.md documents every metric.

Any failure of the campaign itself (nonzero exit, no manifest.json,
nothing committed) or a workload wanting more jobs than the host has
cores exits 1 without printing a result.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_build"
BUILD = WORK / "cmake"
CAMPAIGN = BUILD / "syncperf" / "bench" / "campaign"
PROBE = BUILD / "perfbench_probe"
DIGESTS = BENCH_DIR / "digests"

# One closed-loop campaign process per workload. "systems" is the
# workload's --only value (None: every system of its mode; the digest
# file pins every system of the mode, so held-out variants are checked
# too). A --trace 0 run repeats the untraced campaign for --seconds and
# at least MIN_REPS times; a --trace 1 run times TRACE_REFS untraced
# campaigns as the reference for trace.overhead_pct.
WORKLOADS = {
    "cuda_thorough_2070": {
        "args": ["cuda", "--thorough"],
        "systems": "rtx_2070",
        "jobs": 2,
    },
    "omp_quick_3run": {
        "args": ["omp", "--cov-gate", "1000000"],
        "systems": None,
        "jobs": 2,
    },
}
MIN_REPS = 5
TRACE_REFS = 3

# setup_s: median of the --resume runs over each completed tree, this
# many after every rep (so at least MIN_REPS x this many in a run).
RESUMES_PER_REP = 10

# No campaign invocation may take longer than this.
INVOCATION_TIMEOUT_S = 150

SUMMARY_RE = re.compile(
    r"^campaign (\S+): (\d+) CSV files under .* \((\d+) experiments run, "
    r"(\d+) resumed-skipped, (\d+) failed\)", re.M)


def host_cores():
    """Cores this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


class BenchError(Exception):
    """A failure that must not be recorded as a measurement."""


# ------------------------------------------------------------- build

def build():
    """Configure (once) and build the driver and the probe."""
    for need in ("CMakeLists.txt", "src", "bench/campaign.cc"):
        if not (ROOT / need).exists():
            raise BenchError(f"no repository source '{need}' next to "
                             f"{BENCH_DIR.name}/; run from a full checkout")
    WORK.mkdir(exist_ok=True)
    log = WORK / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "campaign",
                  "perfbench_probe", "--parallel", str(host_cores())])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}\n"
                                 + tail(log))


def tail(path, lines=20):
    try:
        text = Path(path).read_text(errors="replace").splitlines()
    except OSError:
        return ""
    return "\n".join("   | " + line for line in text[-lines:])


# ----------------------------------------------------------- digests

def tree_digests(out_dir):
    """sha256 of every CSV under out_dir, keyed by sorted relative path."""
    found = {}
    for path in sorted(out_dir.rglob("*.csv")):
        rel = path.relative_to(out_dir).as_posix()
        found[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def load_digests(workload):
    path = DIGESTS / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"no pinned digests {path.relative_to(ROOT)}; "
                         f"create them with --bless")
    return json.loads(path.read_text())["files"]


def select(pinned, systems):
    """The pinned CSVs of the selected systems (--only fragment rule)."""
    if systems is None:
        return dict(pinned)
    fragments = [f.strip().lower() for f in systems.split(",") if f.strip()]
    return {rel: d for rel, d in pinned.items()
            if any(f in rel.split("/", 1)[0] for f in fragments)}


def check_tree(out_dir, expected):
    """Count missing, differing and unexpected CSVs against the pins."""
    found = tree_digests(out_dir)
    bad = [rel for rel, d in expected.items() if found.get(rel) != d]
    bad += [rel for rel in found if rel not in expected]
    for rel in bad[:5]:
        state = "missing" if rel not in found else (
            "unexpected" if rel not in expected else "differs")
        print(f"perfbench: {rel}: {state}", file=sys.stderr)
    return len(bad)


# ---------------------------------------------------------- campaign

class Invocation:
    """One finished campaign process and what it cost."""

    def __init__(self, wall_s, cpu_s, rss_mb, summary):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.run, self.skipped, self.failed = summary


def invoke(binary, args, out_dir, log, env=None):
    """Run one campaign process; fail loudly unless it finished clean."""
    cmd = [str(binary)] + args + ["--out", str(out_dir)]
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    if proc.returncode != 0:
        raise BenchError(f"campaign {' '.join(args)} exited "
                         f"{proc.returncode}; log tail:\n{tail(log)}")
    m = SUMMARY_RE.search(Path(log).read_text(errors="replace"))
    if m is None:
        raise BenchError(f"campaign {' '.join(args)} printed no summary; "
                         f"log tail:\n{tail(log)}")
    return Invocation(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      (int(m.group(3)), int(m.group(4)), int(m.group(5))))


def check_manifests(out_dir, expected):
    systems = {rel.split("/", 1)[0] for rel in expected}
    for system in sorted(systems):
        if not (out_dir / system / "manifest.json").is_file():
            raise BenchError(f"campaign wrote no manifest.json for "
                             f"{system} under {out_dir}")


def measure_once(binary, args, out_dir, expected, env=None):
    """A fresh campaign into out_dir; returns (invocation, failures)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    inv = invoke(binary, args, out_dir, out_dir.with_suffix(".log"), env)
    check_manifests(out_dir, expected)
    if inv.run == 0:
        raise BenchError("campaign committed zero experiments")
    return inv, inv.failed + check_tree(out_dir, expected)


# ------------------------------------------------------- end to end

def resume_runs(args, expected, out, log, count):
    """Time `count` --resume runs over the completed tree in out."""
    walls = []
    for _ in range(count):
        inv = invoke(CAMPAIGN, args + ["--resume"], out, log)
        if inv.run != 0 or inv.skipped != len(expected):
            raise BenchError(f"--resume reran {inv.run} and skipped "
                             f"{inv.skipped} of {len(expected)} points")
        walls.append(inv.wall_s)
    return walls


def end_to_end(args, expected, run_dir, seconds):
    """Untraced reps, each followed by --resume runs, that fit in
    --seconds (at least MIN_REPS of them)."""
    out = run_dir / "tree"
    reps, setup, failed = [], [], 0
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        inv, bad = measure_once(CAMPAIGN, args, out, expected)
        reps.append(inv)
        failed += bad
        # The resumes follow every rep, so setup_s samples the host
        # over the whole run and not one moment of it.
        setup += resume_runs(args, expected, out, run_dir / "resume.log",
                             RESUMES_PER_REP)
        step = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and time.perf_counter() + step / 2 > t_end:
            break
    failed += check_tree(out, expected)

    # The host's speed changes from second to second, by up to 1.5x on
    # work that never changes. It slows a rep but never speeds one up,
    # so the fastest rep is the steadiest figure of the program's cost.
    best = min(reps, key=lambda r: r.wall_s)
    metrics = {
        "wall_s": (best.wall_s, "s"),
        "experiments_per_s": (len(expected) / best.wall_s, "1/s"),
        "cpu_s": (min(r.cpu_s for r in reps), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in reps), "MB"),
    }
    attempted = len(expected) * (len(reps) + 1)
    walls = " ".join(f"{r.wall_s:.3f}" for r in reps)
    print(f"perfbench: {len(reps)} reps [{walls}], {len(setup)} resumes, "
          f"failed_ratio {failed / attempted:.4f}", file=sys.stderr)
    return attempted, failed, metrics


# ---------------------------------------------------------- traced

def traced_run(args, expected, run_dir, tag):
    """One probe run with the campaign's own --trace/--metrics/--status."""
    d = run_dir / tag
    d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PERFBENCH_PROBE_OUT=str(d / "probe.json"))
    inv, bad = measure_once(
        PROBE, args + ["--trace", str(d / "trace.json"),
                       "--metrics", str(d / "metrics.json"),
                       "--status", str(d / "status.json")],
        d / "tree", expected, env)
    art = {name: json.loads((d / f"{name}.json").read_text())
           for name in ("probe", "trace", "metrics", "status")}
    art["wall_s"] = inv.wall_s
    art["csv_bytes"] = sum(p.stat().st_size
                           for p in (d / "tree").rglob("*.csv"))
    return art, bad


def ratio(num, den):
    return num / den if den else 0.0


def secs(calls):
    """Host seconds of one probe entry ({"calls", "ns"})."""
    return calls["ns"] / 1e9


def layer_metrics(art, jobs, untraced_wall):
    """Every per-layer metric of one traced run (see README.md)."""
    probe, counters = art["probe"], art["metrics"]["counters"]
    timing = art["metrics"]["timing"]
    spans = [e for e in art["trace"]["traceEvents"] if e.get("ph") == "X"]
    exp_s = sorted(e["dur"] / 1e6 for e in spans
                   if e.get("cat") == "experiment")
    wall = art["wall_s"]
    cap = jobs * wall
    busy = sum(exp_s)

    m = {}
    m["campaign.experiment_s_p50"] = (statistics.median(exp_s), "s")
    m["campaign.experiment_s_max"] = (exp_s[-1], "s")
    m["executor.busy_s"] = (busy, "s")
    m["executor.idle_s"] = (cap - busy, "s")
    m["executor.idle_frac"] = (ratio(cap - busy, cap), "ratio")
    m["executor.tasks_stolen"] = (timing.get("pool_tasks_stolen", 0),
                                  "count")

    measure_s = secs(probe["cpu_measure"]) + secs(probe["gpu_measure"])
    run_s = (probe["cpusim"]["run_ns"] + probe["gpusim"]["run_ns"]) / 1e9
    m["target.cpu.measure_calls"] = (probe["cpu_measure"]["calls"], "count")
    m["target.cpu.measure_s"] = (secs(probe["cpu_measure"]), "s")
    m["target.gpu.measure_calls"] = (probe["gpu_measure"]["calls"], "count")
    m["target.gpu.measure_s"] = (secs(probe["gpu_measure"]), "s")
    m["target.self_s"] = (measure_s - run_s, "s")
    m["target.launches"] = (probe["cpusim"]["runs"] + probe["gpusim"]["runs"]
                            + counters["sim_cache_hits"], "count")
    m["protocol.retries"] = (counters["protocol_retries"], "count")

    hits, misses = counters["sim_cache_hits"], counters["sim_cache_misses"]
    lane_points = counters["lane_points"]
    lane_key_s = (secs(probe["lane_key_plan"])
                  + secs(probe["lane_key_experiment"]))
    m["reuse.sim_cache_hits"] = (hits, "count")
    m["reuse.sim_cache_misses"] = (misses, "count")
    m["reuse.sim_cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    m["reuse.pool_clones"] = (counters["pool_clones"], "count")
    m["reuse.pool_cold_builds"] = (counters["pool_cold_builds"], "count")
    m["reuse.lane_groups"] = (counters["lane_groups"], "count")
    m["reuse.lane_points"] = (lane_points, "count")
    m["reuse.lane_peels"] = (counters["lane_peels"], "count")
    m["reuse.lane_grouped_ratio"] = (
        ratio(lane_points - counters["lane_singleton_points"], lane_points),
        "ratio")
    m["reuse.lane_key_s"] = (lane_key_s, "s")

    for prefix, sim in (("gpusim", probe["gpusim"]),
                        ("gpusim.atomic_array", probe["gpusim_atomic_array"]),
                        ("cpusim", probe["cpusim"])):
        m[f"{prefix}.runs"] = (sim["runs"], "count")
        m[f"{prefix}.run_s"] = (sim["run_ns"] / 1e9, "s")
        m[f"{prefix}.events"] = (sim["events"], "count")
        m[f"{prefix}.ns_per_event"] = (ratio(sim["run_ns"], sim["events"]),
                                       "ns")
        m[f"{prefix}.batched_iter_ratio"] = (
            ratio(sim["batched_iters"], sim["total_iters"]), "ratio")
        m[f"{prefix}.batch_windows"] = (sim["windows"], "count")
        m[f"{prefix}.batch_fallbacks"] = (sim["fallbacks"], "count")

    csv_io_s = secs(probe["csv_open"]) + secs(probe["csv_commit"])
    commit_s = csv_io_s + secs(probe["manifest_save"])
    m["io.files"] = (probe["csv_commit"]["calls"], "count")
    m["io.csv_bytes"] = (art["csv_bytes"], "bytes")
    m["io.manifest_flushes"] = (probe["manifest_save"]["calls"], "count")
    m["io.commit_s"] = (commit_s, "s")
    m["io.commit_share"] = (ratio(commit_s, cap), "ratio")

    # Self time of the campaign layer: experiment spans minus the calls
    # they make into targets, CSV I/O and in-group lane re-keys.
    m["campaign.self_s"] = (busy - measure_s - csv_io_s
                            - secs(probe["lane_key_experiment"]), "s")
    # Measured layer time on the workers and the committing thread, as
    # a share of jobs x traced wall.
    commit_spans = sum(e["dur"] / 1e6 for e in spans
                       if e.get("cat") == "commit")
    m["trace.accounted_frac"] = (
        ratio(busy + secs(probe["lane_key_plan"]) + commit_spans, cap),
        "ratio")
    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_pct"] = ((wall / untraced_wall - 1.0) * 100.0, "%")
    return m


# Work counts that must repeat exactly across two traced runs.
REPEATABLE = [
    "gpusim.events", "cpusim.events", "gpusim.runs", "cpusim.runs",
    "gpusim.atomic_array.events", "target.launches",
    "target.cpu.measure_calls", "target.gpu.measure_calls",
    "reuse.sim_cache_hits", "reuse.sim_cache_misses", "reuse.lane_groups",
    "reuse.lane_points", "reuse.lane_peels", "reuse.pool_clones",
    "reuse.pool_cold_builds", "gpusim.batch_windows",
    "cpusim.batch_windows", "gpusim.batch_fallbacks",
    "cpusim.batch_fallbacks", "io.files", "io.csv_bytes",
    "io.manifest_flushes",
]


def self_check(arts, layers, expected):
    """Problems found in the traced runs; empty when all hold."""
    problems = []
    for tag, art in arts.items():
        total = art["status"]["points"]["total"]
        if total != len(expected):
            problems.append(f"{tag}: campaign enumerated {total} points, "
                            f"the pinned digests {len(expected)}")

    a, b = layers["a"], layers["b"]
    for name in REPEATABLE:
        if a[name][0] != b[name][0]:
            problems.append(f"{name} differs across traced runs: "
                            f"{a[name][0]} vs {b[name][0]}")
    batched = [arts[t]["probe"]["cpusim"]["batched_iters"]
               + arts[t]["probe"]["gpusim"]["batched_iters"] for t in "ab"]
    if batched[0] != batched[1]:
        problems.append(f"batched iterations differ: {batched}")

    for tag, art in arts.items():
        # checkpoint_flushes is a timing-class counter.
        c = dict(art["metrics"]["timing"], **art["metrics"]["counters"])
        p, lay = art["probe"], layers[tag]
        pairs = [
            ("loop_batch_iters", p["cpusim"]["batched_iters"]
             + p["gpusim"]["batched_iters"]),
            ("loop_batch_windows", p["cpusim"]["windows"]
             + p["gpusim"]["windows"]),
            ("loop_batch_fallbacks", p["cpusim"]["fallbacks"]
             + p["gpusim"]["fallbacks"]),
            ("points_committed", lay["io.files"][0]),
            ("checkpoint_flushes", lay["io.manifest_flushes"][0]),
        ]
        for counter, seen in pairs:
            if c[counter] != seen:
                problems.append(f"{tag}: --metrics {counter} = "
                                f"{c[counter]}, probe saw {seen}")
        if lay["reuse.sim_cache_misses"][0] > (lay["gpusim.runs"][0]
                                               + lay["cpusim.runs"][0]):
            problems.append(f"{tag}: more cache misses than simulator runs")

        # Self times are non-negative, and measured layer time neither
        # exceeds the capacity nor leaves more than the workers' idle
        # tail unexplained.
        measure_s = (lay["target.cpu.measure_s"][0]
                     + lay["target.gpu.measure_s"][0])
        if lay["target.self_s"][0] < -0.02 * measure_s:
            problems.append(f"{tag}: simulator run time exceeds the "
                            f"targets' measure time")
        if lay["campaign.self_s"][0] < -0.02 * lay["executor.busy_s"][0]:
            problems.append(f"{tag}: layer calls exceed the experiment "
                            f"spans that contain them")
        frac = lay["trace.accounted_frac"][0]
        if frac > 1.02 or frac < 0.75:
            problems.append(f"{tag}: layers account for {frac:.3f} of "
                            f"jobs x traced wall")
    return problems


def per_layer(spec, args, expected, run_dir):
    """Untraced reference runs, then two traced probe runs."""
    refs, failed = [], 0
    for _ in range(TRACE_REFS):
        inv, bad = measure_once(CAMPAIGN, args, run_dir / "untraced",
                                expected)
        refs.append(inv.wall_s)
        failed += bad
    arts, layers = {}, {}
    for tag in ("a", "b"):
        arts[tag], bad = traced_run(args, expected, run_dir, tag)
        failed += bad
        layers[tag] = layer_metrics(arts[tag], spec["jobs"],
                                    statistics.median(refs))
    problems = self_check(arts, layers, expected)
    for p in problems:
        print(f"perfbench: self-check: {p}", file=sys.stderr)
    return len(expected) * (len(refs) + 2), failed, layers["a"], not problems


# ------------------------------------------------------------- main

def bless(name, spec, run_dir):
    """Pin the CSV digests of every system the workload's mode covers."""
    out = run_dir / "bless"
    shutil.rmtree(out, ignore_errors=True)
    args = spec["args"] + ["--jobs", str(spec["jobs"])]
    inv = invoke(CAMPAIGN, args, out, run_dir / "bless.log")
    if inv.run == 0 or inv.failed:
        raise BenchError("bless run committed nothing or failed")
    files = tree_digests(out)
    DIGESTS.mkdir(exist_ok=True)
    doc = {"workload": name, "command": "campaign " + " ".join(args),
           "files": files}
    (DIGESTS / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"perfbench: pinned {len(files)} CSV digests for {name}",
          file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--systems", default=None,
                    help="replace the workload's --only system set "
                         "(held-out variant)")
    ap.add_argument("--bless", action="store_true",
                    help="re-pin the workload's CSV digests and exit")
    opts = ap.parse_args()
    spec = WORKLOADS[opts.workload]

    # The sweep is the paper's fixed enumeration and the simulators are
    # deterministic, so the inputs are the same for every seed; the
    # seed only names this run's scratch directory.
    run_dir = WORK / "runs" / f"{opts.workload}-{opts.seed}-{os.getpid()}"
    try:
        cores = host_cores()
        if spec["jobs"] > cores:
            raise BenchError(f"{opts.workload} wants --jobs {spec['jobs']} "
                             f"but the host has {cores} cores")
        build()
        run_dir.mkdir(parents=True, exist_ok=True)
        if opts.bless:
            bless(opts.workload, spec, run_dir)
            return 0
        systems = opts.systems or spec["systems"]
        expected = select(load_digests(opts.workload), systems)
        if not expected:
            raise BenchError(f"no pinned digests match --systems {systems}")
        args = spec["args"] + ["--jobs", str(spec["jobs"])]
        if systems:
            args += ["--only", systems]
        if opts.trace:
            attempted, failed, metrics, ok = per_layer(spec, args, expected,
                                                       run_dir)
        else:
            attempted, failed, metrics = end_to_end(args, expected, run_dir,
                                                    opts.seconds)
            ok = True
    except BenchError as e:
        print(f"perfbench: FAIL: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
