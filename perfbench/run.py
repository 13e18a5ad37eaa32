#!/usr/bin/env python3
"""SyncPerf benchmark: one command for every workload and metric.

Run from the root of the repository:

    python3 perfbench/run.py --workload cuda_thorough --seed 1 --seconds 10 --trace 0

Builds perfbench/driver.cc and the repository's libraries from source
(into $CARGO_TARGET_DIR, default .bench_build), then:

  * times process start through preset construction and an
    enumerate_only campaign call, several spawns, median (setup_s);
  * runs the workload's sweeps for --seconds in one driver process;
  * checks every CSV of every sweep against the workload's golden
    digests (perfbench/golden/<workload>.json, recorded from the
    reference leg with every fast path off);
  * checks that every count-class counter repeats exactly: between
    the sweeps of this run, and against earlier runs of the same
    build in this checkout;
  * prints every metric by name with its unit, then one JSON line.

--trace 0 reports the end-to-end metrics of untraced sweeps. --trace 1
runs untraced sweeps for half of --seconds, traced sweeps for the other
half, then replays every sweep point through the target and machine
layers, and reports the per-layer metrics (perfbench/README.md).

The sweeps are the paper's fixed sweeps: they have no generated inputs,
so --seed is recorded and changes nothing.

Other modes:
    --record-golden   rerun the reference leg and rewrite the golden file
    --corrupt-csv     self-test hook: damage one CSV of the first sweep
                      before the golden check (the run must then fail)
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("cuda_thorough", "omp_thorough", "quick_parallel")
SETUP_SPAWNS = 15
TAIL_PERCENTILES = (50, 60, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def configured_from(cache):
    """The source directory a CMake cache was configured from, or None."""
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build():
    """Configure (once) and build the driver; return its path."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise SystemExit(f"perfbench: {need} not found under {ROOT}; "
                             "run from the root of a SyncPerf checkout")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if configured_from(cache) not in (None, os.path.realpath(HERE)):
        # A build tree shared with another checkout: its cache names
        # that checkout's sources, so reconfigure for this one.
        log(f"perfbench: {out} was configured from {configured_from(cache)}; "
            "reconfiguring")
        os.remove(cache)
        shutil.rmtree(os.path.join(out, "CMakeFiles"), ignore_errors=True)
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(nproc()),
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint(driver):
    fp = json.loads(subprocess.run([driver, "--mode", "fingerprint"],
                                   check=True, capture_output=True,
                                   text=True).stdout)
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": nproc(), **fp}


def percentile(sorted_v, p):
    k = (len(sorted_v) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_v) - 1)
    return sorted_v[lo] + (sorted_v[hi] - sorted_v[lo]) * (k - lo)


def tail(samples):
    """(percentile, value, n, beyond): the highest listed percentile
    with at least TAIL_MIN_BEYOND samples beyond it."""
    v = sorted(samples)
    n = len(v)
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= TAIL_MIN_BEYOND:
            best = p
    return best, percentile(v, best), n, int(n * (100 - best) / 100.0)


def median(v):
    return statistics.median(v) if v else 0.0


def ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------ measuring

def measure_setup(driver, workload):
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        p = subprocess.Popen([driver, "--mode", "setup", "--workload", workload],
                             stdout=subprocess.PIPE, text=True)
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.close()
        if p.wait() != 0 or not line.startswith("setup-done"):
            raise SystemExit("perfbench: setup spawn failed")
        times.append(t1 - t0)
    return median(times)


def run_driver(driver, workload, seconds, traced, run_dir):
    report = os.path.join(run_dir, "report.json")
    cmd = [driver, "--mode", "run", "--workload", workload,
           "--out", run_dir, "--report", report]
    if traced:
        cmd += ["--untraced-seconds", str(seconds / 2.0),
                "--traced-seconds", str(seconds / 2.0),
                "--trace-file", os.path.join(run_dir, "trace.json")]
    else:
        cmd += ["--untraced-seconds", str(seconds)]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    with open(report) as f:
        return json.load(f)


# ------------------------------------------------------------ checking

def csv_digests(tree):
    out = {}
    for dirpath, _, files in os.walk(tree):
        for name in files:
            if name.endswith(".csv"):
                path = os.path.join(dirpath, name)
                out[os.path.relpath(path, tree)] = sha256_file(path)
    return out


def golden_path(workload):
    return os.path.join(HERE, "golden", workload + ".json")


def mismatches(tree, golden):
    """CSVs differing from, missing from, or absent in the golden set."""
    got = csv_digests(tree)
    keys = set(got) | set(golden)
    return sorted(k for k in keys if got.get(k) != golden.get(k))


def tree_size(tree):
    files = size = 0
    for dirpath, _, names in os.walk(tree):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def check_counts(workload, driver, counts):
    """Drift messages against the ledger of earlier runs of this
    build in this checkout; records new keys."""
    ledger_dir = os.path.join(build_dir(), "perfbench-counts")
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, workload + ".json")
    binary = sha256_file(driver)
    ledger = {}
    try:
        with open(path) as f:
            saved = json.load(f)
        if saved.get("driver_sha256") == binary:
            ledger = saved["counts"]
    except (OSError, ValueError, KeyError):
        pass
    drift = [f"{k}: {v} here, {ledger[k]} in an earlier run"
             for k, v in sorted(counts.items()) if k in ledger and ledger[k] != v]
    if not drift:
        merged = {**ledger, **counts}
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"driver_sha256": binary, "counts": merged}, f,
                      indent=1, sort_keys=True)
        os.replace(tmp, path)
    return drift


# ------------------------------------------------------------ trace

def load_spans(trace_file):
    with open(trace_file) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") == "X":
            spans.setdefault(e["name"], []).append(
                (e["ts"] * 1e-6, e["dur"] * 1e-6))
    for v in spans.values():
        v.sort()
    return spans


def covered(intervals, start, end):
    """Seconds covered by the union of the intervals that start inside
    [start, end], each counted to its own end: a measure pass that
    outlives its sweep makes this exceed end - start."""
    total = 0.0
    cur_s = cur_e = None
    for s, d in intervals:
        if not start <= s <= end:
            continue
        e = s + d
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# ------------------------------------------------------------ metrics

def end_to_end(report, setup_s):
    sweeps = report["untraced"]
    wall = median([s["wall_s"] for s in sweeps])
    intervals = [i for s in sweeps for i in s["intervals_s"]]
    tp, tv, n, beyond = tail(intervals)
    notes = [f"wall_s: median of {len(sweeps)} sweeps",
             f"point_s_tail: {n} commit intervals pooled over {len(sweeps)} "
             f"sweeps; tail = p{tp:g} ({beyond} samples beyond it)",
             f"point_s_p50 = {median(intervals):.6g} s (unbounded: reported "
             "with the per-layer metrics, see perfbench/README.md)"]
    metrics = {
        "wall_s": (wall, "s"),
        "experiments_per_s": (ratio(report["points_per_sweep"], wall), "1/s"),
        "point_s_tail": (tv, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    return metrics, notes


def per_layer(report, spans, io):
    untraced = report["untraced"]
    traced = report["traced"]
    replay = report["replay"]
    counters = traced[0]["counters"]
    notes = []

    sweep_spans = spans.get("sweep", [])
    passes = spans.get("measure_pass", [])
    span_s = [d for _, d in sweep_spans]
    measure_s = [covered(passes, s, s + d) for s, d in sweep_spans]
    self_s = [a - b for a, b in zip(span_s, measure_s)]

    def layer_times(name, prefix):
        d = [dur for _, dur in spans.get(name, [])]
        if not d:
            return {f"{prefix}_p50": (0.0, "s"), f"{prefix}_tail": (0.0, "s")}, d
        tp, tv, n, beyond = tail(d)
        notes.append(f"{prefix}_tail: p{tp:g} of {n} calls ({beyond} beyond)")
        return {f"{prefix}_p50": (median(d), "s"), f"{prefix}_tail": (tv, "s")}, d

    m = {
        "point_s_p50": (median([i for s in untraced for i in s["intervals_s"]]), "s"),
        "campaign.span_s": (median(span_s), "s"),
        "campaign.self_s": (median(self_s), "s"),
        "campaign.measure_s": (median(measure_s), "s"),
        "campaign.checkpoint_flushes": (counters["checkpoint_flushes"], "count"),
    }
    t, _ = layer_times("target.measure", "target.measure_s")
    m.update(t)
    hits, misses = replay["sim_cache_hits"], replay["sim_cache_misses"]
    m.update({
        "target.launches": (replay["target_launches"], "count"),
        "target.sim_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "target.sim_cache_misses": (misses, "count"),
        "pool.warm_ratio": (ratio(counters["pool_clones"],
                                  counters["pool_clones"] + counters["pool_cold_builds"]),
                            "ratio"),
        "pool.cold_builds": (counters["pool_cold_builds"], "count"),
        "lanes.groups": (counters["lane_groups"], "count"),
        "lanes.points_per_group": (ratio(counters["lane_points"],
                                         counters["lane_groups"]), "points/group"),
        "lanes.peels": (counters["lane_peels"], "count"),
    })
    for arch, probe in (("gpu", "atomic_perthread_ops"), ("cpu", "line_ping_pongs")):
        tot = replay[arch]
        t, d = layer_times(f"{arch}.run", f"{arch}.run_s")
        m[f"{arch}.run_s_total"] = (sum(d), "s")
        m.update(t)
        m[f"{arch}.events"] = (tot["events"], "count")
        m[f"{arch}.ns_per_event"] = (ratio(sum(d) * 1e9, tot["events"]), "ns")
        m[f"{arch}.{probe}"] = (tot[probe], "count")
        m[f"{arch}.eq_max_depth"] = (tot["eq_max_depth"], "count")
        m[f"{arch}.batch_iters_ratio"] = (ratio(tot["batched_iters"], tot["total_iters"]),
                                          "ratio")
        m[f"{arch}.batch_fallback_ratio"] = (
            ratio(tot["fallbacks"], tot["fallbacks"] + tot["windows"]), "ratio")
    busy = median([s["timing"]["pool_busy_nanos"] for s in traced]) * 1e-9
    idle = median([s["timing"]["pool_idle_nanos"] for s in traced]) * 1e-9
    m.update({
        "batch.iters": (counters["loop_batch_iters"], "count"),
        "batch.windows": (counters["loop_batch_windows"], "count"),
        "batch.fallbacks": (counters["loop_batch_fallbacks"], "count"),
        "threads.busy_s": (busy, "s"),
        "threads.idle_fraction": (ratio(idle, busy + idle), "ratio"),
        "threads.tasks_stolen": (statistics.median_low([s["timing"]["pool_tasks_stolen"]
                                         for s in traced]), "tasks"),
        "io.files_written": (io[0], "count"),
        "io.bytes_written": (io[1], "B"),
        "trace.overhead_ratio": (ratio(median([s["wall_s"] for s in traced]),
                                       median([s["wall_s"] for s in untraced])),
                                 "ratio"),
    })
    notes.append(f"traced sweeps: {len(traced)}; untraced sweeps: {len(untraced)}; "
                 f"replay on {replay['jobs']} threads took {replay['wall_s']:.3f} s")
    return m, notes


def replay_counts(replay):
    out = {"replay.target_launches": replay["target_launches"],
           "replay.sim_cache_misses": replay["sim_cache_misses"],
           "replay.sim_cache_hits": replay["sim_cache_hits"]}
    for arch in ("cpu", "gpu"):
        for k, v in replay[arch].items():
            out[f"replay.{arch}.{k}"] = v
    return out


# ------------------------------------------------------------ modes

def record_golden(driver, workload):
    run_dir = os.path.join(build_dir(), f"perfbench-golden-{workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run([driver, "--mode", "golden", "--workload", workload,
                    "--out", run_dir], check=True, stdout=sys.stderr)
    seconds = time.perf_counter() - t0
    digests = csv_digests(run_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    doc = {
        "workload": workload,
        "reference_leg": "serial; loop batching, lanes, machine pool and "
                         "sim cache off",
        "record_seconds": round(seconds, 1),
        "recorded_on": fingerprint(driver),
        "csv_sha256": dict(sorted(digests.items())),
    }
    with open(golden_path(workload), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    log(f"perfbench: recorded {len(digests)} digests for {workload} "
        f"in {seconds:.1f} s")


def corrupt_one_csv(tree):
    for dirpath, _, files in sorted(os.walk(tree)):
        for name in sorted(files):
            if name.endswith(".csv"):
                with open(os.path.join(dirpath, name), "a") as f:
                    f.write("0\n")
                return


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    ap.add_argument("--corrupt-csv", action="store_true")
    args = ap.parse_args()

    driver = build()
    if args.record_golden:
        record_golden(driver, args.workload)
        return 0
    with open(golden_path(args.workload)) as f:
        golden = json.load(f)["csv_sha256"]

    fp = fingerprint(driver)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} (fixed sweeps: no generated "
          f"inputs) seconds {args.seconds:g} trace {args.trace}")

    run_dir = os.path.join(build_dir(), f"perfbench-run-{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        report = run_driver(driver, args.workload, args.seconds,
                            args.trace == 1, run_dir)
        sweeps = report["untraced"] + report.get("traced", [])
        if args.corrupt_csv:
            corrupt_one_csv(sweeps[0]["dir"])

        problems = []
        attempted = failed = 0
        for s in sweeps:
            attempted += report["points_per_sweep"]
            bad = mismatches(s["dir"], golden)
            failed += len(s["failures"]) + len(bad)
            for f in s["failures"]:
                problems.append(f"failed experiment {f}")
            for k in bad:
                problems.append(f"digest mismatch {os.path.basename(s['dir'])}/{k}")
            if s["committed"] + len(s["failures"]) != report["points_per_sweep"]:
                problems.append(f"{s['dir']}: {s['committed']} committed of "
                                f"{report['points_per_sweep']}")

        io = tree_size(sweeps[0]["dir"])
        for s in sweeps[1:]:
            for k, v in s["counters"].items():
                if v != sweeps[0]["counters"][k]:
                    problems.append(f"count drift within the run: {k} "
                                    f"{v} != {sweeps[0]['counters'][k]}")
            if (size := tree_size(s["dir"])) != io:
                problems.append(f"output tree size drift within the run: {size} != {io}")
        counts = {f"sweep.{k}": v for k, v in sweeps[0]["counters"].items()}
        counts["io.files_written"], counts["io.bytes_written"] = io
        if args.trace == 1:
            counts.update(replay_counts(report["replay"]))
            if report["replay"]["target_invalid"]:
                problems.append(f"{report['replay']['target_invalid']} invalid "
                                "measurements in the replay")
            spans = load_spans(os.path.join(run_dir, "trace.json"))
            metrics, notes = per_layer(report, spans, io)
        else:
            metrics, notes = end_to_end(report, measure_setup(driver, args.workload))
        problems += [f"count drift: {d}" for d in check_counts(args.workload, driver, counts)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for note in notes:
        print("note " + note)
    print(f"fail_ratio {ratio(failed, attempted):g} ({failed} failed of {attempted} "
          "experiments attempted; failures + CSVs differing from the golden digests)")
    for name, (value, unit) in metrics.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {shown} {unit}")
    for p in problems:
        log("perfbench: FAILED CHECK: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
