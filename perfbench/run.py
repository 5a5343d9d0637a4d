#!/usr/bin/env python3
"""perfbench: build ASPEN's default configuration, run one workload,
check its outputs and print its metrics.

    python3 perfbench/run.py --workload {smp,shm,tcp,tcp_agg_uring} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The build lands in .bench_build/perfbench
(configured once, rebuilt incrementally). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Everything else (host fingerprint, tables, the traced breakdown) is printed
above it. See perfbench/README.md.
"""
import argparse
import collections
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = BUILD_DIR / "runs"
# Compiler and job scratch files stay inside the checkout too.
TMP_DIR = BUILD_DIR / "tmp"
BIN = BUILD_DIR / "aspen_perfbench"
LAUNCHER = BUILD_DIR / "aspen" / "src" / "aspen-run"

RANKS = 2
# The measured seconds are split over this many jobs, whose rounds are
# pooled: the OS places the two rank processes (or threads) afresh for each
# job, so one run's figures do not hinge on a single placement.
JOBS_PER_RUN = 20
# Set-up-only jobs timed after each measurement job; setup_s is the median
# of all of them, so its samples spread over the whole run like the rest.
SETUP_PER_JOB = 2
BUILD_TIMEOUT_S = 850
JOB_GRACE_S = 60

WORKLOADS = {
    # name: (one process per rank under aspen-run, extra environment,
    #        data plane the endpoint must report)
    "smp": (False, {}, "inproc"),
    "shm": (True, {}, "poll"),
    "tcp": (True, {}, "poll"),
    # The uring backend falls back to poll silently when io_uring cannot be
    # set up; such a run measures another plane and must not count.
    "tcp_agg_uring": (True, {"ASPEN_AGG": "1", "ASPEN_NET_URING": "1"},
                      "uring"),
}

LAT_LEGS = ["put", "amo", "amo_nv", "put_defer"]
GUPS_LEGS = ["rma_futures", "rma_promises", "amo_promises", "rpc_ff"]

END_TO_END = [
    ("setup_s", "s"),
    ("put_ns", "ns"),
    ("amo_ns", "ns"),
    ("amo_nv_ns", "ns"),
    ("put_defer_ns", "ns"),
    ("mups_rma_futures", "MUPS"),
    ("mups_rma_promises", "MUPS"),
    ("mups_amo_promises", "MUPS"),
    ("mups_rpc_ff", "MUPS"),
    ("solve_ms_youtube", "ms"),
    ("solve_ms_channel", "ms"),
    ("peak_rss_mb", "MB"),
]

# (name, unit, how): counter ratios are (numerator counters, denominator,
# legs); "ops" is the leg's op/update/solve count.
COUNT_METRICS = [
    ("core.cell_allocs_per_op", "count",
     (["cellpool_fresh", "cellpool_recycled"], "ops", ["put", "put_defer"])),
    ("core.ready_pool_hits_per_op", "count",
     (["ready_pool_hit"], "ops", ["put", "amo_nv"])),
    ("core.eager_ratio", "ratio",
     (["cx_eager_taken"],
      ["cx_eager_taken", "cx_deferred_queued", "cx_remote_async"], GUPS_LEGS)),
    ("core.whenall_general_per_update", "count",
     (["whenall_general"], "ops", ["rma_futures"])),
    ("core.progress_calls_per_op", "count",
     (["progress_calls"], "ops", LAT_LEGS)),
    ("gex.am_per_op", "count", (["am_sent"], "ops", LAT_LEGS)),
    ("net.msgs_per_update", "count", (["net_msgs_sent"], "ops", GUPS_LEGS)),
    ("net.bytes_per_update", "B", (["net_bytes_sent"], "ops", GUPS_LEGS)),
    ("net.sys_us_per_op", "us", (["stime_us"], "ops", LAT_LEGS)),
    ("net.sys_us_per_update", "us", (["stime_us"], "ops", GUPS_LEGS)),
    ("net.vcsw_per_op", "count", (["nvcsw"], "ops", LAT_LEGS)),
    ("shm.msgs_per_update", "count", (["shm_msgs_sent"], "ops", ["rpc_ff"])),
    ("agg.frames_per_flush", "count",
     (["agg_frames_coalesced"],
      ["agg_flush_bytes", "agg_flush_frames", "agg_flush_age",
       "agg_flush_forced"], GUPS_LEGS)),
    ("agg.age_flush_share", "ratio",
     (["agg_flush_age"],
      ["agg_flush_bytes", "agg_flush_frames", "agg_flush_age",
       "agg_flush_forced"], LAT_LEGS)),
    ("uring.syscalls_saved_per_op", "count",
     (["uring_syscalls_saved"], "ops", LAT_LEGS)),
    ("uring.sqe_batched_share", "ratio",
     (["uring_sqe_batched"], ["uring_sqe_submitted"], GUPS_LEGS)),
]

PER_LAYER_UNITS = {
    "core.inject_ns": "ns",
    "core.wait_ns": "ns",
    "core.progress_idle_ns": "ns",
    **{name: unit for name, unit, _ in COUNT_METRICS},
    "net.wire_codec_ns": "ns",
    "shm.ring_ns": "ns",
    "apps.matching.rounds": "count",
    "apps.matching.rma_gets_per_solve": "count",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class JobFailed(Exception):
    # Operations the run had attempted before the failure (at least 1).
    attempted = 1


def run_job(cmd, env, timeout, cwd=None):
    """Run one job in its own process group; kill the group on timeout.
    Returns once every process of the group has ended."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        raise JobFailed(f"{cmd[0]} {' '.join(cmd[1:3])}: "
                        + ("timed out" if rc is None else f"exit {rc}"))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (
            ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: repository sources not found under {ROOT}")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "aspen_perfbench", "-j", jobs])
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(TMP_DIR))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            run_job(cmd, env, max(1, deadline - time.monotonic()))
        except (JobFailed, OSError) as e:
            log(f"perfbench: build failed: {e}")
            sys.exit(1)


def job_env(workload, extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ASPEN_")}
    env["TMPDIR"] = str(TMP_DIR)
    env.update(WORKLOADS[workload][1])
    env.update(extra or {})
    return env


def job_cmd(mode, workload, seed, seconds, trace, out):
    cmd = [str(BIN), mode, workload, str(seed), str(seconds), str(trace),
           str(out)]
    if WORKLOADS[workload][0]:
        cmd = [str(LAUNCHER), "-n", str(RANKS)] + cmd
    return cmd


def time_setup(workload, seed, out):
    """One set-up-only job: (total, exec, bootstrap, first barrier) in
    seconds, for launch -> main() -> region entry -> end of the region's
    first barrier."""
    marker = out / "setup.txt"
    marker.unlink(missing_ok=True)
    t0 = time.monotonic_ns()
    run_job(job_cmd("setup", workload, seed, 1, 0, out), job_env(workload), 60)
    t_main, t_region, t_done = map(int, marker.read_text().split())
    return ((t_done - t0) / 1e9, (t_main - t0) / 1e9,
            (t_region - t_main) / 1e9, (t_done - t_region) / 1e9)


def merge_results(parts):
    """Pool the rounds and sum the counters of one run's jobs."""
    r = dict(parts[0])
    r["rounds"] = {k: [x for p in parts for x in p["rounds"][k]]
                   for k in r["rounds"]}
    r["legs"] = {leg: {k: sum(p["legs"][leg][k] for p in parts) for k in row}
                 for leg, row in r["legs"].items()}
    r["youtube"] = {k: sum(p["youtube"][k] for p in parts)
                    for k in r["youtube"]}
    for k in ("attempted", "failed"):
        r[k] = sum(p[k] for p in parts)
    r["errors"] = [e for p in parts for e in p["errors"]]
    r["peak_rss_kb"] = max(p["peak_rss_kb"] for p in parts)
    r["data_plane"] = "/".join(sorted({p["data_plane"] for p in parts}))
    return r


def run_measurement(a, out):
    """The measurement jobs, each followed by SETUP_PER_JOB set-up jobs.
    Set-up runs while the host is still busy from the job before it (an
    idle virtual machine wakes sleeping ranks several milliseconds late),
    and interleaving spreads its samples over the whole run. Returns the
    merged result and the set-up samples."""
    parts, setup = [], []
    for i in range(JOBS_PER_RUN):
        jout = out / f"job{i}"
        jout.mkdir()
        seconds = a.seconds / JOBS_PER_RUN
        try:
            run_job(job_cmd("run", a.workload, a.seed, seconds, a.trace, jout),
                    job_env(a.workload), seconds + JOB_GRACE_S)
            parts.append(json.loads((jout / "result.json").read_text()))
            for _ in range(SETUP_PER_JOB):
                setup.append(time_setup(a.workload, a.seed, out))
        except JobFailed as e:
            e.attempted += sum(p["attempted"] for p in parts)
            raise
    return merge_results(parts), setup


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def p95(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=20, method="inclusive")[-1]


def p5(xs):
    if len(xs) < 2:
        return median(xs)
    return statistics.quantiles(xs, n=20, method="inclusive")[0]


def cpu_times():
    """(busy, steal, total) jiffies of the whole host from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    idle = v[3] + v[4]
    steal = v[7] if len(v) > 7 else 0
    return sum(v[:8]) - idle - steal, steal, sum(v[:8])


def host_fingerprint(result, load1):
    try:
        clocksource = Path("/sys/devices/system/clocksource/clocksource0/"
                           "current_clocksource").read_text().strip()
    except OSError:
        clocksource = "unknown"
    cache = {}
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if ":" in line and "=" in line and not line.startswith("#"):
                key, val = line.split("=", 1)
                cache[key.split(":")[0]] = val
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "clocksource": clocksource,
        "kernel": os.uname().release,
        "load1_at_start": round(load1, 2),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "ASPEN_TELEMETRY": cache.get("ASPEN_TELEMETRY", "?"),
        "data_plane": result.get("data_plane", "?") if result else "?",
    }


def leg_sum(legs, leg_names, keys):
    if keys == "ops":
        keys = ["ops"]
    return sum(legs[leg][k] for leg in leg_names for k in keys)


def count_metrics(legs):
    out = {}
    for name, _, (num, den, leg_names) in COUNT_METRICS:
        d = leg_sum(legs, leg_names, den)
        out[name] = leg_sum(legs, leg_names, num) / d if d else 0.0
    return out


def end_to_end(result, setup):
    rounds = result["rounds"]
    plain = [i for i, t in enumerate(rounds["traced"]) if t == 0]
    col = {k: [v[i] for i in plain] for k, v in rounds.items()}
    updates = result["gups_updates_per_block"]
    metrics = {"setup_s": median([x[0] for x in setup])}
    for leg in LAT_LEGS:
        metrics[f"{leg}_ns"] = median(col[leg])
    for leg in GUPS_LEGS:
        metrics[f"mups_{leg}"] = median([updates / s / 1e6 for s in col[leg]])
    metrics["solve_ms_youtube"] = median(col["match_youtube"]) * 1e3
    metrics["solve_ms_channel"] = median(col["match_channel"]) * 1e3
    metrics["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    return metrics, col


def print_end_to_end(metrics, col, setup, result):
    print(f"end-to-end ({len(col['put'])} interleaved rounds after warm-up, "
          f"{JOBS_PER_RUN} jobs; median, then p95 and count of the "
          f"per-block samples):")
    updates = result["gups_updates_per_block"]
    samples = {"setup_s": [x[0] for x in setup]}
    for leg in LAT_LEGS:
        samples[f"{leg}_ns"] = col[leg]
    for leg in GUPS_LEGS:
        # Slowest blocks are the low-MUPS tail: report its 5th percentile.
        samples[f"mups_{leg}"] = [updates / s / 1e6 for s in col[leg]]
    samples["solve_ms_youtube"] = [x * 1e3 for x in col["match_youtube"]]
    samples["solve_ms_channel"] = [x * 1e3 for x in col["match_channel"]]
    for name, unit in END_TO_END:
        xs = samples.get(name)
        tail = ""
        if xs:
            tail_value = (p5(xs) if unit == "MUPS" else p95(xs))
            tail = (f"  {'p5' if unit == 'MUPS' else 'p95'} "
                    f"{tail_value:.6g}  n={len(xs)}")
        print(f"  {name:<20} {metrics[name]:>14.6g} {unit:<5}{tail}")
    exe, boot, bar = (median([x[i] for x in setup]) * 1e3 for i in (1, 2, 3))
    print(f"  setup split (median ms): exec {exe:.3f}, bootstrap {boot:.3f}, "
          f"first barrier {bar:.3f}")
    print(f"  amo_promises table checksum {result['amo_checksum']} "
          f"(verified against the serial reference every round)")


def span_table(spans_by_rank):
    """Per span name: count, total self time (duration minus direct
    children's) and the list of durations."""
    totals = {}
    for spans in spans_by_rank.values():
        child = [0] * (len(spans) + 1)
        for name, t0, t1, parent, _ in spans:
            child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _) in enumerate(spans, start=1):
            entry = totals.setdefault(name, [0, 0, []])
            entry[0] += 1
            entry[1] += (t1 - t0) - child[i]
            entry[2].append(t1 - t0)
    return totals


def write_perfetto(path, spans_by_rank):
    events = []
    for (_, rank), spans in spans_by_rank.items():
        events.append({"name": "process_name", "ph": "M", "pid": rank,
                       "args": {"name": f"rank {rank}"}})
        for name, t0, t1, _, op in spans:
            ev = {"name": name, "cat": "perfbench", "ph": "X", "pid": rank,
                  "tid": 0, "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3}
            if op:
                ev["args"] = {"op": op}
            events.append(ev)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ns"}))


def otrace_fold(out):
    """Per latency leg: the most common hop chain of the program's otrace
    export and the median time into each hop."""
    bounds = []
    for line in (out / "otrace_legs.txt").read_text().split("\n"):
        if line:
            leg, t0, t1 = line.split()
            bounds.append((leg, int(t0), int(t1)))
    traces = {}
    for rank in range(RANKS):
        data = json.loads((out / f"aspen.rank{rank}.otrace.json").read_text())
        for ev in data["traceEvents"]:
            if ev.get("ph") == "X":
                traces.setdefault(ev["args"]["trace"], []).append(
                    (ev["ts"] * 1e3, f"{ev['name']}@r{ev['pid']}"))
    chains = {leg: {} for leg, _, _ in bounds}
    for hops in traces.values():
        hops.sort()
        leg = next((name for name, t0, t1 in bounds
                    if t0 <= hops[0][0] <= t1), None)
        if leg is None:
            continue
        sig = tuple(label for _, label in hops)
        deltas = [b[0] - a[0] for a, b in zip(hops, hops[1:])]
        chains[leg].setdefault(sig, []).append(deltas)
    folded = {}
    for leg, by_sig in chains.items():
        if not by_sig:
            continue
        sig, runs = max(by_sig.items(), key=lambda kv: len(kv[1]))
        stages = [(sig[0], 0.0)] + [
            (label, median([r[i] for r in runs]))
            for i, label in enumerate(sig[1:])]
        folded[leg] = {"traces": len(runs),
                       "of": sum(len(r) for r in by_sig.values()),
                       "stages": stages}
    return folded


def traced_report(workload, seed, out, result):
    spans_by_rank = {}
    for i in range(JOBS_PER_RUN):
        for rank in range(RANKS):
            data = json.loads(
                (out / f"job{i}" / f"spans.rank{rank}.json").read_text())
            spans_by_rank[(i, rank)] = data["spans"]
    write_perfetto(out / "perfbench.trace.json", spans_by_rank)
    totals = span_table(spans_by_rank)

    rounds = result["rounds"]
    traced = [i for i, t in enumerate(rounds["traced"]) if t == 1]
    plain = [i for i, t in enumerate(rounds["traced"]) if t == 0]
    updates = result["gups_updates_per_block"]

    def med(key, idx, f=lambda x: x):
        return median([f(rounds[key][i]) for i in idx])

    metrics = {
        "core.inject_ns": median(totals.get("put.inject", [0, 0, []])[2]),
        "core.wait_ns": median(totals.get("put.wait", [0, 0, []])[2]),
        "core.progress_idle_ns": median(rounds["progress_idle_ns"]),
    }
    metrics.update(count_metrics(result["legs"]))
    metrics["net.wire_codec_ns"] = median(rounds["wire_codec_ns"])
    metrics["shm.ring_ns"] = median(rounds["shm_ring_ns"])
    yt = result["youtube"]
    solves = max(1, yt["solves"])
    metrics["apps.matching.rounds"] = yt["rounds"] / solves
    metrics["apps.matching.rma_gets_per_solve"] = yt["rma_gets"] / solves

    print(f"\nspan self time, {workload} (traced rounds: {len(traced)}; "
          f"Perfetto file {out / 'perfbench.trace.json'}):")
    print(f"  {'span':<22} {'count':>8} {'self ms':>10} {'median dur us':>14}")
    for name, (n, self_ns, durs) in sorted(totals.items(),
                                           key=lambda kv: -kv[1][1]):
        print(f"  {name:<22} {n:>8} {self_ns / 1e6:>10.3f} "
              f"{median(durs) / 1e3:>14.3f}")
    put_over = med("put", traced) - med("put", plain)
    amo_over = (med("amo_promises", traced, lambda s: updates / s / 1e6)
                - med("amo_promises", plain, lambda s: updates / s / 1e6))
    print(f"tracing overhead (traced minus untraced rounds): "
          f"put_ns {put_over:+.3f} ns, mups_amo_promises {amo_over:+.4f} MUPS")

    print(f"\nper-layer metrics, {workload}:")
    for name in PER_LAYER_UNITS:
        print(f"  {name:<34} {metrics[name]:>14.6g} {PER_LAYER_UNITS[name]}")

    if WORKLOADS[workload][0]:
        oout = out / "otrace"
        oout.mkdir()
        run_job(job_cmd("otrace", workload, seed, 1, 0, oout),
                job_env(workload, {"ASPEN_TRACE_SAMPLE": "1"}), 60, cwd=oout)
        folded = otrace_fold(oout)
        print(f"\notrace stage fold, {workload} latency legs "
              f"(ASPEN_TRACE_SAMPLE=1; median ns into each hop):")
        for leg, f in folded.items():
            chain = " -> ".join(
                label if i == 0 else f"{label} +{ns:.0f}"
                for i, (label, ns) in enumerate(f["stages"]))
            print(f"  {leg:<10} [{f['traces']}/{f['of']} traces] {chain}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds <= 0 or a.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    load1 = os.getloadavg()[0]
    build()
    cpu0 = cpu_times()
    out = RUNS_DIR / a.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    result, error, partial = None, None, 1
    try:
        result, setup = run_measurement(a, out)
    except (JobFailed, OSError, ValueError) as e:
        error = str(e)
        partial = getattr(e, "attempted", 1)

    fp = host_fingerprint(result, load1)
    cpu1 = cpu_times()
    if cpu0 and cpu1 and cpu1[2] > cpu0[2]:
        # Shares of all vCPU time during the run; this benchmark keeps about
        # RANKS vCPUs busy, so busy well above RANKS/nproc or any steal means
        # others were using the host too.
        total = cpu1[2] - cpu0[2]
        fp["host_busy_pct"] = round(100 * (cpu1[0] - cpu0[0]) / total, 1)
        fp["host_steal_pct"] = round(100 * (cpu1[1] - cpu0[1]) / total, 1)
    print("host: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    names = ([n for n, _ in END_TO_END] if a.trace == 0
             else list(PER_LAYER_UNITS))
    units = dict(END_TO_END) if a.trace == 0 else PER_LAYER_UNITS
    if error is None:
        attempted, failed = result["attempted"], result["failed"]
        for msg, n in collections.Counter(result["errors"]).items():
            print(f"CHECK FAILED (reported {n}x): {msg}")
        if not result["telemetry"]:
            error = "the build has ASPEN_TELEMETRY compiled out"
        elif result["data_plane"] != WORKLOADS[a.workload][2]:
            error = (f"data plane is {result['data_plane']}, "
                     f"{a.workload} needs {WORKLOADS[a.workload][2]}")
    if error is not None:
        # A dead rank or a missing result: nothing measured counts.
        print(f"RUN FAILED: {error}")
        attempted = max(1, result["attempted"] if result else partial)
        failed = attempted
    correct = error is None and failed == 0

    metrics = None
    if correct:
        e2e, col = end_to_end(result, setup)
        print_end_to_end(e2e, col, setup, result)
        if a.trace:
            try:
                metrics = traced_report(a.workload, a.seed, out, result)
            except (JobFailed, OSError, ValueError, KeyError) as e:
                print(f"RUN FAILED: traced breakdown: {e}")
                correct, failed = False, attempted
        else:
            metrics = e2e
    if metrics and not all(math.isfinite(metrics[n]) for n in names):
        print("RUN FAILED: a metric has no samples")
        correct, failed, metrics = False, attempted, None
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n] if metrics else None,
                        "unit": units[n]} for n in names},
    }))


if __name__ == "__main__":
    main()
