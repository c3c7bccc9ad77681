#!/usr/bin/env python3
"""The softcache benchmark: host time, memory and guest cycles per workload.

    python3 perfbench/run.py --workload solo_hot --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench_sample (and the libraries it needs) under .bench_build/ in
the checkout, runs one reference sample of the workload on the interpreter
without the software cache, then runs one fresh process per sample for
--seconds seconds. Every sample is checked against the reference; the last
line of stdout is one JSON object:

    {"correct": ..., "attempted": <client runs>, "failed": <client runs>,
     "metrics": {name: {"value": ..., "unit": ...}}}

--trace 0 reports the end-to-end metrics (END_TO_END); --trace 1 alternates
plain samples with traced ones and reports the per-layer metrics
(PER_LAYER). README.md says what each workload and metric is for.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SAMPLE = BUILD / "perfbench_sample"

WORKLOADS = ("solo_hot", "solo_thrash", "fleet_64", "fleet_traced")

# name -> unit. The same names, units and order as BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "wall_s": "s",
    "guest_mips": "Minstr/s",
    "user_s": "s",
    "sys_s": "s",
    "peak_rss_mb": "MB",
    "minor_faults": "count",
    "guest_cycles": "cycles",
    "wire_bytes": "bytes",
}

PER_LAYER = {
    "minicc.compile_s": "s",
    "workloads.input_s": "s",
    "softcache.construct_s": "s",
    "softcache.construct_ms_per_client": "ms",
    "softcache.construct_share": "ratio",
    "vm.rss_mb_per_client": "MB",
    "obs.enable_s": "s",
    "obs.ring_mb": "MB",
    "vm.self_s": "s",
    "vm.self_share": "ratio",
    "vm.self_mips": "Minstr/s",
    "vm.sb_fills": "count",
    "vm.sb_invalidations": "count",
    "cc.trap_s": "s",
    "cc.trap_share": "ratio",
    "cc.traps": "count",
    "cc.trap_samples": "count",
    "cc.trap_us_p50": "us",
    "cc.trap_us_p99": "us",
    "cc.self_s": "s",
    "cc.blocks_translated": "count",
    "cc.evictions": "count",
    "cc.frames_walked": "count",
    "mc.handle_s": "s",
    "mc.frames": "count",
    "mc.handle_us_p50": "us",
    "mc.handle_us_p99": "us",
    "net.transport_self_s": "s",
    "mc.translates": "count",
    "mc.memo_lookups": "count",
    "mc.memo_hit_rate": "ratio",
    "mc.digest_replies": "count",
    "mc.shard_service_samples": "count",
    "server_loop.requests_enqueued": "count",
    "server_loop.batches_drained": "count",
    "server_loop.max_queue_depth": "count",
    "server_loop.queue_wait_samples": "count",
    "net.switch_frames": "count",
    "obs.trace_export_s": "s",
    "obs.trace_bytes": "bytes",
    "obs.metrics_export_s": "s",
    "obs.metrics_bytes": "bytes",
    "obs.dropped_events": "count",
    "softcache.destroy_s": "s",
    "bench.untraced_run_s": "s",
    "bench.traced_run_s": "s",
    "bench.trace_overhead_s": "s",
}

MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 60


class SampleError(Exception):
    pass


def build():
    """Configures once, then brings the sample program up to date."""
    out = sys.stderr
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=out, stderr=out, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                   stdout=out, stderr=out, check=True)


def sample_env():
    # The library reads SOFTCACHE_ENGINE, SOFTCACHE_WORKERS and
    # SOFTCACHE_LOG, and glibc its malloc tunables; any of them would change
    # what a workload measures.
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("SOFTCACHE_", "MALLOC_", "GLIBC_TUNABLES"))}


def run_sample(workload, seed, mode, smoke):
    """One sample in a fresh process, with that process's rusage."""
    cmd = [str(SAMPLE), f"--workload={workload}", f"--seed={seed}",
           f"--mode={mode}"] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=sample_env())
    timer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SampleError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    try:
        rec = json.loads(out.decode().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise SampleError(f"{' '.join(cmd[1:])} printed no result: {e}")
    rec["user_s"] = usage.ru_utime
    rec["sys_s"] = usage.ru_stime
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    rec["minor_faults"] = usage.ru_minflt
    return rec


class Oracle:
    """Checks every sample's clients against the reference run, and guest
    cycles and wire bytes against the first sample of the seed."""

    def __init__(self, workload, seed, native):
        self.workload = workload
        self.seed = seed
        self.native = native["clients"]
        self.first = None
        self.attempted = 0
        self.failed = 0

    def fail(self, mode, client, why):
        print(f"MISMATCH workload={self.workload} seed={self.seed} "
              f"mode={mode} client={client}: {why}", file=sys.stderr)

    def lost(self, mode, error):
        """A sample that produced no result: all its clients failed."""
        n = len(self.native)
        self.attempted += n
        self.failed += n
        self.fail(mode, "all", str(error))

    def check(self, mode, rec):
        clients = rec["clients"]
        self.attempted += len(self.native)
        if len(clients) != len(self.native):
            self.failed += len(self.native)
            self.fail(mode, "all", f"{len(clients)} clients, expected "
                      f"{len(self.native)}")
            return
        if self.first is None:
            self.first = clients
        for i, (got, ref, first) in enumerate(
                zip(clients, self.native, self.first)):
            why = []
            if not got["halted"]:
                why.append("did not halt")
            if got["exit"] != ref["exit"]:
                why.append(f"exit {got['exit']} != native {ref['exit']}")
            if got["output"] != ref["output"]:
                why.append("output differs from native")
            for key in ("cycles", "wire_bytes"):
                if got[key] != first[key]:
                    why.append(f"{key} {got[key]} != {first[key]} of the "
                               f"first sample")
            if why:
                self.failed += 1
                self.fail(mode, i, "; ".join(why))


def percentile_us(buckets, p):
    """Percentile p of pooled [value_ns, count] buckets, in microseconds.

    Capped at the highest percentile that leaves ten samples beyond it."""
    pooled = {}
    for value, count in buckets:
        pooled[value] = pooled.get(value, 0) + count
    n = sum(pooled.values())
    if n == 0:
        return 0.0
    q = min(p, max(0.5, 1.0 - 10.0 / n))
    rank = max(1, math.ceil(q * n))
    seen = 0
    for value in sorted(pooled):
        seen += pooled[value]
        if seen >= rank:
            return value / 1000.0
    return max(pooled) / 1000.0


def median_of(recs, key):
    return statistics.median(r.get(key, 0.0) for r in recs)


def setup_s(rec):
    return (rec["minicc.compile_s"] + rec["workloads.input_s"] +
            rec["softcache.construct_s"] + rec.get("obs.enable_s", 0.0))


def end_to_end(recs):
    first = recs[0]["clients"]
    run_s = median_of(recs, "run_s")
    return {
        "setup_s": statistics.median(setup_s(r) for r in recs),
        "run_s": run_s,
        "wall_s": median_of(recs, "wall_s"),
        "guest_mips": sum(c["instructions"] for c in first) / run_s / 1e6,
        "user_s": median_of(recs, "user_s"),
        # The kernel splits CPU time into user and system at the scheduler
        # tick, so a solo sample's ~20 ms of system time reads anywhere from
        # 8 to 40 ms; only the mean over samples resolves it.
        "sys_s": statistics.mean(r["sys_s"] for r in recs),
        "peak_rss_mb": median_of(recs, "peak_rss_mb"),
        "minor_faults": median_of(recs, "minor_faults"),
        "guest_cycles": sum(c["cycles"] for c in first),
        "wire_bytes": sum(c["wire_bytes"] for c in first),
    }


def per_layer(plain, traced):
    m = {name: median_of(traced, name) for name in PER_LAYER}
    clients = len(traced[0]["clients"])
    instructions = sum(c["instructions"] for c in traced[0]["clients"])
    run_s = median_of(traced, "run_s")
    m["softcache.construct_ms_per_client"] = (
        m["softcache.construct_s"] * 1000.0 / clients)
    m["softcache.construct_share"] = m["softcache.construct_s"] / median_of(
        traced, "wall_s")
    m["vm.rss_mb_per_client"] = (
        median_of(traced, "construct_rss_bytes") / 2**20 / clients)
    m["obs.ring_mb"] = median_of(traced, "obs.ring_bytes") / 2**20
    trap_ns = [b for r in traced for b in r.get("trap_ns", [])]
    handle_ns = [b for r in traced for b in r.get("handle_ns", [])]
    # Host time inside the seams exists only for solo runs: a fleet's RunAll
    # attaches its cache controllers itself.
    if trap_ns:
        vm_self = statistics.median(r["run_s"] - r["cc.trap_s"]
                                    for r in traced)
        m["vm.self_s"] = vm_self
        m["vm.self_share"] = vm_self / run_s
        m["vm.self_mips"] = instructions / vm_self / 1e6
        m["cc.trap_share"] = m["cc.trap_s"] / run_s
        m["cc.trap_samples"] = sum(c for _, c in trap_ns)
        m["cc.trap_us_p50"] = percentile_us(trap_ns, 0.50)
        m["cc.trap_us_p99"] = percentile_us(trap_ns, 0.99)
        m["cc.self_s"] = statistics.median(
            r["cc.trap_s"] - r["transport_s"] for r in traced)
        m["mc.handle_us_p50"] = percentile_us(handle_ns, 0.50)
        m["mc.handle_us_p99"] = percentile_us(handle_ns, 0.99)
        m["net.transport_self_s"] = statistics.median(
            r["transport_s"] - r["mc.handle_s"] for r in traced)
    lookups = m["mc.translates"] + median_of(traced, "mc.memo_hits")
    m["mc.memo_lookups"] = lookups
    m["mc.memo_hit_rate"] = (lookups - m["mc.translates"]) / lookups
    m["bench.untraced_run_s"] = median_of(plain, "run_s")
    m["bench.traced_run_s"] = run_s
    m["bench.trace_overhead_s"] = run_s - m["bench.untraced_run_s"]
    return m


def measure(workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (oracle, plain samples, traced samples)."""
    try:
        native = run_sample(workload, seed, "native", smoke)
    except SampleError as e:
        sys.exit(f"reference run failed: {e}")
    oracle = Oracle(workload, seed, native)
    modes = ("plain", "traced") if trace else ("plain",)
    samples = {mode: [] for mode in modes}
    deadline = time.monotonic() + seconds
    while True:
        for mode in modes:
            try:
                rec = run_sample(workload, seed, mode, smoke)
            except SampleError as e:
                oracle.lost(mode, e)
                continue
            oracle.check(mode, rec)
            samples[mode].append(rec)
        done = min(len(s) for s in samples.values())
        if smoke or (done >= MIN_SAMPLES and time.monotonic() >= deadline):
            break
        if oracle.attempted > 0 and oracle.failed == oracle.attempted:
            break  # nothing works; measuring on would only repeat that
    return oracle, samples.get("plain", []), samples.get("traced", [])


def result(oracle, metrics, units):
    correct = oracle.failed == 0 and all(
        name in metrics and math.isfinite(metrics[name]) for name in units)
    return {
        "correct": correct,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }


def report(workload, seed, seconds, trace, smoke=False):
    oracle, plain, traced = measure(workload, seed, seconds, trace, smoke)
    metrics = {}
    if plain and (traced or not trace):
        metrics = per_layer(plain, traced) if trace else end_to_end(plain)
    units = PER_LAYER if trace else END_TO_END
    print(f"{workload} seed={seed}: {len(plain)} plain and {len(traced)} "
          f"traced samples, {oracle.failed}/{oracle.attempted} client runs "
          f"failed", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:36s} {metrics.get(name, float('nan')):16.6f} {unit}",
              file=sys.stderr)
    return result(oracle, metrics, units)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at a tiny input, both "
                             "metric sets, oracle checked")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required without --smoke")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"build failed: {e}")

    if args.smoke:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                res = report(workload, args.seed, 0, trace, smoke=True)
                print(json.dumps({"workload": workload, "trace": trace, **res}))
                ok = ok and res["correct"]
        sys.exit(0 if ok else 1)

    res = report(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(res))
    sys.exit(0 if res["correct"] else 1)


if __name__ == "__main__":
    main()
