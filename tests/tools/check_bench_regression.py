#!/usr/bin/env python3
"""Throughput-regression gate over the microbenchmarks and the smoke sweep.

Usage:
    check_bench_regression.py <bench_micro_ops> <bench_smoke> <baseline.json>
        [daemon_demo] [bench_scale_group_size] [--recalibrate]

Captures a machine-fingerprinted baseline (BENCH_baseline.json at the repo
root) from ``bench_micro_ops`` (google-benchmark JSON, best-of-N repetitions)
and ``bench_smoke --json`` (per-run sim_ms), then fails when any tracked
metric regresses by more than the tolerance (default 10%, override with
EACACHE_BENCH_TOLERANCE).

The baseline is only comparable on the machine that captured it: when the
fingerprint (cpu count + nominal MHz) differs — or no baseline exists yet —
the script exits 77 so ctest reports SKIP, not FAIL, and prints the
``--recalibrate`` command that rewrites the baseline for the current
machine. Only ``--recalibrate`` ever writes the tracked baseline file, so a
test run leaves the tree clean.

When a ``daemon_demo`` binary is given, a SELF-RELATIVE obs-overhead arm
also runs (DESIGN.md §12): the live daemon replays the same workload twice —
telemetry plane armed (poller + HTTP endpoint + flight ring) vs ``--no-obs``
— and the telemetry arm's throughput must stay within 5% (override with
EACACHE_OBS_TOLERANCE) of the baseline arm's. Both arms run in the same
invocation on the same machine, so no fingerprint gating applies; the
measured pair is printed, and stored under ``daemon_obs_overhead`` only by
``--recalibrate``.

When a ``bench_scale_group_size`` binary is given, a SELF-RELATIVE
shard-scaling arm also runs (DESIGN.md §14): the sharded engine replays a
1024-leaf hierarchical workload at 1, 2, 4 and 8 shards; each rate is
printed (stored under ``shard_scaling_rps`` only by ``--recalibrate``). On
machines with at
least MIN_SHARD_CPUS CPUs the 8-shard rate must reach SHARD_SPEEDUP_FLOOR
(3x) the 1-shard rate; smaller machines record the rates without enforcing
(8 worker threads cannot speed anything up on 1 core).

Shared machines (CI VMs) show double-digit run-to-run noise, so the gate is
asymmetric: the baseline records the MEDIAN rate across repetitions while a
comparison run only needs its BEST sample to clear the floor. The noise
spread is thereby built into the headroom — a lucky baseline can't strand
later runs — yet a real regression shifts the whole distribution down and
still trips the gate. A failing comparison is additionally remeasured up to
MAX_ROUNDS times (keeping the best rate seen) so transient neighbor load
can clear.

Exit codes: 0 ok, 1 regression (or harness error), 77 skip/recalibrated.
"""

import json
import os
import statistics
import subprocess
import sys
import time

SKIP = 77

# Fast, steady microbenchmark families; the multi-second trace-analysis
# benches (BM_SyntheticTraceGeneration, BM_StackDistances) are excluded to
# keep the gate quick.
MICRO_FILTER = (
    "BM_ZipfSample|BM_CacheStoreChurn|BM_GroupServe|"
    "BM_CountingBloomChurn|BM_IcpCodecRoundTrip"
)
REPETITIONS = 5
MAX_ROUNDS = 6
ROUND_BACKOFF_SECONDS = 2.0  # let transient neighbor load drain before remeasuring


def run_micro(binary):
    """Per-benchmark items_per_second (or 1/real_time) samples, one per rep."""
    out = subprocess.run(
        [
            binary,
            f"--benchmark_filter={MICRO_FILTER}",
            "--benchmark_format=json",
            "--benchmark_min_time=0.02",
            f"--benchmark_repetitions={REPETITIONS}",
        ],
        check=True,
        capture_output=True,
        text=True,
    )
    doc = json.loads(out.stdout)
    samples = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") != "iteration":
            continue  # aggregate rows
        name = bench["run_name"]
        rate = bench.get("items_per_second")
        if rate is None:
            real = float(bench["real_time"])
            rate = 0.0 if real <= 0 else 1e9 / real  # ops/s from ns/op
        samples.setdefault(name, []).append(float(rate))
    context = doc.get("context", {})
    fingerprint = {
        "num_cpus": context.get("num_cpus"),
        "mhz_per_cpu": context.get("mhz_per_cpu"),
    }
    return samples, fingerprint


def run_smoke(binary):
    """Total simulated-requests-per-second samples, one per sweep run."""
    samples = []
    for _ in range(3):
        out = subprocess.run(
            [binary, "--json"], check=True, capture_output=True, text=True
        )
        total_requests = 0
        total_sim_ms = 0.0
        for line in out.stdout.splitlines():
            if not line.startswith("json,"):
                continue
            run = json.loads(line[len("json,") :])
            total_requests += run["result"]["metrics"]["total_requests"]
            total_sim_ms += run["timings"]["sim_ms"]
        if total_sim_ms > 0:
            samples.append(1000.0 * total_requests / total_sim_ms)
    return samples


# Obs-overhead arm: a small wall-clock daemon replay, full speed (speedup so
# high that submission is never the bottleneck), compared with/without the
# telemetry plane. Keep it short — each arm runs up to OBS_RUNS times.
OBS_DEMO_ARGS = ["40000", "4", "1e9"]
OBS_TELEMETRY_FLAGS = ["--stats-port=0", "--stats-period-ms=100", "--flight-capacity=256"]
OBS_RUNS = 3


# Shard-scaling arm: self-relative like the obs arm. Enforced only where the
# hardware can plausibly deliver the speedup.
MIN_SHARD_CPUS = 8
SHARD_SPEEDUP_FLOOR = 3.0


def run_shard_scaling(binary):
    """{shards: requests_per_second} from the bench's SHARD_SCALING lines."""
    out = subprocess.run(
        [binary, "--shard-scaling"], check=True, capture_output=True, text=True
    )
    rates = {}
    for line in out.stdout.splitlines():
        if not line.startswith("SHARD_SCALING "):
            continue
        fields = dict(
            item.split("=", 1) for item in line.split()[1:] if "=" in item
        )
        rates[int(fields["shards"])] = float(fields["rps"])
    return rates


def run_daemon_arm(binary, flags):
    """Best throughput_rps over OBS_RUNS daemon_demo runs (0.0 on failure)."""
    best = 0.0
    for _ in range(OBS_RUNS):
        out = subprocess.run(
            [binary, *OBS_DEMO_ARGS, *flags],
            check=True,
            capture_output=True,
            text=True,
        )
        for line in out.stdout.splitlines():
            line = line.strip()
            if line.startswith("throughput_rps="):
                best = max(best, float(line.split("=", 1)[1]))
    return best


def main(argv):
    if len(argv) < 4:
        print(__doc__)
        return 1
    micro_bin, smoke_bin, baseline_path = argv[1], argv[2], argv[3]
    extras = argv[4:]
    recalibrate = "--recalibrate" in extras
    positional = [a for a in extras if not a.startswith("--")]
    daemon_bin = positional[0] if len(positional) > 0 else None
    scale_bin = positional[1] if len(positional) > 1 else None
    tolerance = float(os.environ.get("EACACHE_BENCH_TOLERANCE", "0.10"))
    obs_tolerance = float(os.environ.get("EACACHE_OBS_TOLERANCE", "0.05"))

    for binary in (micro_bin, smoke_bin):
        if not os.path.exists(binary):
            print(f"SKIP: {binary} not built")
            return SKIP
    if daemon_bin is not None and not os.path.exists(daemon_bin):
        print(f"note: {daemon_bin} not built; skipping the obs-overhead arm")
        daemon_bin = None
    if scale_bin is not None and not os.path.exists(scale_bin):
        print(f"note: {scale_bin} not built; skipping the shard-scaling arm")
        scale_bin = None

    micro_samples, fingerprint = run_micro(micro_bin)
    smoke_samples = run_smoke(smoke_bin)
    # Comparison uses the best sample; calibration stores the median (see
    # the module docstring for why the asymmetry).
    micro = {name: max(rates) for name, rates in micro_samples.items()}
    smoke_rps = max(smoke_samples) if smoke_samples else 0.0

    # Self-relative obs-overhead arm: both rates measured now, on this
    # machine, so the verdict never depends on the stored baseline.
    obs_rates = None
    if daemon_bin is not None:
        obs_rates = {
            "telemetry_rps": run_daemon_arm(daemon_bin, OBS_TELEMETRY_FLAGS),
            "no_obs_rps": run_daemon_arm(daemon_bin, ["--no-obs"]),
        }

    # Self-relative shard-scaling arm: rates measured now, on this machine.
    shard_rates = run_shard_scaling(scale_bin) if scale_bin is not None else None

    baseline = None
    if os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            baseline = json.load(handle)

    if not recalibrate and (baseline is None or baseline.get("fingerprint") != fingerprint):
        why = "no baseline" if baseline is None else "machine fingerprint changed"
        print(f"SKIP: {baseline_path} is not comparable here ({why}); recalibrate with:")
        print(f"  python3 {' '.join(argv)} --recalibrate")
        return SKIP

    if recalibrate:
        calibrated = {
            "fingerprint": fingerprint,
            "micro_items_per_second": {
                name: statistics.median(rates)
                for name, rates in micro_samples.items()
            },
            "smoke_requests_per_second": (
                statistics.median(smoke_samples) if smoke_samples else 0.0
            ),
        }
        if obs_rates is not None:
            calibrated["daemon_obs_overhead"] = obs_rates
        if shard_rates is not None:
            calibrated["shard_scaling_rps"] = {
                str(shards): rate for shards, rate in sorted(shard_rates.items())
            }
        with open(baseline_path, "w") as handle:
            json.dump(calibrated, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"SKIP: recalibrated {baseline_path}")
        return SKIP

    floor = 1.0 - tolerance

    def compare():
        failures = []
        for name, base_rate in sorted(baseline.get("micro_items_per_second", {}).items()):
            rate = micro.get(name)
            if rate is None:
                failures.append(f"{name}: benchmark disappeared from bench_micro_ops")
            elif rate < base_rate * floor:
                failures.append(
                    f"{name}: {rate:,.0f} items/s vs baseline {base_rate:,.0f} "
                    f"({100 * (1 - rate / base_rate):.1f}% slower)"
                )
        base_smoke = baseline.get("smoke_requests_per_second", 0.0)
        if smoke_rps < base_smoke * floor:
            failures.append(
                f"bench_smoke: {smoke_rps:,.0f} req/s vs baseline {base_smoke:,.0f} "
                f"({100 * (1 - smoke_rps / base_smoke):.1f}% slower)"
            )
        if obs_rates is not None and obs_rates["no_obs_rps"] > 0:
            with_obs = obs_rates["telemetry_rps"]
            without = obs_rates["no_obs_rps"]
            if with_obs < without * (1.0 - obs_tolerance):
                failures.append(
                    f"daemon_obs_overhead: {with_obs:,.0f} req/s with telemetry vs "
                    f"{without:,.0f} with --no-obs "
                    f"({100 * (1 - with_obs / without):.1f}% overhead, "
                    f"bound {100 * obs_tolerance:.0f}%)"
                )
        if (
            shard_rates is not None
            and shard_rates.get(1, 0.0) > 0
            and (fingerprint.get("num_cpus") or 0) >= MIN_SHARD_CPUS
        ):
            speedup = shard_rates.get(8, 0.0) / shard_rates[1]
            if speedup < SHARD_SPEEDUP_FLOOR:
                failures.append(
                    f"shard_scaling: 8-shard speedup {speedup:.2f}x over 1 shard "
                    f"(floor {SHARD_SPEEDUP_FLOOR:.1f}x; rates "
                    + ", ".join(
                        f"{s}={r:,.0f} req/s" for s, r in sorted(shard_rates.items())
                    )
                    + ")"
                )
        return failures

    failures = compare()
    rounds = 1
    while failures and rounds < MAX_ROUNDS:
        # Transient noise defense: remeasure and keep the best rate seen.
        print(f"round {rounds}: {len(failures)} metric(s) low, remeasuring...")
        rounds += 1
        time.sleep(ROUND_BACKOFF_SECONDS)
        remicro, _ = run_micro(micro_bin)
        for name, rates in remicro.items():
            micro[name] = max(micro.get(name, 0.0), max(rates))
        smoke_rps = max([smoke_rps] + run_smoke(smoke_bin))
        if obs_rates is not None and any("daemon_obs_overhead" in f for f in failures):
            obs_rates["telemetry_rps"] = max(
                obs_rates["telemetry_rps"],
                run_daemon_arm(daemon_bin, OBS_TELEMETRY_FLAGS),
            )
        if shard_rates is not None and any("shard_scaling" in f for f in failures):
            for shards, rate in run_shard_scaling(scale_bin).items():
                shard_rates[shards] = max(shard_rates.get(shards, 0.0), rate)
        failures = compare()

    if failures:
        print(f"throughput regression (> {100 * tolerance:.0f}% below baseline):")
        for failure in failures:
            print(f"  {failure}")
        print(
            "If intentional, recalibrate: "
            f"check_bench_regression.py <micro> <smoke> {baseline_path} --recalibrate"
        )
        return 1

    checked = len(baseline.get("micro_items_per_second", {})) + 1
    if obs_rates is not None:
        checked += 1
        overhead = 1 - obs_rates["telemetry_rps"] / max(obs_rates["no_obs_rps"], 1e-9)
        print(f"daemon_obs_overhead: {100 * overhead:.1f}% (bound {100 * obs_tolerance:.0f}%)")
    if shard_rates is not None and shard_rates.get(1, 0.0) > 0:
        checked += 1
        speedup = shard_rates.get(8, 0.0) / shard_rates[1]
        enforced = (fingerprint.get("num_cpus") or 0) >= MIN_SHARD_CPUS
        print(
            f"shard_scaling: 8-shard speedup {speedup:.2f}x "
            f"({'enforced' if enforced else 'record-only, < ' + str(MIN_SHARD_CPUS) + ' cpus'})"
        )
    if shard_rates is not None:
        print(
            "shard_scaling_rps: "
            + ", ".join(f"{s}={r:,.0f}" for s, r in sorted(shard_rates.items()))
        )
    print(f"ok: {checked} throughput metrics within {100 * tolerance:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
