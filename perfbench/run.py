#!/usr/bin/env python3
"""The simulator benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `perfbench` package (the
target directory is $CARGO_TARGET_DIR, else .bench_build), then measures
the workload in fresh single-threaded processes, one simulation each,
with a `perfbench-probe` process after each run:

  --trace 0  untraced `perfbench` processes for --seconds; prints the
             end-to-end metrics (medians).
  --trace 1  one `perfbench-trace` process and untraced runs for the rest
             of --seconds; prints the per-layer metrics.

Host times are reported at a reference host speed: each median is
multiplied by PROBE_REF_S over the median probe time of the same window,
which cancels the slow drift of a shared host's speed (see README.md).

Every process checks its own report; this script also checks that every
run of the seed produced the same report digest. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. An
operation is one simulated run of the workload, and a failed one is a run
whose output checks failed. The exit code is non-zero when any check
fails or nothing could be measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("fleet-overload", "macro-burst", "coldstart-churn")
# The reference host speed, as a probe time in seconds: a window whose
# median probe takes PROBE_REF_S reports its host times unscaled. A fixed
# constant; probes took 0.45-0.85 s on the host the benchmark was built on.
PROBE_REF_S = 0.8
# Untraced runs per measurement: at least MIN_RUNS, at most MAX_RUNS.
MIN_RUNS = 3
MAX_RUNS = 40
# Outcome keys every run of one seed must reproduce exactly.
FIXED = ("arrived", "completed", "met_slo", "slo_attain_pct", "goodput_per_gpu",
         "sm_frag_pct", "digest")
BUILD_TIMEOUT_S = 840
PROCESS_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds the binaries and returns the directory holding them."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(PACKAGE, "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(target, "release")


def spawn(binary, args):
    """Runs one measuring process; returns its exit code, its JSON line
    and its stderr."""
    proc = subprocess.run([binary] + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.stderr and proc.returncode != 0:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{os.path.basename(binary)} {' '.join(args)} printed nothing "
                           f"(exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1]), proc.stderr


def untraced_runs(bindir, ident, seconds, min_runs):
    """Untraced runs, each followed by a probe, for about `seconds`;
    returns the runs' JSON lines, the probe times and the number of runs
    that failed a check."""
    perfbench = os.path.join(bindir, "perfbench")
    probe = os.path.join(bindir, "perfbench-probe")
    runs, probes, failed = [], [], 0
    started = time.monotonic()
    while True:
        code, run, _ = spawn(perfbench, ident)
        failed += code != 0 or bool(run["failures"])
        for failure in run["failures"]:
            log(f"check failed: {failure}")
        runs.append(run)
        code, sample, _ = spawn(probe, [])
        if code != 0:
            raise RuntimeError("a probe process failed")
        probes.append(sample["probe_s"])
        elapsed = time.monotonic() - started
        if len(runs) >= MAX_RUNS:
            break
        if len(runs) >= min_runs and elapsed + elapsed / len(runs) > seconds:
            break
    return runs, probes, failed


def same_outcome(runs, extra=()):
    """True when every run reproduced the first one's fixed outcome."""
    first = runs[0]
    ok = True
    for run in list(runs[1:]) + list(extra):
        for key in FIXED:
            if run[key] != first[key]:
                log(f"check failed: {key} differs between runs of one seed: "
                    f"{first[key]} vs {run[key]}")
                ok = False
    return ok


def declared(kind):
    """The metric names and units BENCHMARK.json declares for `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def metrics_of(values, kind):
    out = {}
    for name, unit in declared(kind):
        if name not in values:
            raise RuntimeError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": unit}
    return out


def end_to_end(bindir, workload, seed, seconds):
    ident = ["--workload", workload, "--seed", str(seed)]
    runs, probes, failed = untraced_runs(bindir, ident, seconds, MIN_RUNS)
    correct = failed == 0 and same_outcome(runs)
    log("run_s samples: " + " ".join(f"{r['run_s']:.4f}" for r in runs))
    log("setup_s samples: " + " ".join(f"{r['setup_s']:.6f}" for r in runs))
    log("probe_s samples: " + " ".join(f"{p:.4f}" for p in probes))
    scale = PROBE_REF_S / statistics.median(probes)
    first = runs[0]
    values = {
        "run_s": statistics.median(r["run_s"] for r in runs) * scale,
        "setup_s": statistics.median(r["setup_s"] for r in runs) * scale,
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in runs),
        "slo_attain_pct": first["slo_attain_pct"],
        "goodput_per_gpu": first["goodput_per_gpu"],
        "sm_frag_pct": first["sm_frag_pct"],
    }
    print(f"{workload} seed {seed}: {len(runs)} runs; host speed {scale:.3f} of the "
          f"reference; per run {first['arrived']} requests attempted, "
          f"{first['arrived'] - first['completed']} failed (not completed by the end of "
          f"the drain)")
    for name, unit in declared("end_to_end"):
        print(f"  {name:<16} {values[name]:>14.6g} {unit}")
    return correct, len(runs), failed, metrics_of(values, "end_to_end")


def per_layer(bindir, workload, seed, seconds):
    ident = ["--workload", workload, "--seed", str(seed)]
    started = time.monotonic()
    code, traced, spans = spawn(os.path.join(bindir, "perfbench-trace"), ident)
    log(spans.rstrip())
    for failure in traced["failures"]:
        log(f"check failed: {failure}")
    traced_failed = code != 0 or bool(traced["failures"])
    remaining = seconds - (time.monotonic() - started)
    runs, probes, failed = untraced_runs(bindir, ident, remaining, 1)
    correct = not traced_failed and failed == 0 and same_outcome(runs, [traced])
    raw_run_s = statistics.median(r["run_s"] for r in runs)
    probe_s = statistics.median(probes)
    values = dict(traced)
    values["host.probe_s"] = probe_s
    values["sim.ns_per_event"] = (raw_run_s * PROBE_REF_S / probe_s
                                  / max(traced["sim.events"], 1) * 1e9)
    values["trace.overhead_pct"] = 100.0 * (traced["traced_run_s"] - raw_run_s) / raw_run_s
    print(f"{workload} seed {seed}: traced run {traced['traced_run_s']:.3f} s, untraced "
          f"median {raw_run_s:.3f} s over {len(runs)} runs (wall times); digests "
          f"{'agree' if correct else 'DIFFER or checks failed'}")
    for name, unit in declared("per_layer"):
        print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    return correct, len(runs) + 1, failed + traced_failed, metrics_of(values, "per_layer")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        bindir = build()
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = measure(bindir, args.workload, args.seed,
                                                      args.seconds)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
