#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, print metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 \
        --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the icicle library, icicled and the perfbench program)
into $CARGO_TARGET_DIR, or .bench_build when it is unset. The program
measures the workload and prints raw samples; this script turns them
into the metrics named in catalogue.json, compares the simulated
outputs with expected.json, and prints:

  * one "perfbench-detail" line per run: every metric with its unit and
    sample count, percentile choices, and any failures;
  * as the last line, the result object: correct, attempted, failed and
    the end-to-end metrics (--trace 0) or the per-layer metrics
    (--trace 1).

Exit status: 0 with a result, 1 when the build or the run fails (no
result is printed), 2 on a usage error.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CATALOGUE = json.loads((BENCH_DIR / "catalogue.json").read_text())
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
# A run must end within 180 s; the measuring program gets what is
# left after the build check and start-up.
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SHARE_PARTS = ("build", "construct", "tick", "analyze")


# ------------------------------------------------------------ statistics

def valid_metric_name(name):
    """Letters, digits, '_', '.', '-'; starts alnum; at most 64."""
    return bool(NAME_RE.match(name))


def _rank(n, p):
    # The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def nearest_rank(values, p):
    """Nearest-rank percentile p (0 < p <= 100) of a non-empty list."""
    return sorted(values)[_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """Samples above the nearest-rank p-th of n distinct samples."""
    return n - _rank(n, p)


def tail_percentile(n):
    """Highest candidate percentile with at least ten samples beyond."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= 10:
            return p
    return None


def layer_shares(sums):
    """Shares of the summed wall time; the remainder is unattributed.

    `sums` maps "wall" and each of SHARE_PARTS to summed milliseconds.
    The five shares returned sum to 1 by construction; a negative
    unattributed share means the parts were over-counted.
    """
    wall = sums["wall"]
    shares = {part: sums[part] / wall for part in SHARE_PARTS}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return shares


def shares_sum_to_whole(shares, tolerance=1e-9):
    return (abs(sum(shares.values()) - 1.0) <= tolerance
            and shares["unattributed"] > -0.05)


# --------------------------------------------------------------- metrics

class Raw:
    """Accessors over the perfbench program's raw report."""

    def __init__(self, raw):
        self.samples = raw.get("samples", {})
        self.values = raw.get("values", {})

    def n(self, key):
        return len(self.samples.get(key, []))

    def med(self, key):
        xs = self.samples.get(key, [])
        return (statistics.median(xs), len(xs)) if xs else (0.0, 0)

    def value(self, key, default=0.0):
        return self.values.get(key, default)


def _ratio(a, b):
    return a / b if b else 0.0


def end_to_end_metrics(workload, raw):
    """{name: (value, samples)} for every end-to-end metric."""
    r = Raw(raw)
    out = {"setup_s": r.med("setup_s"), "peak_rss_mb": r.med("peak_rss_mb")}
    if workload == "campaign":
        measured = r.value("measured_s")
        points = r.value("points")
        out["ops_per_s"] = (_ratio(points, measured), int(points))
        grid_s, n = r.med("grid_s")
        out["latency_p50_ms"] = (grid_s * 1000.0, n)
    elif workload == "longsim":
        rounds = r.samples.get("round_s", [])
        out["ops_per_s"] = (_ratio(len(rounds), sum(rounds)), len(rounds))
        p50, n = r.med("round_s")
        out["latency_p50_ms"] = (p50 * 1000.0, n)
    elif workload == "serve":
        requests = r.value("hot_requests")
        out["ops_per_s"] = (_ratio(requests, r.value("hot_s")),
                            int(requests))
        hit, n = r.med("hit_us")
        out["latency_p50_ms"] = (hit / 1000.0, n)
    return out


def per_layer_metrics(workload, raw):
    """{name: (value, samples)} for every per-layer metric.

    Metrics of layers the workload does not exercise read 0 with 0
    samples; catalogue.json names where each one is measured.
    """
    r = Raw(raw)
    out = {m["name"]: (0.0, 0) for m in CATALOGUE["per_layer"]}
    med = r.med

    def copy(*names):
        for name in names:
            out[name] = med(name)

    if workload == "campaign":
        copy("workloads.build_us", "tma.analyze_us", "sweep.render_ms",
             "sweep.distinct_result_share", "sweep.busy_share")
        for core in ("rocket", "boom-small", "boom-large"):
            copy("core.construct_us." + core, "tick.ns_per_cycle." + core)
        sums = {part: r.value("sweep.sum_ms." + part)
                for part in ("wall",) + SHARE_PARTS}
        if sums["wall"] > 0:
            n = r.n("traced.grid_s")
            for part, share in layer_shares(sums).items():
                out["sweep.share." + part] = (share, n)
        grids = r.n("grid_s")
        out["sweep.points"] = (_ratio(r.value("points"), grids), grids)
        out["sweep.sim_cycles"] = (_ratio(r.value("sim_cycles"), grids),
                                   grids)
        out["bench.trace_overhead"] = _overhead(r, "traced.grid_s",
                                                "grid_s")
    elif workload == "longsim":
        copy("workloads.build_us", "store.open_ms",
             "store.analyze_ms.recovery_cdf", "store.analyze_ms.overlap",
             "store.analyze_ms.window_full", "trace.analyze_ms.recovery_cdf",
             "trace.analyze_ms.overlap", "trace.analyze_ms.window_full",
             "tick.ns_per_uop.rocket", "tick.ns_per_uop.boom-large",
             "core.construct_us.rocket", "core.construct_us.boom-large")
        for kind, name in (("rocket", "rocket_mcycles_per_s"),
                           ("boom-large", "boom_mcycles_per_s"),
                           ("traced", "traced_mcycles_per_s")):
            secs, n = med("run_s." + kind)
            cycles = r.value("cycles." + kind)
            out[name] = (_ratio(cycles, secs) / 1e6, n)
            if kind != "traced":
                out["tick.ns_per_cycle." + kind] = (
                    _ratio(secs * 1e9, cycles), n)
        out["trace_analyze_ms"] = med("analyze_ms")
        cycles = r.value("cycles.boom-large")
        untraced, _ = med("run_s.boom-large")
        discard, n = med("discard_s")
        traced, _ = med("run_s.traced")
        if n:
            out["trace.pack_ns_per_cycle"] = (
                _ratio((discard - untraced) * 1e9, cycles), n)
            out["store.write_ns_per_cycle"] = (
                _ratio((traced - discard) * 1e9, cycles), n)
        out["store.bytes_per_cycle"] = (
            _ratio(r.value("store.bytes"), r.value("cycles.traced")), 1)
        out["store.blocks_decoded"] = (r.value("store.blocks_decoded"), 1)
        out["bench.trace_overhead"] = _overhead(r, "traced.round_s",
                                                "round_s")
    elif workload == "serve":
        copy("workloads.build_us", "store.window_us", "serve.protocol_us",
             "serve.validate_us", "serve.cache.key_us",
             "serve.cache.lookup_us", "serve.render_us",
             "serve.cache.publish_us", "serve.miss_overhead_us")
        hits = r.samples.get("hit_us", [])
        p99 = (nearest_rank(hits, 99.0)
               if hits and samples_beyond(len(hits), 99.0) >= 10 else 0.0)
        out["hit_p99_us"] = (p99, len(hits))
        out["miss_p50_us"] = med("miss_us")
        out["window_p50_us"] = med("window_us")
        window, n = out["window_p50_us"]
        out["serve.window_overhead_us"] = (
            window - out["store.window_us"][0], n)
        hit, n = med("hit_us")
        layers = sum(out[name][0] for name in (
            "serve.protocol_us", "serve.validate_us", "serve.cache.key_us",
            "serve.cache.lookup_us", "serve.render_us"))
        out["serve.hit_unattributed_us"] = (hit - layers, n)
        out["serve.hit_share"] = (r.value("serve.hit_share"), 1)
        out["serve.jobs_per_miss"] = (r.value("serve.jobs_per_miss"), 1)
        out["serve.retries"] = (r.value("client.retries"), 1)
        out["serve.sheds"] = (r.value("serve.sheds")
                              + r.value("client.sheds"), 1)
        out["serve.timeouts"] = (r.value("client.timeouts"), 1)
        out["serve.errors"] = (r.value("serve.errors"), 1)
        out["serve.worker_restarts"] = (r.value("serve.worker_restarts"), 1)
        out["bench.trace_overhead"] = _overhead(r, "traced.hit_us", "hit_us")
    return out


def _overhead(r, traced_key, untraced_key):
    traced, n = r.med(traced_key)
    untraced, _ = r.med(untraced_key)
    return (_ratio(traced, untraced) - 1.0 if n else 0.0, n)


def check_observed(workload, observed):
    """Mismatches between observed simulated outputs and expected.json."""
    expected = EXPECTED.get(workload, {})
    problems = []
    for key, want in expected.items():
        got = observed.get(key)
        if got != want:
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    for key in observed:
        if key not in expected:
            problems.append(f"{key}: no recorded value")
    return problems


def summarize(workload, trace, raw):
    """The detail report and the final result for one run."""
    catalogue = CATALOGUE["per_layer" if trace else "end_to_end"]
    computed = (per_layer_metrics if trace else end_to_end_metrics)(
        workload, raw)
    problems = check_observed(workload, raw.get("observed", {}))
    failures = list(raw.get("failures", [])) + problems
    if trace and workload == "campaign":
        shares = {name.split(".")[-1]: value for name, (value, _) in
                  computed.items() if name.startswith("sweep.share.")}
        if not shares_sum_to_whole(shares):
            problems.append(f"sweep shares do not sum to 1: {shares}")
            failures.append(problems[-1])
    attempted = int(raw.get("attempted", 0))
    failed = int(raw.get("failed", 0)) + len(problems)
    metrics = {}
    detail = {}
    for entry in catalogue:
        value, n = computed[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        detail[entry["name"]] = {"value": value, "unit": entry["unit"],
                                 "samples": n}
    report = {"workload": workload, "trace": trace, "metrics": detail,
              "failures": failures[:20]}
    hits = raw.get("samples", {}).get("hit_us", [])
    if hits:
        p = tail_percentile(len(hits))
        report["hit_tail"] = {"percentile": p, "samples": len(hits),
                              "value_us": nearest_rank(hits, p) if p else None}
    result = {"correct": failed == 0 and attempted >= 1,
              "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return report, result


# ------------------------------------------------------------ build, run

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(out_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out_dir / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                        "-G", "Unix Makefiles",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out_dir), "-j", jobs,
                    "--target", "perfbench", "icicled"],
                   check=True, stdout=sys.stderr)


def run_perfbench(out_dir, args):
    run_root = ROOT / ".bench_run"
    run_dir = run_root / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        proc = subprocess.run(
            [str(out_dir / "perfbench"), args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--run-dir", os.path.relpath(run_dir, ROOT),
             "--icicled", str(out_dir / "icicled")],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_root.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    return json.loads(lines[-1])


def _terminate(signum, frame):
    # Unwind through subprocess.run, which kills perfbench (and with
    # it the daemon, whose parent-death signal is SIGKILL), and through
    # the clean-up of the run directory.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        out_dir = build_dir()
        build(out_dir)
        raw = run_perfbench(out_dir, args)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    detail, result = summarize(args.workload, bool(args.trace), raw)
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
