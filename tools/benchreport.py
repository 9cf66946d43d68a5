#!/usr/bin/env python3
"""Benchmark JSON aggregation for the SDSP perf gate.

Runs the google-benchmark binaries with --benchmark_out, then distills
their JSON into the committed artifacts at the repo root:

  BENCH_frustum.json   scaling_frustum: optimized vs reference frustum
                       detection, with the derived speedup per scale and
                       three gate verdicts: the n~=2048 linear-family
                       gate (>= 5x), the at-scale wide-family gate
                       (>= 20x, measured at n=65536 and power-law
                       extrapolated at n=262144), the analytic-engine
                       gate (detectFrustumAnalytic >= 10x vs the
                       reference simulator on the pinned
                       single-critical-cycle wide family, gated at the
                       extrapolated n=262144 arm), and the rate-engine
                       gate (Howard's policy iteration >= 10x vs
                       Johnson-cycle enumeration on dense-cycle nets).

Every capture records its build provenance (the `sdsp_build_type`
custom context SDSP_BENCH_MAIN stamps from the project's own NDEBUG;
google-benchmark's `library_build_type` only describes libbenchmark
itself).  A capture from a non-Release build is refused, because
unoptimized timings must never feed the committed gates; pass
--allow-debug to generate such reports anyway with every gate loudly
marked non-gating.
  BENCH_pipeline.json  pipeline_verify: verified end-to-end pipeline
                       times on the six Livermore kernels.
  BENCH_passes.json    session_sweep: per-pass wall time, invocation /
                       cache-hit counters, and artifact sizes from the
                       CompilationSession's PipelineTrace (schema
                       sdsp-pipeline-trace-v1, docs/ARCHITECTURE.md),
                       captured via SDSP_TRACE_JSON during the SCP-depth
                       ablation sweep.
  BENCH_batch.json     batch_throughput: wall-clock batch compilation
                       across 1/2/4/8 worker threads (shared cache on
                       and off), the speedup over the 1-thread arm, and
                       the 8-thread gate verdict (>= 2.5x required;
                       recorded as skipped on hosts with fewer than 8
                       CPUs, where the target is unmeetable by
                       construction).
  BENCH_metrics.json   counter deltas from `sdspc --batch-kernels
                       --verify --metrics-json` (schema sdsp-metrics-v1,
                       docs/OBSERVABILITY.md): engine firings,
                       enabled-set rebuilds, state-table probes, cache
                       hit/miss counts; and, in sections of their
                       own, from the same batch on the SCP machine
                       (--scp=2 --pipelines=2), whose FIFO policy the
                       ideal-machine run never exercises, and with
                       two-slot buffers (--capacity=2), whose
                       multi-token states the capacity-1 run never
                       packs.  Unlike wall
                       times these are exact work counts, so --compare
                       diffs them for equality — any drift means the
                       pipeline is doing different work, not that the
                       machine is slower.  Three scaling sections hold
                       the same counters for single runs at several
                       sizes: `scaling`, `sdspc -k loop7 --scp=2
                       --verify` at x64/x128/x256, `ideal_scaling`,
                       `sdspc -k loop7 --verify` at x256/x512/x1024,
                       and `ring_scaling`, `sdspc --pnml=<ring>
                       --emit=rate` on one-token rings of 16,384 and
                       65,536 stages (written by tools/make_ring_pnml.py
                       into a temporary directory, never kept);
                       --compare also fails a counter whose log-log
                       slope between a section's two largest points
                       exceeds 1.1, except the counters the section
                       exempts, each with its reason.  A counter that
                       is zero at both points is flat.
  BENCH_store.json     store_throughput: the six Livermore kernels
                       compiled through the persistent tiered artifact
                       store (core/ArtifactStore.h, docs/SERVICE.md)
                       over an empty directory (cold fill) vs a
                       pre-populated one (warm replay, the
                       restarted-daemon shape), and the warm-over-cold
                       speedup — the machine-relative ratio --compare
                       tracks.

Also provides --smoke, which runs every binary under <build>/bench once
with a short min-time and fails on any crash or benchmark error (the CI
perf-smoke job's crash detector), and --compare BASELINE_DIR, which
diffs freshly generated reports against the committed baselines and
fails on a >25% regression of any machine-relative metric (speedups and
per-kernel time shares; absolute nanoseconds are machine-specific and
never compared).  Every schema failure under --compare names the exact
BENCH_*.json (fresh or baseline) the missing key came from.

Standard library only; works with both old (plain float min-time) and
new ("0.05s") google-benchmark flag syntax by passing the value through
verbatim.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

FRUSTUM_BENCH = "scaling_frustum"
PIPELINE_BENCH = "pipeline_verify"
SESSION_BENCH = "session_sweep"
BATCH_BENCH = "batch_throughput"
STORE_BENCH = "store_throughput"
TRACE_SCHEMA = "sdsp-pipeline-trace-v1"
GATE_ARG = "682"  # 682 chains -> 2050 transitions, the paper-scale n=2048 point
GATE_THRESHOLD = 5.0
# At-scale arms (bench/ScalingFrustum.cpp): args >= this are
# transition-count targets on the wide multi-cycle family; smaller args
# are chain counts on the linear paper family.
AT_SCALE_WIDE_MIN = 4096
AT_SCALE_GATE_ARG = "65536"       # reference measured directly
AT_SCALE_EXTRAP_ARG = "262144"    # reference extrapolated by power law
AT_SCALE_THRESHOLD = 20.0
# Analytic-engine gate: detectFrustumAnalytic vs the reference
# simulator on the pinned single-critical-cycle wide family, gated at
# the extrapolated 262144 arm (the reference's superlinear growth vs
# the analytic engine's near-linear cost is the asymptotic claim; the
# measured 65536 ratio is committed alongside as context).
ANALYTIC_GATE_THRESHOLD = 10.0
RATE_GATE_ARG = "24"
RATE_GATE_THRESHOLD = 10.0
BATCH_GATE_THREADS = "8"
BATCH_GATE_THRESHOLD = 2.5
COMPARE_TOLERANCE = 0.25  # Relative regression allowed before failing.
# BENCH_metrics.json sections: (key, extra sdspc flags) of each
# deterministic `sdspc --batch-kernels --verify` leg.
METRICS_LEGS = [
    ("counters", []),
    ("scp_counters", ["--scp=2", "--pipelines=2"]),
    ("cap2_counters", ["--capacity=2"]),
]

# The scaling legs: (section, sdspc flags, unroll factors, exempt
# counters) of one compile at three unroll factors.  --compare checks
# their counters exactly, like the batch legs, and fits each counter's
# log-log slope between a leg's two largest points: a slope above
# SCALING_MAX_SLOPE fails, unless the counter is exempt for the reason
# given (the reasons are written into BENCH_metrics.json).
SCALING_LEGS = [
    ("scaling", ["-k", "loop7", "--scp=2", "--verify"], [64, 128, 256], {}),
    ("ideal_scaling", ["-k", "loop7", "--verify"], [256, 512, 1024], {}),
]
SCALING_MAX_SLOPE = 1.1

# The ring leg: an imported one-token ring's rate, at these stage counts.
# Every counter is held to SCALING_MAX_SLOPE, with no exemptions.
RING_SECTION = "ring_scaling"
RING_STAGES = [16384, 65536]
SCALING_SECTIONS = [leg[0] for leg in SCALING_LEGS] + [RING_SECTION]

# Set by main() from --allow-debug: a debug capture then produces
# reports whose gates are loudly marked non-gating instead of being
# refused outright.
ALLOW_DEBUG = False


def provenance_of(report):
    """Build provenance of the code under test.  SDSP_BENCH_MAIN stamps
    `sdsp_build_type` from the project's own NDEBUG; google-benchmark's
    `library_build_type` only describes how *libbenchmark* was built
    (routinely "debug" for distro packages even under -O2 -DNDEBUG
    project builds), so it is just the fallback for old captures."""
    ctx = report.get("context", {})
    return ctx.get("sdsp_build_type", ctx.get("library_build_type", "unknown"))


def check_provenance(report, what):
    """Refuses a non-Release capture (or, with --allow-debug, lets it
    through loudly).  Returns the provenance string to record in the
    distilled report; gates from a non-release capture are marked
    non-gating so nothing downstream treats their numbers as binding."""
    prov = provenance_of(report)
    if prov == "release":
        return prov
    msg = ("%s was captured from a non-Release build (provenance %r): "
           "timings from unoptimized code must not feed the perf gates. "
           "Rebuild with -DCMAKE_BUILD_TYPE=Release "
           "-DSDSP_ENABLE_ASSERTIONS=OFF and recapture" % (what, prov))
    if not ALLOW_DEBUG:
        raise SystemExit(msg + " (or pass --allow-debug to generate "
                         "non-gating reports).")
    sys.stderr.write("WARNING: %s -- continuing because --allow-debug "
                     "was given; all gates in this report are marked "
                     "non-gating.\n" % msg)
    return prov


def fit_power_law(points):
    """Least-squares log-log fit of [(n, t), ...] -> (coeff, exponent)
    with t ~ coeff * n**exponent.  Needs >= 2 distinct n."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    k = len(points)
    mx, my = sum(xs) / k, sum(ys) / k
    denom = sum((x - mx) ** 2 for x in xs)
    if denom <= 0:
        raise SystemExit("power-law fit needs at least two distinct "
                         "scales, got %r" % ([n for n, _ in points],))
    exponent = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / denom
    coeff = math.exp(my - exponent * mx)
    return coeff, exponent


def run_bench(binary, out_json, min_time):
    """Runs one benchmark binary, writing google-benchmark JSON."""
    cmd = [
        binary,
        "--benchmark_out=%s" % out_json,
        "--benchmark_out_format=json",
        "--benchmark_min_time=%s" % min_time,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode("utf-8", "replace"))
        raise SystemExit("benchmark binary failed: %s (exit %d)" %
                         (binary, proc.returncode))
    with open(out_json) as f:
        return json.load(f)


def series_of(report, prefix):
    """name -> real_time (ns) for non-aggregate entries named prefix/..."""
    out = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        if name.split("/")[0] != prefix:
            continue
        if b.get("error_occurred"):
            raise SystemExit("benchmark %s reported an error: %s" %
                             (name, b.get("error_message", "?")))
        out[name] = {
            "real_time_ns": b["real_time"],
            "cpu_time_ns": b["cpu_time"],
            "iterations": b["iterations"],
        }
    return out


def arg_of(name):
    """The /N argument of a benchmark name, or None.  UseRealTime
    benchmarks append a "/real_time" suffix after the argument."""
    parts = name.split("/")
    for part in reversed(parts[1:]):
        if part.isdigit():
            return part
    return None


def frustum_report(report):
    prov = check_provenance(report, "BENCH_frustum capture")
    gating = prov == "release"
    opt = series_of(report, "benchFrustumAtScale")
    ref = series_of(report, "benchFrustumReferenceAtScale")
    opt_by_arg = {arg_of(n): v for n, v in opt.items() if arg_of(n)}
    ref_by_arg = {arg_of(n): v for n, v in ref.items() if arg_of(n)}
    speedup = {}
    for arg, rv in sorted(ref_by_arg.items(), key=lambda kv: int(kv[0])):
        ov = opt_by_arg.get(arg)
        if ov and ov["real_time_ns"] > 0:
            speedup[arg] = round(rv["real_time_ns"] / ov["real_time_ns"], 3)
    gate_speedup = speedup.get(GATE_ARG)

    # At-scale gate: the reference detector runs the wide multi-cycle
    # family directly up to the 65536 arm (that ratio is measured); at
    # 262144 only the optimized engine runs, and the reference's cost
    # there is extrapolated by the power law fitted to its measured
    # wide arms.  The fast engine scales *better* than the reference on
    # this family, so a power-law extrapolation of the reference is the
    # conservative choice: underfitting it only understates the ratio.
    wide_ref = sorted((int(a), v["real_time_ns"])
                      for a, v in ref_by_arg.items()
                      if int(a) >= AT_SCALE_WIDE_MIN)
    extrapolation = None
    extrap_speedup = None
    if len(wide_ref) >= 2:
        coeff, exponent = fit_power_law(wide_ref)
        target = int(AT_SCALE_EXTRAP_ARG)
        # Anchor at the largest measured arm rather than the global
        # fit's absolute level: scale its measured time by the fitted
        # exponent, so the prediction is exact at the anchor.
        anchor_n, anchor_t = wide_ref[-1]
        ref_at_target = anchor_t * (target / anchor_n) ** exponent
        ov = opt_by_arg.get(AT_SCALE_EXTRAP_ARG)
        if ov and ov["real_time_ns"] > 0:
            extrap_speedup = round(ref_at_target / ov["real_time_ns"], 3)
        extrapolation = {
            "fitted_exponent": round(exponent, 3),
            "fitted_points": [[n, t] for n, t in wide_ref],
            "anchor_transitions": anchor_n,
            "extrapolated_reference_ns": round(ref_at_target, 1),
            "transitions": target,
        }
    measured_at_scale = speedup.get(AT_SCALE_GATE_ARG)
    at_scale_pass = bool(
        measured_at_scale and measured_at_scale >= AT_SCALE_THRESHOLD
        and extrap_speedup and extrap_speedup >= AT_SCALE_THRESHOLD)

    # Analytic-engine gate: detectFrustumAnalytic vs the reference
    # simulator on the *pinned* wide family (chain 0's multiplies
    # slowed so exactly one critical cycle survives and the analytic
    # bar qualifies).  Same shape as the at-scale gate: the reference
    # is measured directly up to 65536 (beyond that it cannot hold the
    # per-instant interned states in memory), and its cost at 262144 is
    # power-law extrapolated from its measured arms, anchored at the
    # largest.  The gate binds at the extrapolated arm -- the analytic
    # engine's edge over simulation is asymptotic (near-linear
    # construction vs superlinear stepping), so the biggest arm carries
    # the claim -- with the measured 65536 ratio and the fast-engine
    # comparison committed alongside as context, not enforced.
    ana = series_of(report, "benchFrustumAnalyticAtScale")
    ana_sim = series_of(report, "benchFrustumAnalyticSimAtScale")
    ana_ref = series_of(report, "benchFrustumAnalyticReferenceAtScale")
    ana_by_arg = {arg_of(n): v for n, v in ana.items() if arg_of(n)}
    ana_sim_by_arg = {arg_of(n): v for n, v in ana_sim.items() if arg_of(n)}
    ana_ref_by_arg = {arg_of(n): v for n, v in ana_ref.items() if arg_of(n)}
    ana_measured = None
    av = ana_by_arg.get(AT_SCALE_GATE_ARG)
    arv = ana_ref_by_arg.get(AT_SCALE_GATE_ARG)
    if av and arv and av["real_time_ns"] > 0:
        ana_measured = round(arv["real_time_ns"] / av["real_time_ns"], 3)
    ana_vs_fast = None
    asv = ana_sim_by_arg.get(AT_SCALE_GATE_ARG)
    if av and asv and av["real_time_ns"] > 0:
        ana_vs_fast = round(asv["real_time_ns"] / av["real_time_ns"], 3)
    ana_wide_ref = sorted((int(a), v["real_time_ns"])
                          for a, v in ana_ref_by_arg.items()
                          if int(a) >= AT_SCALE_WIDE_MIN)
    ana_extrapolation = None
    ana_extrap_speedup = None
    if len(ana_wide_ref) >= 2:
        _, ana_exponent = fit_power_law(ana_wide_ref)
        target = int(AT_SCALE_EXTRAP_ARG)
        anchor_n, anchor_t = ana_wide_ref[-1]
        ana_ref_at_target = anchor_t * (target / anchor_n) ** ana_exponent
        av_big = ana_by_arg.get(AT_SCALE_EXTRAP_ARG)
        if av_big and av_big["real_time_ns"] > 0:
            ana_extrap_speedup = round(
                ana_ref_at_target / av_big["real_time_ns"], 3)
        ana_extrapolation = {
            "fitted_exponent": round(ana_exponent, 3),
            "fitted_points": [[n, t] for n, t in ana_wide_ref],
            "anchor_transitions": anchor_n,
            "extrapolated_reference_ns": round(ana_ref_at_target, 1),
            "transitions": target,
        }

    # Rate-engine gate: Howard's policy iteration vs Johnson-cycle
    # enumeration on the dense-cycle marked graph.
    howard = series_of(report, "benchRateHoward")
    enum = series_of(report, "benchRateEnumerate")
    howard_by_arg = {arg_of(n): v for n, v in howard.items() if arg_of(n)}
    enum_by_arg = {arg_of(n): v for n, v in enum.items() if arg_of(n)}
    rate_speedup = None
    hv = howard_by_arg.get(RATE_GATE_ARG)
    ev = enum_by_arg.get(RATE_GATE_ARG)
    if hv and ev and hv["real_time_ns"] > 0:
        rate_speedup = round(ev["real_time_ns"] / hv["real_time_ns"], 3)

    # The one-token ring family (context, not a gate): both frustum
    # engines at each stage count, and the fast engine's time over the
    # analytic engine's.
    ring = series_of(report, "benchFrustumRing")
    ring_ana = series_of(report, "benchFrustumRingAnalytic")
    ring_by_arg = {arg_of(n): v for n, v in ring.items() if arg_of(n)}
    ring_ana_by_arg = {arg_of(n): v for n, v in ring_ana.items()
                       if arg_of(n)}
    ring_fast_over_analytic = {
        arg: round(v["real_time_ns"] / ring_ana_by_arg[arg]["real_time_ns"],
                   3)
        for arg, v in ring_by_arg.items()
        if arg in ring_ana_by_arg and ring_ana_by_arg[arg]["real_time_ns"] > 0
    }

    return {
        "benchmark": FRUSTUM_BENCH,
        "generated_by": "tools/benchreport.py",
        "provenance": prov,
        "context": report.get("context", {}),
        "optimized": opt,
        "reference": ref,
        "rate_howard": howard,
        "rate_enumerate": enum,
        "speedup_by_chains": speedup,
        "gate": {
            "chains": int(GATE_ARG),
            "description": "detectFrustumChecked vs detectFrustumReference "
                           "wall time at n~=2048 transitions",
            "threshold": GATE_THRESHOLD,
            "speedup": gate_speedup,
            "gating": gating,
            "pass": bool(gate_speedup and gate_speedup >= GATE_THRESHOLD),
        },
        "at_scale_gate": {
            "description": "fast engine vs reference at the wide "
                           "multi-cycle family: measured ratio at n=%s, "
                           "power-law-extrapolated reference at n=%s" %
                           (AT_SCALE_GATE_ARG, AT_SCALE_EXTRAP_ARG),
            "threshold": AT_SCALE_THRESHOLD,
            "measured_speedup_at_%s" % AT_SCALE_GATE_ARG: measured_at_scale,
            "extrapolated_speedup_at_%s" % AT_SCALE_EXTRAP_ARG:
                extrap_speedup,
            "extrapolation": extrapolation,
            "gating": gating,
            "pass": at_scale_pass,
        },
        "analytic": ana,
        "analytic_sim": ana_sim,
        "analytic_reference": ana_ref,
        "analytic_gate": {
            "description": "detectFrustumAnalytic vs detectFrustumReference "
                           "at the pinned single-critical-cycle wide family: "
                           "measured ratio at n=%s (context), "
                           "power-law-extrapolated reference at n=%s "
                           "(binding)" %
                           (AT_SCALE_GATE_ARG, AT_SCALE_EXTRAP_ARG),
            "threshold": ANALYTIC_GATE_THRESHOLD,
            "measured_speedup_at_%s" % AT_SCALE_GATE_ARG: ana_measured,
            "extrapolated_speedup_at_%s" % AT_SCALE_EXTRAP_ARG:
                ana_extrap_speedup,
            # Honest context: the leap-based fast engine over the
            # analytic engine at the measured arm.  The pinned family's
            # frustum window is short, so the fast simulator is still
            # competitive here; the analytic engine's claim is against
            # step-per-instant simulation, not against the leap engine.
            "fast_engine_over_analytic_at_%s" % AT_SCALE_GATE_ARG:
                ana_vs_fast,
            "extrapolation": ana_extrapolation,
            "gating": gating,
            "pass": bool(ana_extrap_speedup and
                         ana_extrap_speedup >= ANALYTIC_GATE_THRESHOLD),
        },
        "ring": ring,
        "ring_analytic": ring_ana,
        "ring_fast_over_analytic_by_stages": ring_fast_over_analytic,
        "rate_gate": {
            "description": "maxCycleRatioHoward vs "
                           "criticalCycleByEnumeration on the dense-cycle "
                           "marked graph (N=%s, chords=%s)" %
                           (RATE_GATE_ARG, RATE_GATE_ARG),
            "threshold": RATE_GATE_THRESHOLD,
            "speedup": rate_speedup,
            "gating": gating,
            "pass": bool(rate_speedup and
                         rate_speedup >= RATE_GATE_THRESHOLD),
        },
    }


def pipeline_report(report):
    series = series_of(report, "benchPipelineVerify")
    return {
        "benchmark": PIPELINE_BENCH,
        "generated_by": "tools/benchreport.py",
        "provenance": check_provenance(report, "BENCH_pipeline capture"),
        "context": report.get("context", {}),
        "kernels": series,
    }


def passes_report(bench_dir, out_dir, min_time):
    """Runs session_sweep with SDSP_TRACE_JSON set and distills the
    emitted PipelineTrace into the BENCH_passes.json shape."""
    binary = os.path.join(bench_dir, SESSION_BENCH)
    if not os.path.isfile(binary):
        raise SystemExit("missing bench binary: %s" % binary)
    trace_path = os.path.join(out_dir, "BENCH_passes.json.raw")
    env = dict(os.environ, SDSP_TRACE_JSON=trace_path)
    proc = subprocess.run(
        [binary, "--benchmark_min_time=%s" % min_time],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode("utf-8", "replace"))
        raise SystemExit("benchmark binary failed: %s (exit %d)" %
                         (binary, proc.returncode))
    with open(trace_path) as f:
        trace = json.load(f)
    os.remove(trace_path)
    if trace.get("schema") != TRACE_SCHEMA:
        raise SystemExit("unexpected trace schema in %s: %r" %
                         (trace_path, trace.get("schema")))
    passes = {}
    for row in trace.get("passes", []):
        invocations = row.get("invocations", 0)
        if invocations == 0:
            continue
        hits = row.get("cache_hits", 0)
        passes[row["pass"]] = {
            "inputs": row.get("inputs"),
            "output": row.get("output"),
            "invocations": invocations,
            "cache_hits": hits,
            "computed": invocations - hits,
            "failures": row.get("failures", 0),
            "wall_seconds": row.get("wall_seconds", 0.0),
            "artifact_bytes": row.get("artifact_bytes", 0),
        }
    return {
        "benchmark": SESSION_BENCH,
        "generated_by": "tools/benchreport.py",
        "schema": trace.get("schema"),
        "cache_enabled": trace.get("cache_enabled"),
        "total_wall_seconds": trace.get("total_wall_seconds"),
        "passes": passes,
    }


def batch_report(report):
    shared = series_of(report, "benchBatchShared")
    private = series_of(report, "benchBatchPrivate")
    shared_by_arg = {arg_of(n): v for n, v in shared.items() if arg_of(n)}
    base = shared_by_arg.get("1")
    speedup = {}
    if base and base["real_time_ns"] > 0:
        for arg, v in sorted(shared_by_arg.items(), key=lambda kv: int(kv[0])):
            if v["real_time_ns"] > 0:
                speedup[arg] = round(base["real_time_ns"] / v["real_time_ns"],
                                     3)
    num_cpus = report.get("context", {}).get("num_cpus", 0)
    gate_speedup = speedup.get(BATCH_GATE_THREADS)
    skipped = num_cpus < int(BATCH_GATE_THREADS)
    prov = check_provenance(report, "BENCH_batch capture")
    return {
        "benchmark": BATCH_BENCH,
        "generated_by": "tools/benchreport.py",
        "provenance": prov,
        "context": report.get("context", {}),
        "shared_cache": shared,
        "private_cache": private,
        "speedup_by_threads": speedup,
        "gate": {
            "threads": int(BATCH_GATE_THREADS),
            "description": "batch wall-clock speedup of -j 8 over -j 1 "
                           "(shared cache) on the Livermore+synthetic "
                           "batch",
            "threshold": BATCH_GATE_THRESHOLD,
            "num_cpus": num_cpus,
            "speedup": gate_speedup,
            # An N-thread speedup target is unmeetable on < N CPUs;
            # record the fact instead of a vacuous failure (the same
            # quiet-hardware policy as the committed PERF.md baselines).
            "skipped": skipped,
            "gating": prov == "release",
            "pass": bool(skipped or
                         (gate_speedup and
                          gate_speedup >= BATCH_GATE_THRESHOLD)),
        },
    }


def store_report(report):
    """Distills store_throughput (bench/StoreThroughput.cpp) into the
    BENCH_store.json shape: cold fill vs warm replay of the Livermore
    kernels through the persistent tiered store, and their ratio."""
    prov = check_provenance(report, "BENCH_store capture")
    cold = series_of(report, "benchStoreCold")
    warm = series_of(report, "benchStoreWarm")

    def only(series, label):
        if len(series) != 1:
            raise SystemExit("BENCH_store capture has %d '%s' entries, "
                             "expected exactly 1" % (len(series), label))
        return next(iter(series.values()))

    cold_ns = only(cold, "benchStoreCold")["real_time_ns"]
    warm_ns = only(warm, "benchStoreWarm")["real_time_ns"]
    warm_speedup = round(cold_ns / warm_ns, 3) if warm_ns > 0 else None
    return {
        "benchmark": STORE_BENCH,
        "generated_by": "tools/benchreport.py",
        "provenance": prov,
        "context": report.get("context", {}),
        "cold_fill": cold,
        "warm_replay": warm,
        "warm_speedup": warm_speedup,
    }


def host_independent_counters(counters):
    """Drops the counter series that are exact on one host but differ
    between hosts: per-shard splits (a std::hash layout detail) and
    byte-size estimates (ABI-dependent)."""
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith("cache.shard")
        and not name.endswith(".bytes")
    }


def metrics_report(build_dir, out_dir):
    """Runs each deterministic batch leg under --metrics-json and keeps
    the host-independent counters: exact work counts that must not
    drift between hosts running the same code."""
    sdspc = os.path.join(build_dir, "tools", "sdspc")
    if not os.path.isfile(sdspc):
        raise SystemExit("missing sdspc binary: %s (build the sdspc "
                         "target)" % sdspc)
    report = {
        "generated_by": "tools/benchreport.py",
        "schema": "sdsp-metrics-v1",
    }
    raw = os.path.join(out_dir, "BENCH_metrics.json.raw")
    for key, flags in METRICS_LEGS:
        cmd = [sdspc, "--batch-kernels"] + flags + ["--verify", "-j", "2"]
        metrics = run_metrics(cmd, raw)
        label = " ".join(["sdspc", "--batch-kernels"] + flags +
                         ["--verify", "--metrics-json"])
        report["benchmark" if key == "counters" else key + "_benchmark"] = \
            label
        report[key] = host_independent_counters(metrics.get("counters", {}))
    for section, flags, unrolls, exempt in SCALING_LEGS:
        points = {}
        for unroll in unrolls:
            cmd = [sdspc] + flags + ["--unroll=%d" % unroll]
            points[str(unroll)] = host_independent_counters(
                run_metrics(cmd, raw).get("counters", {}))
        report[section] = {
            "benchmark": " ".join(["sdspc"] + flags +
                                  ["--unroll=U", "--metrics-json"]),
            "points": points,
            "max_slope": SCALING_MAX_SLOPE,
            "exempt": exempt,
        }
    report[RING_SECTION] = ring_scaling_report(sdspc, raw)
    return report


def ring_scaling_report(sdspc, raw):
    """The ring leg: `sdspc --pnml=<ring> --emit=rate` on one-token rings
    that tools/make_ring_pnml.py writes into a temporary directory."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "make_ring_pnml.py")
    points = {}
    with tempfile.TemporaryDirectory() as tmp:
        for stages in RING_STAGES:
            ring = os.path.join(tmp, "ring-%d.pnml" % stages)
            subprocess.run([sys.executable, script, ring, str(stages), "1"],
                           check=True)
            cmd = [sdspc, "--pnml=" + ring, "--emit=rate"]
            points[str(stages)] = host_independent_counters(
                run_metrics(cmd, raw).get("counters", {}))
    return {
        "benchmark": "sdspc --pnml=<one-token ring of N stages> --emit=rate "
                     "--metrics-json",
        "points": points,
        "max_slope": SCALING_MAX_SLOPE,
        "exempt": {},
    }


def run_metrics(cmd, raw):
    """Runs cmd with --metrics-json=raw and returns the document."""
    proc = subprocess.run(cmd + ["--metrics-json=%s" % raw],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode("utf-8", "replace"))
        raise SystemExit("%s failed (exit %d)" %
                         (" ".join(cmd), proc.returncode))
    with open(raw) as f:
        metrics = json.load(f)
    os.remove(raw)
    if metrics.get("schema") != "sdsp-metrics-v1":
        raise SystemExit("unexpected metrics schema: %r" %
                         metrics.get("schema"))
    return metrics


def smoke(bench_dir, min_time):
    """Runs every bench binary once; any crash fails the job."""
    failures = []
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            continue
        print("[smoke] %s" % name, flush=True)
        proc = subprocess.run([path, "--benchmark_min_time=%s" % min_time],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode("utf-8", "replace"))
            failures.append("%s (exit %d)" % (name, proc.returncode))
    if failures:
        raise SystemExit("bench smoke failures: " + ", ".join(failures))
    print("[smoke] all bench binaries ran clean")


def load_pair(fresh_dir, base_dir, name):
    fresh_path = os.path.join(fresh_dir, name)
    base_path = os.path.join(base_dir, name)
    for p in (fresh_path, base_path):
        if not os.path.isfile(p):
            raise SystemExit("--compare: missing report %s (regenerate "
                             "baselines with tools/benchreport.py)" % p)
    reports = []
    for p in (fresh_path, base_path):
        with open(p) as f:
            try:
                reports.append(json.load(f))
            except json.JSONDecodeError as e:
                raise SystemExit("--compare: %s is not valid JSON: %s" %
                                 (p, e))
    return reports[0], reports[1]


def require(report, key, name):
    """A missing key in a report is a schema mismatch (usually a stale
    baseline), not a crash site: fail with the fix spelled out."""
    if key not in report:
        raise SystemExit("--compare: %s has no '%s' key -- the baseline "
                         "predates the current report schema; regenerate "
                         "it with tools/benchreport.py" % (name, key))
    return report[key]


def compare_ratios(label, fresh_ratios, base_ratios, failures,
                   higher_is_better=True):
    """Flags entries of a name->ratio map that regressed by more than
    COMPARE_TOLERANCE relative to the baseline.  Ratios are
    machine-relative (speedups, shares), so they are comparable across
    hosts in a way raw nanoseconds are not.  Every key that cannot be
    compared -- missing on one side, non-numeric, or anchored on a
    non-positive baseline -- gets an explicit note; silence here would
    read as a pass."""
    if fresh_ratios is None or base_ratios is None:
        print("[compare] %s: %s ratios unavailable -- NOT COMPARED" %
              (label, "fresh" if fresh_ratios is None else "baseline"))
        return
    for key in sorted(set(fresh_ratios) | set(base_ratios)):
        if key not in base_ratios:
            print("[compare] %s %s: no baseline entry -- NOT COMPARED "
                  "(new arm? regenerate the baseline)" % (label, key))
            continue
        if key not in fresh_ratios:
            print("[compare] %s %s: no fresh entry -- NOT COMPARED "
                  "(removed arm? stale baseline)" % (label, key))
            continue
        fresh, base = fresh_ratios[key], base_ratios[key]
        if not isinstance(fresh, (int, float)) or \
                not isinstance(base, (int, float)):
            print("[compare] %s %s: non-numeric ratio (baseline %r, "
                  "current %r) -- NOT COMPARED" % (label, key, base, fresh))
            continue
        if base <= 0:
            # A non-positive baseline ratio cannot anchor a relative
            # comparison; say so rather than silently passing.
            print("[compare] %s %s: baseline ratio %.3f is not "
                  "comparable -- NOT COMPARED" % (label, key, base))
            continue
        if higher_is_better:
            regressed = fresh < base * (1.0 - COMPARE_TOLERANCE)
        else:
            regressed = fresh > base * (1.0 + COMPARE_TOLERANCE)
        verdict = "REGRESSED" if regressed else "ok"
        print("[compare] %s %s: baseline %.3f, current %.3f -> %s" %
              (label, key, base, fresh, verdict))
        if regressed:
            failures.append("%s %s: %.3f -> %.3f (tolerance %d%%)" %
                            (label, key, base, fresh,
                             int(COMPARE_TOLERANCE * 100)))


def kernel_shares(report, name):
    """Per-kernel fraction of the summed pipeline time: relative cost
    structure, stable across machines of different absolute speed.
    \p name says which BENCH file the report came from, so a schema
    mismatch points at the offending file instead of leaving the
    reader to guess among the committed baselines."""
    kernels = require(report, "kernels", name)
    total = 0
    for kernel, v in kernels.items():
        if not isinstance(v, dict) or "real_time_ns" not in v:
            raise SystemExit("--compare: %s kernel '%s' has no "
                             "'real_time_ns' key -- the report is "
                             "malformed; regenerate it with "
                             "tools/benchreport.py" % (name, kernel))
        total += v["real_time_ns"]
    if total <= 0:
        # Zero summed time means the capture is broken (or empty); a
        # share map would divide by zero, and an empty map would make
        # the comparison vacuously pass.  Return None so compare_ratios
        # prints an explicit NOT COMPARED note instead.
        print("[compare] %s: kernel times sum to %s ns -- per-kernel "
              "shares are undefined" % (name, total))
        return None
    return {n: v["real_time_ns"] / total for n, v in kernels.items()}


def compare_scaling(section, fresh, base, failures):
    """One scaling leg: every counter of every point exactly, then each
    fresh counter's log-log slope between the two largest points.  A
    counter that is zero at both points is flat; one that falls to zero
    shrank."""
    points = require(fresh, "points",
                     "fresh BENCH_metrics.json %s" % section)
    base_points = require(base, "points",
                          "baseline BENCH_metrics.json %s" % section)
    for unroll in sorted(set(points) | set(base_points), key=int):
        fc, bc = points.get(unroll, {}), base_points.get(unroll, {})
        for key in sorted(set(fc) | set(bc)):
            fv, bv = fc.get(key), bc.get(key)
            if fv != bv:
                failures.append("counter %s@%s/%s: baseline %s, "
                                "current %s (exact match required)" %
                                (section, unroll, key, bv, fv))
    max_slope = require(fresh, "max_slope",
                        "fresh BENCH_metrics.json %s" % section)
    exempt = fresh.get("exempt", {})
    if len(points) < 2:
        failures.append("%s leg has %d point(s); the slope needs two"
                        % (section, len(points)))
        return
    lo, hi = sorted(points, key=int)[-2:]
    for key in sorted(set(points[lo]) | set(points[hi])):
        a, b = points[lo].get(key, 0), points[hi].get(key, 0)
        if a == 0 and b == 0:
            print("[compare] %s %s: 0 at x%s and x%s -> flat" %
                  (section, key, lo, hi))
            continue
        if b == 0:
            continue
        if a == 0:
            slope = float("inf")
        else:
            _, slope = fit_power_law([(int(lo), a), (int(hi), b)])
        if slope <= max_slope:
            print("[compare] %s %s: slope %.3f (x%s -> x%s) -> ok" %
                  (section, key, slope, lo, hi))
        elif key in exempt:
            print("[compare] %s %s: slope %.3f EXEMPT: %s" %
                  (section, key, slope, exempt[key]))
        else:
            failures.append("%s %s grows with slope %.3f from x%s to "
                            "x%s (max %s)" %
                            (section, key, slope, lo, hi, max_slope))


def compare_reports(fresh_dir, base_dir):
    """Diffs fresh reports against committed baselines; exits nonzero
    on any >25% regression of a comparable metric."""
    failures = []

    def enforce_gate(gate, label):
        """A failing gate fails the comparison -- unless the capture
        was marked non-gating (debug provenance), which is loud but
        not binding.  Skipped gates and non-gating passes say so
        explicitly: a bare "no regressions" line after a gate that
        never ran (or ran on unoptimized code) is a misleading PASS."""
        if gate.get("skipped"):
            print("[compare] %s SKIPPED on this host -- NOT ENFORCED "
                  "(its pass flag is vacuous, not evidence)" % label)
            return
        if gate.get("pass"):
            if not gate.get("gating", True):
                print("[compare] %s passed on a NON-GATING (non-release) "
                      "capture -- not evidence of performance" % label)
            return
        if not gate.get("gating", True):
            print("[compare] %s FAILED but is marked non-gating "
                  "(non-release capture) -- not enforced" % label)
            return
        failures.append("%s failed: %s" % (label, json.dumps(
            {k: v for k, v in gate.items()
             if k not in ("description", "extrapolation")})))

    fresh, base = load_pair(fresh_dir, base_dir, "BENCH_frustum.json")
    compare_ratios("frustum speedup @",
                   require(fresh, "speedup_by_chains",
                           "fresh BENCH_frustum.json"),
                   require(base, "speedup_by_chains",
                           "baseline BENCH_frustum.json"), failures)
    enforce_gate(require(fresh, "gate", "fresh BENCH_frustum.json"),
                 "frustum gate")
    enforce_gate(require(fresh, "at_scale_gate", "fresh BENCH_frustum.json"),
                 "frustum at-scale gate")
    enforce_gate(require(fresh, "analytic_gate", "fresh BENCH_frustum.json"),
                 "frustum analytic gate")
    enforce_gate(require(fresh, "rate_gate", "fresh BENCH_frustum.json"),
                 "rate-engine gate")

    fresh, base = load_pair(fresh_dir, base_dir, "BENCH_pipeline.json")
    compare_ratios("pipeline share",
                   kernel_shares(fresh, "fresh BENCH_pipeline.json"),
                   kernel_shares(base, "baseline BENCH_pipeline.json"),
                   failures, higher_is_better=False)

    # The store's warm-over-cold ratio is machine-relative (both arms
    # run on the same host), but its magnitude rides on artifact-decode
    # vs analysis cost, which swings with host load far more than the
    # frustum or batch ratios.  So the binding check is the invariant --
    # a warm replay must never lose to a cold recompute -- and the
    # baseline delta is reported for the record, not enforced.
    fresh, base = load_pair(fresh_dir, base_dir, "BENCH_store.json")
    fresh_speedup = require(fresh, "warm_speedup", "fresh BENCH_store.json")
    base_speedup = require(base, "warm_speedup", "baseline BENCH_store.json")
    floor = 1.0 - COMPARE_TOLERANCE
    # warm_speedup is None when the warm arm measured zero time, i.e.
    # the capture itself is broken.  Coercing that to 0.0 used to
    # produce the misleading "warm replay lost to cold recompute";
    # report the real defect instead (and only note, never enforce, a
    # broken *baseline*).
    if not isinstance(base_speedup, (int, float)):
        print("[compare] store warm_speedup: baseline value %r is not "
              "numeric -- NOT COMPARED against it (regenerate the "
              "baseline)" % (base_speedup,))
    if not isinstance(fresh_speedup, (int, float)):
        failures.append("store warm_speedup is %r in the fresh report: "
                        "the warm-replay arm measured no time, so the "
                        "capture is broken" % (fresh_speedup,))
    else:
        base_str = ("%.3f" % base_speedup
                    if isinstance(base_speedup, (int, float)) else
                    repr(base_speedup))
        verdict = "REGRESSED" if fresh_speedup < floor else "ok"
        print("[compare] store warm_speedup: baseline %s, current %.3f, "
              "floor %.2f -> %s" % (base_str, fresh_speedup, floor,
                                    verdict))
        if fresh_speedup < floor:
            failures.append("store warm_speedup %.3f: warm replay lost to "
                            "cold recompute (floor %.2f)" %
                            (fresh_speedup, floor))

    fresh, base = load_pair(fresh_dir, base_dir, "BENCH_batch.json")
    gate = require(fresh, "gate", "fresh BENCH_batch.json")
    batch_gate = gate
    # Thread-speedups are only meaningful up to the CPU count, and only
    # comparable up to the smaller of the two hosts'.
    fresh_cpus = gate.get("num_cpus", 0)
    base_cpus = require(base, "gate",
                        "baseline BENCH_batch.json").get("num_cpus", 0)
    cpu_floor = min(fresh_cpus, base_cpus)
    if cpu_floor <= 0:
        # A zero/missing CPU count would filter *every* thread arm out
        # of both maps and the comparison would pass vacuously.
        print("[compare] batch speedups: NOT COMPARED (num_cpus is %s "
              "fresh, %s baseline -- no thread arm is comparable)" %
              (fresh_cpus, base_cpus))
    else:
        comparable = lambda m: {k: v for k, v in m.items()
                                if int(k) <= cpu_floor}
        compare_ratios("batch speedup @",
                       comparable(require(fresh, "speedup_by_threads",
                                          "fresh BENCH_batch.json")),
                       comparable(require(base, "speedup_by_threads",
                                          "baseline BENCH_batch.json")),
                       failures)
    enforce_gate(batch_gate, "batch gate")

    # Counters are exact: the slightest delta means the pipeline did
    # different work than the baseline run, which is a semantic change
    # (or a baseline in need of regeneration), never machine noise.
    fresh, base = load_pair(fresh_dir, base_dir, "BENCH_metrics.json")
    for section, _ in METRICS_LEGS:
        fc = require(fresh, section, "fresh BENCH_metrics.json")
        bc = require(base, section, "baseline BENCH_metrics.json")
        prefix = "" if section == "counters" else section + "/"
        for key in sorted(set(fc) | set(bc)):
            fv, bv = fc.get(key), bc.get(key)
            if fv != bv:
                failures.append("counter %s%s: baseline %s, current %s "
                                "(exact match required)" %
                                (prefix, key, bv, fv))
            else:
                print("[compare] counter %s%s: %s == %s -> ok" %
                      (prefix, key, bv, fv))

    for section in SCALING_SECTIONS:
        compare_scaling(section,
                        require(fresh, section, "fresh BENCH_metrics.json"),
                        require(base, section,
                                "baseline BENCH_metrics.json"),
                        failures)

    if failures:
        raise SystemExit("perf regressions vs %s:\n  " % base_dir +
                         "\n  ".join(failures))
    print("[compare] no regressions beyond %d%% vs %s" %
          (int(COMPARE_TOLERANCE * 100), base_dir))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build tree holding bench/ binaries")
    ap.add_argument("--out-dir", default=".",
                    help="where BENCH_*.json are written (repo root)")
    ap.add_argument("--min-time", default="0.05",
                    help="--benchmark_min_time value, passed verbatim")
    ap.add_argument("--smoke", action="store_true",
                    help="run every bench binary once, fail on crashes")
    ap.add_argument("--skip-report", action="store_true",
                    help="with --smoke: skip the JSON aggregation step")
    ap.add_argument("--compare", metavar="BASELINE_DIR",
                    help="after generating reports into --out-dir, diff "
                         "them against the committed BENCH_*.json in "
                         "BASELINE_DIR and fail on >25%% regression")
    ap.add_argument("--allow-debug", action="store_true",
                    help="accept captures from non-Release builds; their "
                         "gates are loudly marked non-gating instead of "
                         "the capture being refused")
    args = ap.parse_args()
    global ALLOW_DEBUG
    ALLOW_DEBUG = args.allow_debug

    os.makedirs(args.out_dir, exist_ok=True)
    bench_dir = os.path.join(args.build_dir, "bench")
    if not os.path.isdir(bench_dir):
        raise SystemExit("no bench directory at %s (build with "
                         "-DSDSP_BUILD_BENCHMARKS=ON)" % bench_dir)

    if args.smoke:
        smoke(bench_dir, args.min_time)
        if args.skip_report:
            return

    jobs = [
        (FRUSTUM_BENCH, frustum_report, "BENCH_frustum.json"),
        (PIPELINE_BENCH, pipeline_report, "BENCH_pipeline.json"),
        (BATCH_BENCH, batch_report, "BENCH_batch.json"),
        (STORE_BENCH, store_report, "BENCH_store.json"),
    ]
    for binary, distill, out_name in jobs:
        path = os.path.join(bench_dir, binary)
        if not os.path.isfile(path):
            raise SystemExit("missing bench binary: %s" % path)
        raw = os.path.join(args.out_dir, out_name + ".raw")
        report = distill(run_bench(path, raw, args.min_time))
        os.remove(raw)
        out_path = os.path.join(args.out_dir, out_name)
        with open(out_path, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % out_path)

    passes = passes_report(bench_dir, args.out_dir, args.min_time)
    passes_path = os.path.join(args.out_dir, "BENCH_passes.json")
    with open(passes_path, "w") as f:
        json.dump(passes, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % passes_path)

    metrics = metrics_report(args.build_dir, args.out_dir)
    metrics_path = os.path.join(args.out_dir, "BENCH_metrics.json")
    with open(metrics_path, "w") as f:
        json.dump(metrics, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % metrics_path)

    frustum = json.load(open(os.path.join(args.out_dir,
                                          "BENCH_frustum.json")))
    g = frustum["gate"]
    nongating = "" if g.get("gating", True) else " [NON-GATING capture]"
    print("frustum gate: %sx at %s chains (threshold %sx) -> %s%s" %
          (g["speedup"], g["chains"], g["threshold"],
           "PASS" if g["pass"] else "FAIL", nongating))
    asg = frustum["at_scale_gate"]
    print("at-scale gate: measured %sx at n=%s, extrapolated %sx at "
          "n=%s (threshold %sx) -> %s%s" %
          (asg.get("measured_speedup_at_%s" % AT_SCALE_GATE_ARG),
           AT_SCALE_GATE_ARG,
           asg.get("extrapolated_speedup_at_%s" % AT_SCALE_EXTRAP_ARG),
           AT_SCALE_EXTRAP_ARG, asg["threshold"],
           "PASS" if asg["pass"] else "FAIL", nongating))
    ag = frustum["analytic_gate"]
    print("analytic gate: measured %sx at n=%s (fast engine %sx over "
          "analytic there), extrapolated %sx at n=%s (threshold %sx) "
          "-> %s%s" %
          (ag.get("measured_speedup_at_%s" % AT_SCALE_GATE_ARG),
           AT_SCALE_GATE_ARG,
           ag.get("fast_engine_over_analytic_at_%s" % AT_SCALE_GATE_ARG),
           ag.get("extrapolated_speedup_at_%s" % AT_SCALE_EXTRAP_ARG),
           AT_SCALE_EXTRAP_ARG, ag["threshold"],
           "PASS" if ag["pass"] else "FAIL", nongating))
    rg = frustum["rate_gate"]
    print("rate gate: Howard %sx vs enumeration at N=%s (threshold "
          "%sx) -> %s%s" %
          (rg["speedup"], RATE_GATE_ARG, rg["threshold"],
           "PASS" if rg["pass"] else "FAIL", nongating))

    bg = json.load(open(os.path.join(args.out_dir,
                                     "BENCH_batch.json")))["gate"]
    print("batch gate: %sx at %s threads (threshold %sx, %s CPUs) -> %s" %
          (bg["speedup"], bg["threads"], bg["threshold"], bg["num_cpus"],
           "SKIPPED (num_cpus < %s)" % bg["threads"] if bg["skipped"]
           else ("PASS" if bg["pass"] else "FAIL")))

    store = json.load(open(os.path.join(args.out_dir, "BENCH_store.json")))
    print("store: warm replay %sx over cold fill" % store["warm_speedup"])

    if args.compare:
        compare_reports(args.out_dir, args.compare)


if __name__ == "__main__":
    main()
