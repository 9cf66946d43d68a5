#!/usr/bin/env python3
"""Self-test for tools/benchreport.py's --compare paths.

Synthesizes hostile BENCH_*.json fixture pairs -- zero baselines,
skipped gates, None warm_speedup, one-sided keys, non-numeric ratios,
missing CPU counts -- and asserts that every non-comparable metric gets
an explicit note instead of a silent (vacuous) pass, and that genuinely
broken fresh captures fail with a message naming the real defect.

Each check here pins a bug that existed in earlier versions of the
comparator:

  * set-intersection key matching silently dropped arms present on only
    one side;
  * kernel_shares() returned {} when the summed kernel time was zero,
    making the pipeline-share comparison vacuously pass;
  * enforce_gate() printed nothing for skipped gates (whose "pass" flag
    is true by construction) and nothing for gates that passed on a
    --allow-debug (non-gating) capture;
  * a None warm_speedup was coerced to 0.0 and reported as "warm replay
    lost to cold recompute" -- a plausible-sounding lie about a broken
    capture;
  * a zero/missing num_cpus filtered every thread arm out of both batch
    maps, so the batch comparison passed without comparing anything;
  * metrics_report kept per-shard cache splits and byte estimates,
    which differ between hosts, so the exact counter comparison failed
    on another host even when the code was unchanged;
  * BENCH_metrics.json held only the ideal-machine leg, so no exact
    counter watched the SCP machine's policy-driven engine (the
    scp_counters section must be compared exactly, and required; so
    must the cap2_counters section of the two-slot-buffer leg);
  * only the SCP machine had scaling points, so the ideal-machine
    verify could grow super-linearly unseen (the ideal_scaling section
    must be compared and required), and a counter that is zero at
    every point was skipped without a word (it is reported flat);
  * no scaling leg covered an imported net, so the PNML reader, import
    classification and the rate pass could grow super-linearly on a
    large document unseen (the ring_scaling section must be compared
    and required, and exempts nothing);
  * the SCP scaling leg exempted packedstate.arena_words while every
    stored state held the whole marking; the state table now logs what
    changes, so no leg exempts anything and that counter's slope is
    held to 1.1 like every other.

Standard library only; pytest-style test_* functions run by a tiny
driver so ctest can invoke this file directly.
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchreport


def default_reports():
    """A minimal, mutually consistent fresh/baseline report set that
    compares clean: every gate passes, every ratio matches."""
    gate_common = {"threshold": 1.0, "gating": True, "pass": True}
    frustum = {
        "speedup_by_chains": {"682": 8.0, "65536": 30.0},
        "gate": dict(gate_common, speedup=8.0),
        "at_scale_gate": dict(gate_common, speedup=30.0),
        "analytic_gate": dict(gate_common, speedup=12.0),
        "rate_gate": dict(gate_common, speedup=15.0),
    }
    pipeline = {"kernels": {"loop1": {"real_time_ns": 1000.0},
                            "loop2": {"real_time_ns": 3000.0}}}
    store = {"warm_speedup": 2.0}
    batch = {"speedup_by_threads": {"1": 1.0, "2": 1.8, "4": 3.1, "8": 4.0},
             "gate": dict(gate_common, num_cpus=8, skipped=False,
                          speedup=4.0)}
    metrics = {"counters": {"engine.firings": 42, "hash.words": 5117},
               "scp_counters": {"policy.readiness_checks": 7},
               "cap2_counters": {"packedstate.arena_words": 93},
               "scaling": {
                   "points": {
                       "64": {"engine.firings": 100,
                              "packedstate.arena_words": 50},
                       "128": {"engine.firings": 200,
                               "packedstate.arena_words": 200},
                       "256": {"engine.firings": 400,
                               "packedstate.arena_words": 800}},
                   "max_slope": 1.1,
                   "exempt": {"packedstate.arena_words": "quadratic"}},
               "ideal_scaling": {
                   "points": {
                       "256": {"engine.firings": 1000,
                               "marked_graph.safe.edge_scans": 0},
                       "512": {"engine.firings": 2000,
                               "marked_graph.safe.edge_scans": 0},
                       "1024": {"engine.firings": 4000,
                                "marked_graph.safe.edge_scans": 0}},
                   "max_slope": 1.1,
                   "exempt": {}},
               "ring_scaling": {
                   "points": {
                       "16384": {"pnml.places": 16384,
                                 "rate.howard.iterations": 1},
                       "65536": {"pnml.places": 65536,
                                 "rate.howard.iterations": 1}},
                   "max_slope": 1.1,
                   "exempt": {}}}
    return {
        "BENCH_frustum.json": frustum,
        "BENCH_pipeline.json": pipeline,
        "BENCH_store.json": store,
        "BENCH_batch.json": batch,
        "BENCH_metrics.json": metrics,
    }


def run_compare(mutate_fresh=None, mutate_base=None):
    """Writes a fixture pair (after optional mutation) and runs
    compare_reports, returning (stdout_text, SystemExit_or_None)."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh_dir = os.path.join(tmp, "fresh")
        base_dir = os.path.join(tmp, "base")
        os.makedirs(fresh_dir)
        os.makedirs(base_dir)
        fresh = default_reports()
        base = copy.deepcopy(fresh)
        if mutate_fresh:
            mutate_fresh(fresh)
        if mutate_base:
            mutate_base(base)
        for d, reports in ((fresh_dir, fresh), (base_dir, base)):
            for name, content in reports.items():
                with open(os.path.join(d, name), "w") as f:
                    json.dump(content, f)
        out = io.StringIO()
        err = None
        with contextlib.redirect_stdout(out):
            try:
                benchreport.compare_reports(fresh_dir, base_dir)
            except SystemExit as e:
                err = e
        return out.getvalue(), err


def test_clean_pair_passes():
    out, err = run_compare()
    assert err is None, "clean fixture pair must compare clean: %s" % err
    assert "no regressions" in out


def test_one_sided_keys_are_noted():
    # An arm present only in the fresh report and another present only
    # in the baseline: both must be NOT COMPARED, loudly, not dropped.
    def fresh(r):
        r["BENCH_frustum.json"]["speedup_by_chains"]["262144"] = 25.0
    def base(r):
        r["BENCH_frustum.json"]["speedup_by_chains"]["4096"] = 11.0
    out, err = run_compare(fresh, base)
    assert err is None, "one-sided keys must not fail the compare: %s" % err
    assert "262144: no baseline entry -- NOT COMPARED" in out
    assert "4096: no fresh entry -- NOT COMPARED" in out


def test_non_numeric_ratio_is_noted_not_crashed():
    def base(r):
        r["BENCH_frustum.json"]["speedup_by_chains"]["682"] = None
    out, err = run_compare(mutate_base=base)
    assert err is None, "a None ratio must not raise: %s" % err
    assert "682: non-numeric ratio" in out
    assert "NOT COMPARED" in out


def test_zero_baseline_ratio_is_noted():
    def base(r):
        r["BENCH_frustum.json"]["speedup_by_chains"]["682"] = 0.0
    out, err = run_compare(mutate_base=base)
    assert err is None
    assert "baseline ratio 0.000 is not comparable -- NOT COMPARED" in out


def test_zero_kernel_total_is_not_a_silent_pass():
    def base(r):
        for v in r["BENCH_pipeline.json"]["kernels"].values():
            v["real_time_ns"] = 0.0
    out, err = run_compare(mutate_base=base)
    assert err is None
    assert "kernel times sum to" in out
    assert "baseline ratios unavailable -- NOT COMPARED" in out


def test_skipped_gate_is_announced():
    # A skipped batch gate has pass=True by construction; the compare
    # must say it was skipped rather than implying it was checked.
    def both(r):
        r["BENCH_batch.json"]["gate"].update(skipped=True, speedup=None,
                                            num_cpus=2)
    out, err = run_compare(both, both)
    assert err is None
    assert "batch gate SKIPPED on this host -- NOT ENFORCED" in out


def test_non_gating_pass_is_announced():
    def fresh(r):
        for g in ("gate", "at_scale_gate", "analytic_gate", "rate_gate"):
            r["BENCH_frustum.json"][g]["gating"] = False
    out, err = run_compare(fresh)
    assert err is None
    assert "NON-GATING (non-release) capture -- not evidence" in out


def test_non_gating_failure_is_not_enforced():
    def fresh(r):
        r["BENCH_frustum.json"]["analytic_gate"].update({"pass": False,
                                                        "gating": False})
    out, err = run_compare(fresh)
    assert err is None, "non-gating failure must not be enforced: %s" % err
    assert "frustum analytic gate FAILED but is marked non-gating" in out


def test_failing_analytic_gate_is_enforced():
    def fresh(r):
        r["BENCH_frustum.json"]["analytic_gate"]["pass"] = False
    out, err = run_compare(fresh)
    assert err is not None, "a failing analytic gate must fail the compare"
    assert "frustum analytic gate failed" in str(err)


def test_none_warm_speedup_names_the_real_defect():
    def fresh(r):
        r["BENCH_store.json"]["warm_speedup"] = None
    out, err = run_compare(fresh)
    assert err is not None, "a broken store capture must fail the compare"
    msg = str(err)
    assert "capture is broken" in msg
    assert "lost to cold recompute" not in msg, \
        "None must not be coerced into a fake 0.0 speedup verdict"


def test_none_baseline_warm_speedup_is_only_noted():
    def base(r):
        r["BENCH_store.json"]["warm_speedup"] = None
    out, err = run_compare(mutate_base=base)
    assert err is None, "a broken *baseline* must not fail the compare: %s" \
        % err
    assert "baseline value None is not numeric -- NOT COMPARED" in out


def test_missing_num_cpus_is_not_a_vacuous_batch_pass():
    def base(r):
        r["BENCH_batch.json"]["gate"]["num_cpus"] = 0
    out, err = run_compare(mutate_base=base)
    assert err is None
    assert "batch speedups: NOT COMPARED" in out
    assert "no thread arm is comparable" in out


def test_real_regression_still_fails():
    # Sanity: the comparator still catches an actual >25% speedup drop.
    def fresh(r):
        r["BENCH_frustum.json"]["speedup_by_chains"]["682"] = 5.0
    out, err = run_compare(fresh)
    assert err is not None, "a 8.0 -> 5.0 speedup drop must fail"
    assert "682" in str(err)


def test_counter_drift_still_fails():
    def fresh(r):
        r["BENCH_metrics.json"]["counters"]["engine.firings"] = 43
    out, err = run_compare(fresh)
    assert err is not None, "counter drift must fail the compare"
    assert "exact match required" in str(err)


def test_hash_words_drift_fails():
    # hash.words counts the words content hashes fed; hashing more or
    # less of any artifact moves it.
    def fresh(r):
        r["BENCH_metrics.json"]["counters"]["hash.words"] = 6000
    out, err = run_compare(fresh)
    assert err is not None, "a hash.words delta must fail the compare"
    assert "counter hash.words: baseline 5117, current 6000" in str(err)


def test_scp_counter_drift_fails():
    def fresh(r):
        r["BENCH_metrics.json"]["scp_counters"][
            "policy.readiness_checks"] = 8
    out, err = run_compare(fresh)
    assert err is not None, "SCP counter drift must fail the compare"
    assert "counter scp_counters/policy.readiness_checks" in str(err)
    assert "exact match required" in str(err)


def test_scp_counters_are_compared_when_equal():
    out, err = run_compare()
    assert err is None
    assert ("counter scp_counters/policy.readiness_checks: 7 == 7 -> ok"
            in out)


def test_missing_scp_section_names_the_file():
    def base(r):
        del r["BENCH_metrics.json"]["scp_counters"]
    out, err = run_compare(mutate_base=base)
    assert err is not None, "a baseline without the SCP leg must not pass"
    assert "baseline BENCH_metrics.json has no 'scp_counters' key" in str(err)


def test_cap2_counter_drift_fails():
    def fresh(r):
        r["BENCH_metrics.json"]["cap2_counters"][
            "packedstate.arena_words"] = 94
    out, err = run_compare(fresh)
    assert err is not None, "capacity-2 counter drift must fail the compare"
    assert "counter cap2_counters/packedstate.arena_words" in str(err)
    assert "exact match required" in str(err)


def test_missing_cap2_section_names_the_file():
    def base(r):
        del r["BENCH_metrics.json"]["cap2_counters"]
    out, err = run_compare(mutate_base=base)
    assert err is not None, "a baseline without the capacity-2 leg must fail"
    assert ("baseline BENCH_metrics.json has no 'cap2_counters' key"
            in str(err))


def test_linear_and_exempt_slopes_pass():
    out, err = run_compare()
    assert err is None, err
    assert ("scaling engine.firings: slope 1.000 (x128 -> x256) -> ok"
            in out), out
    assert ("scaling packedstate.arena_words: slope 2.000 EXEMPT: "
            "quadratic" in out), out


def test_super_linear_slope_fails():
    def grow(r):
        r["BENCH_metrics.json"]["scaling"]["points"]["256"][
            "engine.firings"] = 1000
    out, err = run_compare(grow, grow)
    assert err is not None, "a slope above 1.1 must fail the compare"
    assert ("scaling engine.firings grows with slope 2.322 from x128 to "
            "x256 (max 1.1)" in str(err)), str(err)


def test_scaling_counter_drift_fails():
    def fresh(r):
        r["BENCH_metrics.json"]["scaling"]["points"]["64"][
            "engine.firings"] = 101
    out, err = run_compare(fresh)
    assert err is not None, "scaling counter drift must fail the compare"
    assert "counter scaling@64/engine.firings" in str(err)


def test_missing_scaling_section_names_the_file():
    def base(r):
        del r["BENCH_metrics.json"]["scaling"]
    out, err = run_compare(mutate_base=base)
    assert err is not None, "a baseline without the scaling leg must fail"
    assert "baseline BENCH_metrics.json has no 'scaling' key" in str(err)


def test_zero_counter_is_flat():
    out, err = run_compare()
    assert err is None, err
    assert ("ideal_scaling marked_graph.safe.edge_scans: 0 at x512 and "
            "x1024 -> flat" in out), out
    assert ("ideal_scaling engine.firings: slope 1.000 (x512 -> x1024) "
            "-> ok" in out), out


def test_ideal_super_linear_slope_fails():
    def grow(r):
        r["BENCH_metrics.json"]["ideal_scaling"]["points"]["1024"][
            "marked_graph.safe.edge_scans"] = 4096
        r["BENCH_metrics.json"]["ideal_scaling"]["points"]["512"][
            "marked_graph.safe.edge_scans"] = 1024
    out, err = run_compare(grow, grow)
    assert err is not None, "a verify slope above 1.1 must fail the compare"
    assert ("ideal_scaling marked_graph.safe.edge_scans grows with slope "
            "2.000 from x512 to x1024 (max 1.1)" in str(err)), str(err)


def test_ideal_scaling_counter_drift_fails():
    def fresh(r):
        r["BENCH_metrics.json"]["ideal_scaling"]["points"]["256"][
            "marked_graph.safe.edge_scans"] = 3
    out, err = run_compare(fresh)
    assert err is not None, "ideal scaling drift must fail the compare"
    assert ("counter ideal_scaling@256/marked_graph.safe.edge_scans"
            in str(err)), str(err)


def test_missing_ideal_scaling_section_names_the_file():
    def base(r):
        del r["BENCH_metrics.json"]["ideal_scaling"]
    out, err = run_compare(mutate_base=base)
    assert err is not None, "a baseline without the ideal leg must fail"
    assert ("baseline BENCH_metrics.json has no 'ideal_scaling' key"
            in str(err)), str(err)


def test_ring_super_linear_slope_fails():
    def grow(r):
        r["BENCH_metrics.json"]["ring_scaling"]["points"]["65536"][
            "pnml.places"] = 16384 * 16
    out, err = run_compare(grow, grow)
    assert err is not None, "a quadratic ring counter must fail"
    assert "ring_scaling pnml.places grows with slope 2.000" in str(err), \
        str(err)


def test_ring_scaling_counter_drift_fails():
    def fresh(r):
        r["BENCH_metrics.json"]["ring_scaling"]["points"]["16384"][
            "rate.howard.iterations"] = 2
    out, err = run_compare(fresh)
    assert err is not None, "ring scaling drift must fail the compare"
    assert ("counter ring_scaling@16384/rate.howard.iterations"
            in str(err)), str(err)


def test_missing_ring_scaling_section_names_the_file():
    def base(r):
        del r["BENCH_metrics.json"]["ring_scaling"]
    out, err = run_compare(mutate_base=base)
    assert err is not None, "a baseline without the ring leg must fail"
    assert ("baseline BENCH_metrics.json has no 'ring_scaling' key"
            in str(err)), str(err)


def test_scaling_legs_exempt_nothing():
    for section, _, _, exempt in benchreport.SCALING_LEGS:
        assert exempt == {}, "%s exempts %s" % (section, exempt)


def unexempt_scaling(r):
    r["BENCH_metrics.json"]["scaling"]["exempt"] = {}


def test_unexempted_arena_words_slope_fails():
    out, err = run_compare(unexempt_scaling, unexempt_scaling)
    assert err is not None, "a quadratic state table must fail the compare"
    assert ("scaling packedstate.arena_words grows with slope 2.000 from "
            "x128 to x256 (max 1.1)" in str(err)), str(err)


def test_unexempted_linear_arena_words_pass():
    def linear(r):
        unexempt_scaling(r)
        points = r["BENCH_metrics.json"]["scaling"]["points"]
        for unroll in points:
            points[unroll]["packedstate.arena_words"] = 3 * int(unroll)
    out, err = run_compare(linear, linear)
    assert err is None, err
    assert ("scaling packedstate.arena_words: slope 1.000 (x128 -> x256) "
            "-> ok" in out), out


def test_host_dependent_counters_are_dropped():
    kept = benchreport.host_independent_counters({
        "engine.firings": 217,
        "cache.shard03.hits": 2,
        "cache.bytes": 4096,
        "marked_graph.safe.edge_scans": 640,
        "hash.words": 5117,
    })
    assert kept == {"engine.firings": 217,
                    "marked_graph.safe.edge_scans": 640,
                    "hash.words": 5117}, kept


def main():
    tests = sorted((name, fn) for name, fn in globals().items()
                   if name.startswith("test_") and callable(fn))
    failed = []
    for name, fn in tests:
        try:
            fn()
            print("PASS %s" % name)
        except AssertionError as e:
            failed.append(name)
            print("FAIL %s: %s" % (name, e))
    if failed:
        raise SystemExit("benchreport selftest failures: %s" %
                         ", ".join(failed))
    print("benchreport selftest: %d tests passed" % len(tests))


if __name__ == "__main__":
    main()
