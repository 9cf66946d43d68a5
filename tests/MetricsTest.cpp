//===- tests/MetricsTest.cpp - Counter/gauge registry ----------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// support/Metrics.h unit contracts (name-sorted snapshots, the
// counter/gauge split, the "sdsp-metrics-v1" JSON shape) plus the
// pipeline integration: compiling a kernel flushes the earliest-firing
// engine and state-table counters into the global registry via the
// frustum detector (docs/OBSERVABILITY.md).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "core/Session.h"
#include "livermore/Livermore.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace sdsp;

namespace {

uint64_t counterOf(const MetricsRegistry::Snapshot &S,
                   const std::string &Name) {
  for (const auto &[N, V] : S.Counters)
    if (N == Name)
      return V;
  ADD_FAILURE() << "no counter named " << Name;
  return 0;
}

TEST(MetricsTest, CountersAccumulateAndSortByName) {
  MetricsRegistry R;
  R.add("zeta");
  R.add("alpha", 5);
  R.add("zeta", 2);
  MetricsRegistry::Snapshot S = R.snapshot();
  ASSERT_EQ(S.Counters.size(), 2u);
  EXPECT_EQ(S.Counters[0].first, "alpha");
  EXPECT_EQ(S.Counters[0].second, 5u);
  EXPECT_EQ(S.Counters[1].first, "zeta");
  EXPECT_EQ(S.Counters[1].second, 3u);
}

TEST(MetricsTest, GaugesAddAndMax) {
  MetricsRegistry R;
  R.gaugeAdd("wall", 0.5);
  R.gaugeAdd("wall", 0.25);
  R.gaugeMax("peak", 3.0);
  R.gaugeMax("peak", 2.0); // Lower value must not win.
  MetricsRegistry::Snapshot S = R.snapshot();
  ASSERT_EQ(S.Gauges.size(), 2u);
  EXPECT_EQ(S.Gauges[0].first, "peak");
  EXPECT_DOUBLE_EQ(S.Gauges[0].second, 3.0);
  EXPECT_EQ(S.Gauges[1].first, "wall");
  EXPECT_DOUBLE_EQ(S.Gauges[1].second, 0.75);
}

TEST(MetricsTest, ResetClearsBothSeriesKinds) {
  MetricsRegistry R;
  R.add("c");
  R.gaugeAdd("g", 1.0);
  R.reset();
  MetricsRegistry::Snapshot S = R.snapshot();
  EXPECT_TRUE(S.Counters.empty());
  EXPECT_TRUE(S.Gauges.empty());
}

TEST(MetricsTest, JsonShapeSplitsCountersFromGauges) {
  MetricsRegistry R;
  R.add("engine.firings", 42);
  R.gaugeAdd("executor.task_wall_seconds", 1.5);
  std::ostringstream OS;
  MetricsRegistry::writeJson(R.snapshot(), OS);
  std::string Json = OS.str();
  EXPECT_NE(Json.find("\"schema\": \"sdsp-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"engine.firings\": 42"), std::string::npos);
  EXPECT_NE(Json.find("\"executor.task_wall_seconds\": 1.500000"),
            std::string::npos);
  // Counters and gauges are separate objects: determinism comparisons
  // (tracecheck.py metrics-diff, the -j sweep ctest) read only the
  // former.
  size_t Counters = Json.find("\"counters\"");
  size_t Gauges = Json.find("\"gauges\"");
  ASSERT_NE(Counters, std::string::npos);
  ASSERT_NE(Gauges, std::string::npos);
  EXPECT_LT(Counters, Gauges);
}

TEST(MetricsTest, CompilePopulatesEngineCounters) {
  const LivermoreKernel *K = findKernel("l1");
  ASSERT_NE(K, nullptr);
  MetricsRegistry &MR = MetricsRegistry::global();
  MR.reset();
  CompilationSession Session;
  PipelineOptions Opts;
  Opts.Verify = true;
  auto R = Session.compile(K->Source, Opts);
  ASSERT_TRUE(bool(R)) << R.status().str();

  MetricsRegistry::Snapshot S = MR.snapshot();
  EXPECT_GT(counterOf(S, "engine.firings"), 0u);
  EXPECT_GT(counterOf(S, "engine.enabled_rebuilds"), 0u);
  EXPECT_GT(counterOf(S, "packedstate.probes"), 0u);
  EXPECT_EQ(counterOf(S, "frustum.detections"), 1u);
  MR.reset(); // Leave the process-wide registry clean for other tests.
}

/// The default rate engine counts Howard's policy iterations whenever
/// Howard answers (nets above 64 transitions) and adds nothing when
/// cycle enumeration does.
TEST(MetricsTest, DefaultRateEngineCountsHowardIterations) {
  const LivermoreKernel *K = findKernel("loop7");
  ASSERT_NE(K, nullptr);
  MetricsRegistry &MR = MetricsRegistry::global();
  auto HowardIterations = [&](uint32_t Unroll) {
    MR.reset();
    CompilationSession Session;
    PipelineOptions Opts;
    Opts.Unroll = Unroll;
    Opts.StopAfter = PipelineStage::Petri;
    auto R = Session.compile(K->Source, Opts);
    EXPECT_TRUE(bool(R)) << R.status().str();
    uint64_t Iterations = 0;
    for (const auto &[N, V] : MR.snapshot().Counters)
      if (N == "rate.howard.iterations")
        Iterations += V;
    return Iterations;
  };
  EXPECT_GT(HowardIterations(16), 0u);
  EXPECT_EQ(HowardIterations(1), 0u);
  MR.reset();
}

} // namespace
