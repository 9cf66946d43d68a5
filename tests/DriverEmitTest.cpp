//===- tests/DriverEmitTest.cpp - sdspc's behavior graph vs a re-run -------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sdspc's --emit=dot-behavior renders the behavior graph of the trace
/// the frustum search recorded.  The oracle is a second simulation of
/// the same window: a fresh EarliestFiringEngine under the compile's
/// policy, reset, stepped one instant at a time up to the repeat
/// instant.  The cases cover a timed net whose search leaps idle
/// stretches, SCP nets under FIFO with two pipelines, ideal-machine
/// nets with two-slot buffers, and a trace the analytic engine
/// constructs instead of simulating.
///
//===----------------------------------------------------------------------===//

#include "tools/DriverCore.h"

#include "core/Frustum.h"
#include "livermore/Livermore.h"
#include "petri/BehaviorGraph.h"
#include "gtest/gtest.h"

#include <sstream>
#include <string>
#include <vector>

using namespace sdsp;

namespace {

/// What sdspc prints for `-k <Args...> --emit=dot-behavior`, and the
/// options it parsed.
std::string driverDot(const std::vector<std::string> &Args,
                      driver::Options &Opts) {
  std::vector<std::string> Full = Args;
  Full.push_back("--emit=dot-behavior");
  std::ostringstream Out, Err;
  EXPECT_EQ(driver::parseArgs(Full, Opts, Out, Err), driver::ParseResult::Ok)
      << Err.str();
  EXPECT_EQ(driver::run(Opts, driver::Env(), Out, Err), 0) << Err.str();
  EXPECT_EQ(Out.str().rfind("digraph \"behavior\"", 0), 0u) << Out.str();
  return Out.str();
}

/// The oracle's rendering, and how many of its instants were idle (the
/// instants a leaping search does not simulate).
struct Resimulated {
  std::string Dot;
  size_t IdleRows = 0;
};

/// Compiles \p Opts' kernel up to the frustum and renders the window by
/// stepping a fresh engine through it.
Resimulated resimulate(const driver::Options &Opts) {
  Resimulated R;
  PipelineOptions Pipe = Opts.Pipe;
  Pipe.StopAfter = PipelineStage::Frustum;
  CompilationSession Session;
  Expected<CompiledLoop> CL =
      Session.compile(findKernel(Opts.KernelId)->Source, Pipe);
  EXPECT_TRUE(CL.ok()) << CL.status().str();
  if (!CL)
    return R;
  const FrustumInfo &F = *CL->Frustum;
  const PetriNet &Net = CL->machineNet();
  if (CL->Policy)
    CL->Policy->reset();
  EarliestFiringEngine Engine(Net, CL->Policy.get());
  BehaviorGraph BG(Net);
  while (Engine.now() < F.RepeatTime) {
    StepRecord Rec = Engine.fireAndAdvance();
    R.IdleRows += Rec.Completed.empty() && Rec.Fired.empty();
    BG.recordStep(Rec);
  }
  std::ostringstream OS;
  BG.printDot(OS, "behavior", F.StartTime, F.RepeatTime);
  R.Dot = OS.str();
  return R;
}

TEST(DriverDotBehavior, TimedNetWithIdleStretches) {
  // Six-stage pipeline dummies make l2's recurrence idle the machine
  // between issues, so the search leaps instants it records as empty
  // rows.
  driver::Options Opts;
  std::string Dot = driverDot({"-k", "l2", "--scp=6"}, Opts);
  Resimulated Oracle = resimulate(Opts);
  EXPECT_GT(Oracle.IdleRows, 0u);
  EXPECT_EQ(Dot, Oracle.Dot);
}

TEST(DriverDotBehavior, ScpNetUnderFifo) {
  // Two pipelines: the run place holds two tokens, and the FIFO policy
  // picks among the conflicting issues at every instant.
  for (const char *Id : {"loop7", "loop9lcd"}) {
    driver::Options Opts;
    std::string Dot =
        driverDot({"-k", Id, "--scp=2", "--pipelines=2"}, Opts);
    EXPECT_EQ(Dot, resimulate(Opts).Dot) << Id;
  }
}

TEST(DriverDotBehavior, IdealMachine) {
  for (const char *Id : {"loop1", "loop7"}) {
    driver::Options Opts;
    std::string Dot =
        driverDot({"-k", Id, "--unroll=4", "--capacity=2"}, Opts);
    EXPECT_EQ(Dot, resimulate(Opts).Dot) << Id;
  }
}

TEST(DriverDotBehavior, AnalyticEngine) {
  driver::Options Opts;
  std::string Dot = driverDot(
      {"-k", "loop9lcd", "--unroll=4", "--engine=analytic"}, Opts);
  Resimulated Oracle = resimulate(Opts);
  EXPECT_EQ(Dot, Oracle.Dot);

  // The net qualifies, so the trace rendered is the analytic engine's
  // construction, not its simulation fallback.
  CompilationSession Session;
  PipelineOptions Pipe = Opts.Pipe;
  Pipe.StopAfter = PipelineStage::Petri;
  Expected<CompiledLoop> CL =
      Session.compile(findKernel(Opts.KernelId)->Source, Pipe);
  ASSERT_TRUE(CL.ok());
  std::string Reason;
  ASSERT_TRUE(detectFrustumAnalytic(CL->Pn->Net, nullptr, {}, {}, nullptr,
                                    &Reason)
                  .ok());
  EXPECT_EQ(Reason, "");
}

} // namespace
