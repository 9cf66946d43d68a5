//===- tests/FaultInjectionTest.cpp - Fault-injection framework tests -------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The FaultSchedule/FaultContext contract (support/FaultInjection.h):
// spec parsing against the site catalog, per-context Nth-arrival
// firing, scope filters, action-to-error mapping, and the process-wide
// schedule used by SDSP_FAULT_SPEC / sdspc --fault-spec.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "core/Session.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <sstream>

using namespace sdsp;

namespace {

TEST(FaultInjectionTest, ParsesASingleTrigger) {
  Expected<FaultSchedule> S = FaultSchedule::parse("pass:frustum:fail@2");
  ASSERT_TRUE(S) << S.status().str();
  ASSERT_EQ(S->triggers().size(), 1u);
  const FaultTrigger &T = S->triggers()[0];
  EXPECT_EQ(T.Site, "pass:frustum");
  EXPECT_EQ(T.Action, FaultAction::Fail);
  EXPECT_EQ(T.Occurrence, 2u);
  EXPECT_TRUE(T.JobFilter.empty());
}

TEST(FaultInjectionTest, ParsesEveryActionAndFilter) {
  Expected<FaultSchedule> S = FaultSchedule::parse(
      "pass:lower:fail-hard,cache:publish:delay=50ms@3,"
      "executor:dispatch:fail@1~kernel:l2");
  ASSERT_TRUE(S) << S.status().str();
  ASSERT_EQ(S->triggers().size(), 3u);
  EXPECT_EQ(S->triggers()[0].Action, FaultAction::FailHard);
  EXPECT_EQ(S->triggers()[1].Action, FaultAction::Delay);
  EXPECT_EQ(S->triggers()[1].DelayMillis, 50u);
  EXPECT_EQ(S->triggers()[1].Occurrence, 3u);
  EXPECT_EQ(S->triggers()[2].JobFilter, "kernel:l2");
}

TEST(FaultInjectionTest, EmptySpecIsAnEmptySchedule) {
  Expected<FaultSchedule> S = FaultSchedule::parse("");
  ASSERT_TRUE(S) << S.status().str();
  EXPECT_TRUE(S->empty());
}

TEST(FaultInjectionTest, RejectsMalformedSpecs) {
  const char *Bad[] = {
      "pass:frustum",              // no action
      "nosuch:site:fail",          // unknown site
      "pass:frustum:explode",      // unknown action
      "pass:frustum:fail@0",       // zero occurrence
      "pass:frustum:fail@x",       // non-numeric occurrence
      "pass:frustum:delay=5s",     // bad delay unit
      "pass:frustum:delay=99999999ms", // over the delay cap
      "pass:frustum:fail,,",       // empty trigger
  };
  for (const char *Spec : Bad) {
    Expected<FaultSchedule> S = FaultSchedule::parse(Spec);
    EXPECT_FALSE(S) << "accepted: " << Spec;
    if (!S) {
      EXPECT_EQ(S.status().code(), ErrorCode::InvalidInput) << Spec;
    }
  }
}

TEST(FaultInjectionTest, SiteCatalogCoversEveryPass) {
  // Every registered pass has an armable site, and the non-pass sites
  // the code is instrumented with are in the catalog.
  for (size_t P = 0; P < NumPassKinds; ++P) {
    std::string Site =
        std::string("pass:") + passInfo(static_cast<PassKind>(P)).Id;
    EXPECT_TRUE(FaultSchedule::isKnownSite(Site)) << Site;
  }
  EXPECT_TRUE(FaultSchedule::isKnownSite("cache:lookup"));
  EXPECT_TRUE(FaultSchedule::isKnownSite("cache:publish"));
  EXPECT_TRUE(FaultSchedule::isKnownSite("executor:dispatch"));
  EXPECT_TRUE(FaultSchedule::isKnownSite("frustum:step"));
  EXPECT_FALSE(FaultSchedule::isKnownSite("pass:nosuch"));
}

TEST(FaultInjectionTest, FiresAtTheNthArrivalExactlyOnce) {
  Expected<FaultSchedule> S = FaultSchedule::parse("frustum:step:fail@3");
  ASSERT_TRUE(S);
  FaultContext Ctx(&*S, "job");
  EXPECT_TRUE(Ctx.checkpoint("frustum:step"));
  EXPECT_TRUE(Ctx.checkpoint("frustum:step"));
  Status Third = Ctx.checkpoint("frustum:step");
  EXPECT_FALSE(Third);
  EXPECT_EQ(Third.code(), ErrorCode::TransientFault);
  EXPECT_NE(Third.str().find("frustum:step (arrival 3)"),
            std::string::npos);
  // Arrivals keep counting; the trigger does not re-fire.  This is what
  // lets a retry sail past a fail@N site.
  EXPECT_TRUE(Ctx.checkpoint("frustum:step"));
  EXPECT_EQ(Ctx.arrivals("frustum:step"), 4u);
  EXPECT_EQ(Ctx.fired(), 1u);
}

TEST(FaultInjectionTest, FailHardMapsToInternalInvariant) {
  Expected<FaultSchedule> S = FaultSchedule::parse("pass:lower:fail-hard");
  ASSERT_TRUE(S);
  FaultContext Ctx(&*S, "job");
  Status St = Ctx.checkpoint("pass:lower");
  EXPECT_FALSE(St);
  EXPECT_EQ(St.code(), ErrorCode::InternalInvariant);
}

TEST(FaultInjectionTest, DelaySucceedsAndCounts) {
  Expected<FaultSchedule> S = FaultSchedule::parse("cache:publish:delay=1ms");
  ASSERT_TRUE(S);
  FaultContext Ctx(&*S, "job");
  EXPECT_TRUE(Ctx.checkpoint("cache:publish"));
  EXPECT_EQ(Ctx.fired(), 1u);
}

TEST(FaultInjectionTest, ScopeFilterRestrictsFiring) {
  Expected<FaultSchedule> S =
      FaultSchedule::parse("pass:frustum:fail~kernel:l2");
  ASSERT_TRUE(S);
  FaultContext Other(&*S, "kernel:l1");
  EXPECT_TRUE(Other.checkpoint("pass:frustum"));
  FaultContext Match(&*S, "kernel:l2");
  EXPECT_FALSE(Match.checkpoint("pass:frustum"));
  // Substring match, like the grammar says.
  FaultContext Super(&*S, "dir/kernel:l2.loop");
  EXPECT_FALSE(Super.checkpoint("pass:frustum"));
}

TEST(FaultInjectionTest, InertContextsNeverFire) {
  FaultContext Default;
  EXPECT_FALSE(Default.enabled());
  EXPECT_TRUE(Default.checkpoint("pass:frustum"));
  FaultSchedule Empty;
  FaultContext OverEmpty(&Empty, "job");
  EXPECT_FALSE(OverEmpty.enabled());
  EXPECT_TRUE(OverEmpty.checkpoint("pass:frustum"));
}

uint64_t counter(const MetricsRegistry::Snapshot &S, const std::string &N) {
  for (const auto &[Name, Value] : S.Counters)
    if (Name == N)
      return Value;
  return 0;
}

TEST(FaultInjectionTest, FiringEmitsTraceInstantAndCounters) {
  Expected<FaultSchedule> S = FaultSchedule::parse("pass:frustum:fail");
  ASSERT_TRUE(S);
  TraceCollector Collector;
  FaultContext Ctx(&*S, "job", &Collector.track("job"));
  MetricsRegistry::Snapshot Before = MetricsRegistry::global().snapshot();
  EXPECT_FALSE(Ctx.checkpoint("pass:frustum"));
  MetricsRegistry::Snapshot After = MetricsRegistry::global().snapshot();
  EXPECT_EQ(counter(After, "fault.injected"),
            counter(Before, "fault.injected") + 1);
  EXPECT_EQ(counter(After, "fault.injected.pass.frustum"),
            counter(Before, "fault.injected.pass.frustum") + 1);
  std::ostringstream OS;
  Collector.writeJson(OS);
  EXPECT_NE(OS.str().find("fault-injected"), std::string::npos);
}

TEST(FaultInjectionTest, ProcessScheduleInstallAndReset) {
  FaultSchedule::resetProcessForTesting();
  Status Bad = FaultSchedule::setProcess("nosuch:site:fail");
  EXPECT_FALSE(Bad);
  EXPECT_EQ(Bad.code(), ErrorCode::InvalidInput);

  ASSERT_TRUE(FaultSchedule::setProcess("pass:frustum:fail@2"));
  Expected<const FaultSchedule *> P = FaultSchedule::process();
  ASSERT_TRUE(P);
  ASSERT_NE(*P, nullptr);
  EXPECT_EQ((*P)->triggers().size(), 1u);

  // Reset forgets the installed schedule; with no SDSP_FAULT_SPEC in
  // the test environment, process() resolves to "none".
  FaultSchedule::resetProcessForTesting();
  if (!std::getenv("SDSP_FAULT_SPEC")) {
    Expected<const FaultSchedule *> None = FaultSchedule::process();
    ASSERT_TRUE(None);
    EXPECT_EQ(*None, nullptr);
  }
  FaultSchedule::resetProcessForTesting();
}

} // namespace
