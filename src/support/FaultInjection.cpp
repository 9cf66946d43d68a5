//===- support/FaultInjection.cpp - Deterministic fault injection ---------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>

using namespace sdsp;

namespace {

/// Every site the codebase is instrumented with.  The pass:* entries
/// mirror core/Session.cpp's PassTable; SessionTest cross-checks the
/// two so they cannot drift apart silently.
constexpr std::string_view KnownSites[] = {
    "pass:lower",     "pass:import",   "pass:transform", "pass:sdsp",
    "pass:sdsp-pn",   "pass:rate",     "pass:scp",       "pass:frustum",
    "pass:schedule",  "pass:codegen",  "pass:verify",    "pass:import-pnml",
    "pass:export-pnml", "pnml:parse",  "pnml:classify", "pnml:verify",
    "verify:check",   "cache:lookup",  "cache:publish", "executor:dispatch",
    "frustum:step",   "rate:iteration", "schedule:batch", "store:read",
    "store:write",    "daemon:accept",
};

/// Upper bound on an injected delay; anything longer is a typo, not a
/// test.
constexpr uint64_t MaxDelayMillis = 10'000;

Status specError(const std::string &Trigger, const std::string &Why) {
  return Status::error(ErrorCode::InvalidInput, "fault-spec",
                       "bad trigger '" + Trigger + "': " + Why);
}

/// Parses a strictly-decimal uint64, rejecting empty/overlong input.
bool parseU64(std::string_view Text, uint64_t &Out) {
  if (Text.empty() || Text.size() > 19)
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Out = V;
  return true;
}

} // namespace

bool FaultSchedule::isKnownSite(std::string_view Site) {
  return std::find(std::begin(KnownSites), std::end(KnownSites), Site) !=
         std::end(KnownSites);
}

Expected<FaultSchedule> FaultSchedule::parse(const std::string &Spec) {
  FaultSchedule Sched;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Text = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Text.empty()) {
      if (Spec.empty())
        break; // Empty spec = empty schedule.
      return specError(Text, "empty trigger");
    }

    FaultTrigger T;
    // Suffixes bind right-to-left: site:action[@N][~filter].
    std::string Body = Text;
    if (size_t Tilde = Body.rfind('~'); Tilde != std::string::npos) {
      T.JobFilter = Body.substr(Tilde + 1);
      if (T.JobFilter.empty())
        return specError(Text, "empty '~' job filter");
      Body.resize(Tilde);
    }
    if (size_t At = Body.rfind('@'); At != std::string::npos) {
      if (!parseU64(std::string_view(Body).substr(At + 1), T.Occurrence))
        return specError(Text, "occurrence after '@' must be a number");
      if (T.Occurrence == 0)
        return specError(Text, "occurrence is 1-based; '@0' never fires");
      Body.resize(At);
    }
    // The site is the first two ':'-separated components; the action is
    // the rest ("delay=50ms" contains no ':').
    size_t Colon = Body.rfind(':');
    if (Colon == std::string::npos || Colon == 0 || Colon + 1 == Body.size())
      return specError(Text, "expected site:action");
    T.Site = Body.substr(0, Colon);
    std::string Action = Body.substr(Colon + 1);
    if (!isKnownSite(T.Site))
      return specError(Text, "unknown site '" + T.Site +
                                 "' (see docs/ROBUSTNESS.md for the catalog)");
    if (Action == "fail") {
      T.Action = FaultAction::Fail;
    } else if (Action == "fail-hard") {
      T.Action = FaultAction::FailHard;
    } else if (Action.rfind("delay=", 0) == 0) {
      std::string Millis = Action.substr(6);
      if (Millis.size() < 3 || Millis.substr(Millis.size() - 2) != "ms")
        return specError(Text, "delay needs a 'ms' suffix (delay=50ms)");
      Millis.resize(Millis.size() - 2);
      if (!parseU64(Millis, T.DelayMillis))
        return specError(Text, "delay must be a number of milliseconds");
      if (T.DelayMillis > MaxDelayMillis)
        return specError(Text, "delay exceeds the 10000ms cap");
      T.Action = FaultAction::Delay;
    } else {
      return specError(Text, "unknown action '" + Action +
                                 "' (fail, fail-hard, delay=NNms)");
    }
    Sched.Triggers.push_back(std::move(T));
  }
  return Sched;
}

namespace {
std::mutex ProcessM;
bool ProcessInit = false;
Status ProcessError;
std::optional<FaultSchedule> ProcessSched;
} // namespace

Status FaultSchedule::setProcess(const std::string &Spec) {
  Expected<FaultSchedule> Parsed = parse(Spec);
  std::lock_guard<std::mutex> Lock(ProcessM);
  ProcessInit = true;
  if (!Parsed) {
    ProcessError = Parsed.status();
    ProcessSched.reset();
    return ProcessError;
  }
  ProcessError = Status::ok();
  ProcessSched = std::move(*Parsed);
  return Status::ok();
}

Expected<const FaultSchedule *> FaultSchedule::process() {
  std::lock_guard<std::mutex> Lock(ProcessM);
  if (!ProcessInit) {
    ProcessInit = true;
    if (const char *Env = std::getenv("SDSP_FAULT_SPEC"); Env && *Env) {
      Expected<FaultSchedule> Parsed = parse(Env);
      if (!Parsed)
        ProcessError = Parsed.status();
      else
        ProcessSched = std::move(*Parsed);
    }
  }
  if (!ProcessError)
    return ProcessError;
  if (!ProcessSched || ProcessSched->empty())
    return static_cast<const FaultSchedule *>(nullptr);
  return static_cast<const FaultSchedule *>(&*ProcessSched);
}

void FaultSchedule::resetProcessForTesting() {
  std::lock_guard<std::mutex> Lock(ProcessM);
  ProcessInit = false;
  ProcessError = Status::ok();
  ProcessSched.reset();
}

uint64_t FaultContext::arrivals(std::string_view Site) const {
  auto It = Arrivals.find(Site);
  return It == Arrivals.end() ? 0 : It->second;
}

Status FaultContext::checkpoint(std::string_view Site) {
  if (!enabled())
    return Status::ok();
  auto [It, Inserted] = Arrivals.try_emplace(std::string(Site), 0);
  uint64_t N = ++It->second;
  for (const FaultTrigger &T : Sched->triggers()) {
    if (T.Site != Site || T.Occurrence != N)
      continue;
    if (!T.JobFilter.empty() && Scope.find(T.JobFilter) == std::string::npos)
      continue;
    ++Fired;
    MetricsRegistry &MR = MetricsRegistry::global();
    MR.add("fault.injected");
    std::string SiteCounter = "fault.injected." + std::string(Site);
    std::replace(SiteCounter.begin(), SiteCounter.end(), ':', '.');
    MR.add(SiteCounter);
    const char *ActionName = T.Action == FaultAction::Fail ? "fail"
                             : T.Action == FaultAction::FailHard
                                 ? "fail-hard"
                                 : "delay";
    if (Trace) {
      Trace->instant("fault-injected", "fault");
      Trace->argStr("site", Site);
      Trace->argStr("action", ActionName);
      Trace->argU64("arrival", N);
    }
    std::string Where =
        std::string(Site) + " (arrival " + std::to_string(N) + ")";
    switch (T.Action) {
    case FaultAction::Fail:
      return Status::error(ErrorCode::TransientFault, "fault",
                           "injected transient fault at " + Where);
    case FaultAction::FailHard:
      return Status::error(ErrorCode::InternalInvariant, "fault",
                           "injected permanent fault at " + Where);
    case FaultAction::Delay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(T.DelayMillis));
      break; // Keep scanning: a delay may be stacked with a fail.
    }
  }
  return Status::ok();
}
