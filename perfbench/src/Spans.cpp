//===- perfbench/src/Spans.cpp - Trace spans and self times ---------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run records its spans with support/Trace.h, one collector
/// per request, and reads each capture back through the collector's own
/// Chrome trace-event output to get self times: a span's duration minus
/// the part its child spans cover.  Timestamps are whole microseconds;
/// summed over a run the rounding cancels out.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sstream>

using namespace sdsp;
using namespace perfbench;

namespace {

thread_local TraceTrack *CurrentTrack = nullptr;

/// The value after `"Key": ` on \p Line, up to the next ',', '}' or
/// closing quote.
std::string_view field(std::string_view Line, std::string_view Key) {
  std::string Pat = "\"" + std::string(Key) + "\": ";
  size_t At = Line.find(Pat);
  if (At == std::string_view::npos)
    return {};
  std::string_view V = Line.substr(At + Pat.size());
  if (!V.empty() && V.front() == '"') {
    V.remove_prefix(1);
    return V.substr(0, V.find('"'));
  }
  return V.substr(0, V.find_first_of(",}"));
}

} // namespace

void perfbench::setSpanTrack(TraceTrack *Track) { CurrentTrack = Track; }

Span::Span(std::string_view Name) : Track(CurrentTrack) {
  if (Track)
    Track->beginSpan(Name, "bench");
}

Span::~Span() {
  if (Track)
    Track->endSpan();
}

RequestCapture::RequestCapture()
    : Request(&Collector.track("request")), Arms(&Collector.track("arms")) {}

double RequestCapture::fold(SelfTimes &Into) const {
  std::ostringstream OS;
  Collector.writeJson(OS);
  std::map<uint32_t, double> PerTrack;
  for (const auto &[Name, Seconds] : selfTimesOf(OS.str(), &PerTrack))
    Into[Name] += Seconds;
  return PerTrack[Request->tid()];
}

SelfTimes perfbench::selfTimesOf(const std::string &TraceJson,
                                 std::map<uint32_t, double> *TrackSelf) {
  struct Open {
    std::string Name;
    uint64_t Begin;
    uint64_t Children;
  };
  std::map<uint32_t, std::vector<Open>> Stacks;
  SelfTimes Out;
  std::istringstream IS(TraceJson);
  std::string Line;
  while (std::getline(IS, Line)) {
    std::string_view Ph = field(Line, "ph");
    if (Ph != "B" && Ph != "E")
      continue;
    uint32_t Tid = static_cast<uint32_t>(std::stoul(std::string(field(Line, "tid"))));
    uint64_t Ts = std::stoull(std::string(field(Line, "ts")));
    std::vector<Open> &Stack = Stacks[Tid];
    if (Ph == "B") {
      Stack.push_back(Open{std::string(field(Line, "name")), Ts, 0});
      continue;
    }
    SDSP_CHECK(!Stack.empty(), "span end without a begin");
    Open O = std::move(Stack.back());
    Stack.pop_back();
    uint64_t Duration = Ts - O.Begin;
    double Self = static_cast<double>(Duration - std::min(Duration, O.Children)) * 1e-6;
    Out[O.Name] += Self;
    if (TrackSelf)
      (*TrackSelf)[Tid] += Self;
    if (!Stack.empty())
      Stack.back().Children += Duration;
  }
  return Out;
}

std::optional<ArtifactEntry> TimedStore::lookupOrLock(const ArtifactKey &K,
                                                      FaultContext *F) {
  Span S(LookupSpan);
  return Inner.lookupOrLock(K, F);
}

PublishResult TimedStore::publish(const ArtifactKey &K, ArtifactEntry E,
                                  FaultContext *F) {
  Span S(PublishSpan);
  return Inner.publish(K, std::move(E), F);
}
