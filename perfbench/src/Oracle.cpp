//===- perfbench/src/Oracle.cpp - Output checks for every request ---------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/Vm.h"
#include "dataflow/Unroll.h"
#include "loopir/Lowering.h"

#include <algorithm>
#include <cmath>
#include <functional>

using namespace sdsp;
using namespace perfbench;

size_t perfbench::oracleIterations(uint32_t U) {
  size_t Macro = std::max<size_t>(4, (256 + U - 1) / U);
  return Macro * U;
}

std::string perfbench::checkRates(const CompiledLoop &CL,
                                  const PipelineOptions &O) {
  if (!CL.Frustum || !CL.Rate || !CL.Pn)
    return "no frustum or rate report";
  const FrustumInfo &F = *CL.Frustum;
  const Rational Alpha = CL.Rate->OptimalRate;
  if (!CL.Scp) {
    const std::vector<TransitionId> Ts = CL.Pn->Net.transitionIds();
    if (!F.hasUniformCount(Ts))
      return "ideal frustum fires transitions unevenly";
    Rational Got = F.computationRate(Ts.front());
    if (Got != Alpha)
      return "frustum rate " + Got.str() + " != alpha* " + Alpha.str();
    return "";
  }

  // SCP machine: counts are uniform within each marked-graph component
  // of the SDSP-PN; the run place issues at most Pipelines per cycle;
  // on one coupled net the rate respects alpha* and Thm 5.2.2's
  // pipelines/n.
  const ScpPn &Scp = *CL.Scp;
  const PetriNet &Net = CL.Pn->Net;
  size_t N = Scp.numSdspTransitions();
  std::vector<size_t> Comp(N);
  for (size_t I = 0; I < N; ++I)
    Comp[I] = I;
  std::function<size_t(size_t)> Find = [&](size_t I) {
    while (Comp[I] != I)
      I = Comp[I] = Comp[Comp[I]];
    return I;
  };
  for (PlaceId P : Net.placeIds()) {
    const PetriNet::Place &Pl = Net.place(P);
    Comp[Find(Pl.Producers.front().index())] =
        Find(Pl.Consumers.front().index());
  }
  std::vector<int64_t> Count(N, -1);
  bool Single = true;
  uint64_t Issued = 0;
  for (size_t I = 0; I < N; ++I) {
    uint32_t C = F.transitionCount(Scp.SdspTransitions[I]);
    Issued += C;
    size_t Root = Find(I);
    Single = Single && Root == Find(0);
    if (Count[Root] < 0)
      Count[Root] = C;
    else if (Count[Root] != static_cast<int64_t>(C))
      return "SCP frustum fires one component unevenly";
  }
  if (Issued > static_cast<uint64_t>(O.Pipelines) * F.length())
    return "SCP frustum issues above the run-place capacity";
  if (Single && N > 0) {
    Rational Got = F.computationRate(Scp.SdspTransitions.front());
    if (Alpha < Got)
      return "SCP rate " + Got.str() + " above alpha* " + Alpha.str();
    Rational Issue(static_cast<int64_t>(O.Pipelines),
                   static_cast<int64_t>(N));
    if (Issue < Got)
      return "SCP rate " + Got.str() + " above the issue bound " +
             Issue.str();
  }
  return "";
}

const Oracle::Reference &Oracle::reference(const LivermoreKernel *K,
                                           size_t N) {
  auto It = Refs.find({K, N});
  if (It != Refs.end())
    return It->second;
  DiagnosticEngine Diags;
  std::optional<DataflowGraph> G = compileLoop(K->Source, Diags);
  SDSP_CHECK(G.has_value(), "bundled kernel failed to lower");
  Reference Ref;
  Ref.Inputs = K->MakeInputs(N, InputSeed);
  Ref.Outputs = interpret(*G, Ref.Inputs, N).Outputs;
  return Refs.emplace(std::make_pair(K, N), std::move(Ref)).first->second;
}

std::string Oracle::checkProgram(const Request &R, const LoopProgram &P,
                                 ProgramFigures &Figures) {
  const uint32_t U = R.Unroll;
  const size_t N = oracleIterations(U);
  const size_t Macro = N / U;
  const Reference &Ref = reference(R.Kernel, N);
  VmResult Run = executeLoopProgram(
      P, U > 1 ? stridedStreams(Ref.Inputs, U, Macro) : Ref.Inputs, Macro);
  StreamMap Got = U > 1 ? interleaveOutputs(Run.Outputs, U) : Run.Outputs;
  if (Corrupt && !Got.empty() && !Got.begin()->second.empty()) {
    Got.begin()->second.front() += 1.0;
    Corrupt = false;
  }
  Figures.CyclesPerIteration = static_cast<double>(Run.Cycles) / N;
  Figures.Ops = P.ops().size();
  if (Got.size() != Ref.Outputs.size())
    return "program writes " + std::to_string(Got.size()) +
           " output streams, the interpreter " +
           std::to_string(Ref.Outputs.size());
  for (const auto &[Name, Want] : Ref.Outputs) {
    auto It = Got.find(Name);
    if (It == Got.end() || It->second.size() != Want.size())
      return "output '" + Name + "' missing or short";
    for (size_t I = 0; I < Want.size(); ++I) {
      double A = Want[I], B = It->second[I];
      if (std::fabs(A - B) > 1e-9 * std::max({1.0, std::fabs(A), std::fabs(B)}))
        return "output '" + Name + "' differs at iteration " +
               std::to_string(I);
    }
  }
  return "";
}

std::string Oracle::checkCompile(const Request &R, const Outcome &O,
                                 ProgramFigures *Figures) {
  if (!O.Loop)
    return "no compiled loop";
  if (std::string Err = checkRates(*O.Loop, R.options()); !Err.empty())
    return Err;
  if (!R.idealMachine())
    return "";
  if (!O.Program)
    return "no program on the ideal machine";
  // A repeat served from the store is the same program (same content
  // hash); its verdict and figures stand.
  auto Key = std::make_tuple(O.Program.hash(), R.Kernel, R.Unroll);
  auto It = Seen.find(Key);
  if (Corrupt) {
    ProgramFigures F;
    return checkProgram(R, *O.Program, Figures ? *Figures : F);
  }
  if (It == Seen.end()) {
    ProgramFigures F;
    std::string Err = checkProgram(R, *O.Program, F);
    It = Seen.emplace(Key, std::make_pair(Err, F)).first;
  }
  if (Figures)
    *Figures = It->second.second;
  return It->second.first;
}

std::string Oracle::checkImport(const Outcome &O, const Rational &Expected,
                                bool Connected) {
  if (!O.Net || !O.Rate || !O.Frustum)
    return "import, rate or frustum missing";
  const NetClassification &C = O.Net->Class;
  const std::pair<const char *, bool> Verdicts[] = {
      {"a marked graph", C.MarkedGraph}, {"live", C.Live},
      {"safe", C.Safe},                  {"persistent", C.Persistent},
      {"consistent", C.Consistent}};
  for (const auto &[What, Holds] : Verdicts)
    if (!Holds)
      return std::string("imported net classified not ") + What;
  if (C.StronglyConnected != Connected)
    return std::string("imported net classified ") +
           (Connected ? "not " : "") + "strongly connected, its source " +
           (Connected ? "is" : "is not");
  Rational Got = O.Rate->OptimalRate;
  if (Corrupt) {
    Got = Got + Rational(1);
    Corrupt = false;
  }
  if (Got != Expected)
    return "imported rate " + Got.str() + " != source rate " +
           Expected.str();
  const std::vector<TransitionId> Ts = O.Net->Net.transitionIds();
  if (!O.Frustum->hasUniformCount(Ts) ||
      O.Frustum->computationRate(Ts.front()) != Expected)
    return "imported frustum rate differs from the source rate";
  return "";
}
