//===- core/ScpModel.cpp - Single clean pipeline model ---------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "core/ScpModel.h"

#include <cassert>

using namespace sdsp;

std::unique_ptr<FifoPolicy> ScpPn::makeFifoPolicy() const {
  return std::make_unique<FifoPolicy>(IsSdspTransition,
                                      std::vector<PlaceId>{RunPlace});
}

std::unique_ptr<LifoPolicy> ScpPn::makeLifoPolicy() const {
  return std::make_unique<LifoPolicy>(IsSdspTransition,
                                      std::vector<PlaceId>{RunPlace});
}

Expected<ScpPn> sdsp::buildScpPnChecked(const SdspPn &Pn,
                                        uint32_t PipelineDepth,
                                        uint32_t NumPipelines) {
  if (PipelineDepth < 1)
    return Status::error(ErrorCode::ResourceConflict, "scp",
                         "pipeline needs at least one stage");
  if (NumPipelines < 1)
    return Status::error(ErrorCode::ResourceConflict, "scp",
                         "machine needs at least one pipeline");
  if (PipelineDepth > MaxPipelineDepth)
    return Status::error(ErrorCode::InvalidInput, "scp",
                         "pipeline depth " + std::to_string(PipelineDepth) +
                             " out of range [1, " +
                             std::to_string(MaxPipelineDepth) + "]");
  if (NumPipelines > MaxNumPipelines)
    return Status::error(ErrorCode::InvalidInput, "scp",
                         "pipeline count " + std::to_string(NumPipelines) +
                             " out of range [1, " +
                             std::to_string(MaxNumPipelines) + "]");
  return buildScpPn(Pn, PipelineDepth, NumPipelines);
}

ScpPn sdsp::buildScpPn(const SdspPn &Pn, uint32_t PipelineDepth,
                       uint32_t NumPipelines) {
  SDSP_CHECK(PipelineDepth >= 1, "pipeline needs at least one stage");
  SDSP_CHECK(NumPipelines >= 1, "machine needs at least one pipeline");
  const PetriNet &Src = Pn.Net;

  ScpPn Scp;
  Scp.PipelineDepth = PipelineDepth;
  Scp.NumPipelines = NumPipelines;
  PetriNetBuilder Net;

  // SDSP transitions, execution time 1 (issue slot).
  for (TransitionId T : Src.transitionIds()) {
    TransitionId NewT = Net.addTransition(Src.transition(T).Name, 1);
    Scp.SdspTransitions.push_back(NewT);
  }

  // Series expansion of every place.  The original producer writes into
  // the pre-place, the dummy (time l-1) moves tokens to the post-place,
  // the consumer reads the post-place.  Initial tokens land on the
  // post-place: they model already-computed values.
  for (PlaceId P : Src.placeIds()) {
    const PetriNet::Place &Pl = Src.place(P);
    TransitionId Producer = Scp.SdspTransitions[Pl.Producers.front().index()];
    TransitionId Consumer = Scp.SdspTransitions[Pl.Consumers.front().index()];
    if (PipelineDepth == 1) {
      // l = 1: no dummy transitions remain in the final model.
      PlaceId NewP = Net.addPlace(Pl.Name, Pl.InitialTokens);
      Net.addArc(Producer, NewP);
      Net.addArc(NewP, Consumer);
      continue;
    }
    PlaceId Pre = Net.addPlace({Pl.Name, ".pre"}, 0);
    TransitionId Dummy = Net.addTransition({"d:", Pl.Name}, PipelineDepth - 1);
    PlaceId Post = Net.addPlace({Pl.Name, ".post"}, Pl.InitialTokens);
    Net.addArc(Producer, Pre);
    Net.addArc(Pre, Dummy);
    Net.addArc(Dummy, Post);
    Net.addArc(Post, Consumer);
    Scp.DummyTransitions.push_back(Dummy);
  }

  // Run place: one issue slot per pipeline, shared by all SDSP
  // transitions.
  Scp.RunPlace = Net.addPlace("p_run", NumPipelines);
  for (TransitionId T : Scp.SdspTransitions) {
    Net.addArc(Scp.RunPlace, T);
    Net.addArc(T, Scp.RunPlace);
  }
  Scp.Net = Net.build();

  Scp.IsSdspTransition.assign(Scp.Net.numTransitions(), false);
  for (TransitionId T : Scp.SdspTransitions)
    Scp.IsSdspTransition[T.index()] = true;
  return Scp;
}
