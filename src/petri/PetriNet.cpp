//===- petri/PetriNet.cpp - Timed place/transition nets --------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/PetriNet.h"

#include "support/Dot.h"
#include "support/HashStream.h"
#include "support/Status.h"

#include <cassert>
#include <limits>
#include <ostream>

using namespace sdsp;

template <typename IdT>
void PetriNet::Csr<IdT>::append(std::span<const IdT> Row) {
  if (Start.empty())
    Start.push_back(0);
  Items.insert(Items.end(), Row.begin(), Row.end());
  Start.push_back(static_cast<uint32_t>(Items.size()));
}

template <typename IdT>
void PetriNet::Csr<IdT>::hashContent(HashStream &HS) const {
  HS.u32s(std::span<const uint32_t>(Start).subspan(Start.empty() ? 0 : 1))
      .ids(std::span<const IdT>(Items));
}

template <typename IdT>
template <typename Pair, typename RowFn, typename ItemFn>
void PetriNet::Csr<IdT>::assign(size_t Rows, const std::vector<Pair> &Pairs,
                                RowFn RowOf, ItemFn ItemOf) {
  // Counting sort by row, stable, so each row keeps its pairs' order.
  // Start[R] serves as row R's fill cursor and ends at row R + 1's
  // begin; one shift restores it.
  Start.assign(Rows + 1, 0);
  for (const Pair &P : Pairs)
    ++Start[RowOf(P) + 1];
  for (size_t R = 0; R < Rows; ++R)
    Start[R + 1] += Start[R];
  Items.resize(Pairs.size());
  for (const Pair &P : Pairs)
    Items[Start[RowOf(P)]++] = ItemOf(P);
  for (size_t R = Rows; R > 0; --R)
    Start[R] = Start[R - 1];
  Start[0] = 0;
}

PetriNet::Record
PetriNet::newRecord(std::initializer_list<std::string_view> NameParts,
                    uint32_t Value) {
  Record R;
  R.NameBegin = static_cast<uint32_t>(Names.size());
  for (std::string_view Part : NameParts)
    Names.append(Part);
  SDSP_CHECK(Names.size() <= std::numeric_limits<uint32_t>::max(),
             "net names exceed the 4 GiB arena");
  R.NameEnd = static_cast<uint32_t>(Names.size());
  R.Value = Value;
  return R;
}

void PetriNet::Parts::addPlace(std::string_view Name, uint32_t InitialTokens,
                               std::span<const TransitionId> Producers,
                               std::span<const TransitionId> Consumers) {
  Net.Places.push_back(Net.newRecord({Name}, InitialTokens));
  Net.Producers.append(Producers);
  Net.Consumers.append(Consumers);
}

void PetriNet::Parts::addTransition(std::string_view Name,
                                    TimeUnits ExecTime,
                                    std::span<const PlaceId> InputPlaces,
                                    std::span<const PlaceId> OutputPlaces) {
  Net.Transitions.push_back(Net.newRecord({Name}, ExecTime));
  Net.InputPlaces.append(InputPlaces);
  Net.OutputPlaces.append(OutputPlaces);
}

PetriNet PetriNet::fromParts(Parts P) { return std::move(P.Net); }

PlaceId PetriNetBuilder::addPlace(std::string_view Name,
                                  uint32_t InitialTokens) {
  PlaceId P(Net.Places.size());
  Net.Places.push_back(Net.newRecord({Name}, InitialTokens));
  return P;
}

PlaceId
PetriNetBuilder::addPlace(std::initializer_list<std::string_view> NameParts,
                          uint32_t InitialTokens) {
  PlaceId P(Net.Places.size());
  Net.Places.push_back(Net.newRecord(NameParts, InitialTokens));
  return P;
}

TransitionId PetriNetBuilder::addTransition(std::string_view Name,
                                            TimeUnits ExecTime) {
  TransitionId T(Net.Transitions.size());
  Net.Transitions.push_back(Net.newRecord({Name}, ExecTime));
  return T;
}

TransitionId PetriNetBuilder::addTransition(
    std::initializer_list<std::string_view> NameParts, TimeUnits ExecTime) {
  TransitionId T(Net.Transitions.size());
  Net.Transitions.push_back(Net.newRecord(NameParts, ExecTime));
  return T;
}

PetriNet PetriNetBuilder::build() {
  const size_t NumPlaces = Net.numPlaces();
  const size_t NumTransitions = Net.numTransitions();
  auto PlaceOf = [](const Arc &A) { return A.P.index(); };
  auto TransitionOf = [](const Arc &A) { return A.T.index(); };
  auto ThePlace = [](const Arc &A) { return A.P; };
  auto TheTransition = [](const Arc &A) { return A.T; };
  Net.Consumers.assign(NumPlaces, Consumes, PlaceOf, TheTransition);
  Net.InputPlaces.assign(NumTransitions, Consumes, TransitionOf, ThePlace);
  Net.Producers.assign(NumPlaces, Produces, PlaceOf, TheTransition);
  Net.OutputPlaces.assign(NumTransitions, Produces, TransitionOf, ThePlace);
  Consumes.clear();
  Produces.clear();
  PetriNet Out = std::move(Net);
  Net = PetriNet();
  return Out;
}

void PetriNet::hashContent(HashStream &HS) const {
  HS.u64(Places.size());
  for (const Record &R : Places)
    HS.str(name(R)).u64(R.Value);
  HS.u64(Transitions.size());
  for (const Record &R : Transitions)
    HS.str(name(R)).u64(R.Value);
  Producers.hashContent(HS);
  Consumers.hashContent(HS);
  InputPlaces.hashContent(HS);
  OutputPlaces.hashContent(HS);
}

Marking PetriNet::initialMarking() const {
  Marking M(Places.size());
  for (size_t I = 0; I < Places.size(); ++I)
    M.setTokens(PlaceId(I), Places[I].Value);
  return M;
}

uint64_t PetriNet::totalExecTime() const {
  uint64_t Sum = 0;
  for (const Record &T : Transitions)
    Sum += T.Value;
  return Sum;
}

bool PetriNet::isEnabled(TransitionId T, const Marking &M) const {
  for (PlaceId P : InputPlaces.row(T.index()))
    if (M.tokens(P) == 0)
      return false;
  return true;
}

void PetriNet::fire(TransitionId T, Marking &M) const {
  assert(isEnabled(T, M) && "firing a disabled transition");
  for (PlaceId P : InputPlaces.row(T.index()))
    M.consume(P);
  for (PlaceId P : OutputPlaces.row(T.index()))
    M.produce(P);
}

std::vector<PlaceId> PetriNet::placeIds() const {
  std::vector<PlaceId> Ids;
  Ids.reserve(Places.size());
  for (size_t I = 0; I < Places.size(); ++I)
    Ids.push_back(PlaceId(I));
  return Ids;
}

std::vector<TransitionId> PetriNet::transitionIds() const {
  std::vector<TransitionId> Ids;
  Ids.reserve(Transitions.size());
  for (size_t I = 0; I < Transitions.size(); ++I)
    Ids.push_back(TransitionId(I));
  return Ids;
}

uint64_t PetriNet::sizeBytes() const {
  uint64_t Words = Producers.Start.size() + Producers.Items.size() +
                   Consumers.Start.size() + Consumers.Items.size() +
                   InputPlaces.Start.size() + InputPlaces.Items.size() +
                   OutputPlaces.Start.size() + OutputPlaces.Items.size();
  return Names.size() + (Places.size() + Transitions.size()) * sizeof(Record) +
         Words * sizeof(uint32_t);
}

void PetriNet::printDot(std::ostream &OS, const std::string &GraphName) const {
  DotWriter Dot(OS, GraphName);
  Dot.graphAttr("rankdir", "TB");
  for (size_t I = 0; I < Places.size(); ++I) {
    std::string Label(name(Places[I]));
    uint32_t Tokens = Places[I].Value;
    if (Tokens == 1)
      Label += " \xE2\x80\xA2"; // bullet marks the token
    else if (Tokens > 1)
      Label += " (" + std::to_string(Tokens) + ")";
    Dot.node("p" + std::to_string(I), Label, "shape=circle");
  }
  for (size_t I = 0; I < Transitions.size(); ++I) {
    std::string Label(name(Transitions[I]));
    if (Transitions[I].Value != 1)
      Label += " [" + std::to_string(Transitions[I].Value) + "]";
    Dot.node("t" + std::to_string(I), Label, "shape=box,height=0.2");
  }
  for (size_t I = 0; I < Transitions.size(); ++I) {
    for (PlaceId P : InputPlaces.row(I))
      Dot.edge("p" + std::to_string(P.index()), "t" + std::to_string(I));
    for (PlaceId P : OutputPlaces.row(I))
      Dot.edge("t" + std::to_string(I), "p" + std::to_string(P.index()));
  }
}
