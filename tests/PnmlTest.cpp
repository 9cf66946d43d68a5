//===- tests/PnmlTest.cpp - PNML import/export -----------------------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The PNML interop surface (docs/INTEROP.md): the accept matrix (every
// P/T construct and timing spelling the importer honors), the reject
// matrix (every malformed or out-of-model document, each with its
// structured [InvalidInput] diagnostic, and the node limit at its
// boundary), the exact verdict of every corpus file, canonical-export
// round-trip byte stability, the behavior-graph occurrence-net
// encoding, the session passes (caching, rejection, the live-marked-
// graph gate of rate and frustum, fault injection), and a
// byte-truncation fuzz sweep that must never crash.
//
//===----------------------------------------------------------------------===//

#include "petri/Pnml.h"

#include "core/Session.h"
#include "core/SharedArtifactCache.h"
#include "petri/EarliestFiring.h"
#include "petri/MarkedGraph.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace sdsp;

namespace {

/// Wraps \p Body in the standard document scaffolding.
std::string doc(const std::string &Body,
                const std::string &NetAttrs = "id=\"n\"") {
  return "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<pnml><net " +
         NetAttrs + "><page id=\"p\">" + Body + "</page></net></pnml>";
}

/// The smallest useful body: one place feeding one transition and back.
const char *RingBody = "<place id=\"q\">"
                       "<initialMarking><text>1</text></initialMarking>"
                       "</place>"
                       "<transition id=\"u\"/>"
                       "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
                       "<arc id=\"a1\" source=\"u\" target=\"q\"/>";

PnmlNet parseOk(const std::string &Text) {
  Expected<PnmlNet> N = parsePnml(Text);
  EXPECT_TRUE(bool(N)) << (N ? std::string() : N.status().str());
  return N ? std::move(*N) : PnmlNet{};
}

/// Asserts \p Text is rejected and the diagnostic contains \p Fragment.
void expectReject(const std::string &Text, const std::string &Fragment) {
  Expected<PnmlNet> N = parsePnml(Text);
  ASSERT_FALSE(bool(N)) << "accepted: " << Text;
  EXPECT_EQ(N.status().code(), ErrorCode::InvalidInput);
  EXPECT_EQ(N.status().stage(), "pnml");
  EXPECT_NE(N.status().str().find(Fragment), std::string::npos)
      << "diagnostic '" << N.status().str() << "' lacks '" << Fragment
      << "'";
}

//===----------------------------------------------------------------------===//
// Accept matrix
//===----------------------------------------------------------------------===//

TEST(PnmlImport, MinimalNet) {
  PnmlNet N = parseOk(doc(RingBody));
  EXPECT_EQ(N.NetId, "n");
  ASSERT_EQ(N.Net.numPlaces(), 1u);
  ASSERT_EQ(N.Net.numTransitions(), 1u);
  EXPECT_EQ(N.Net.place(PlaceId(0u)).InitialTokens, 1u);
  EXPECT_EQ(N.Net.transition(TransitionId(0u)).ExecTime, 1u);
  EXPECT_TRUE(isMarkedGraph(N.Net));
}

TEST(PnmlImport, NamesFallBackToIds) {
  PnmlNet N = parseOk(doc(RingBody));
  EXPECT_EQ(N.Net.place(PlaceId(0u)).Name, "q");
  EXPECT_EQ(N.Net.transition(TransitionId(0u)).Name, "u");
}

TEST(PnmlImport, NameLabelsWin) {
  PnmlNet N = parseOk(
      doc("<place id=\"q\"><name><text>buffer</text></name></place>"
          "<transition id=\"u\"><name><text>op</text></name></transition>"
          "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
          "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  EXPECT_EQ(N.Net.place(PlaceId(0u)).Name, "buffer");
  EXPECT_EQ(N.Net.transition(TransitionId(0u)).Name, "op");
}

TEST(PnmlImport, SdspExecTimeAnnotation) {
  PnmlNet N = parseOk(doc(
      "<place id=\"q\"/>"
      "<transition id=\"u\"><toolspecific tool=\"sdsp\">"
      "<execTime>7</execTime></toolspecific></transition>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  EXPECT_EQ(N.Net.transition(TransitionId(0u)).ExecTime, 7u);
}

TEST(PnmlImport, TinaDelayFallback) {
  // Both spellings: a bare child and one nested inside a foreign
  // tool's toolspecific block.
  PnmlNet Bare = parseOk(doc(
      "<place id=\"q\"/>"
      "<transition id=\"u\"><delay>3</delay></transition>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  EXPECT_EQ(Bare.Net.transition(TransitionId(0u)).ExecTime, 3u);
  PnmlNet Nested = parseOk(doc(
      "<place id=\"q\"/>"
      "<transition id=\"u\"><toolspecific tool=\"tina\">"
      "<delay>4</delay></toolspecific></transition>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  EXPECT_EQ(Nested.Net.transition(TransitionId(0u)).ExecTime, 4u);
}

TEST(PnmlImport, SdspAnnotationBeatsDelay) {
  PnmlNet N = parseOk(doc(
      "<place id=\"q\"/>"
      "<transition id=\"u\"><delay>9</delay>"
      "<toolspecific tool=\"sdsp\"><execTime>2</execTime>"
      "</toolspecific></transition>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  EXPECT_EQ(N.Net.transition(TransitionId(0u)).ExecTime, 2u);
}

TEST(PnmlImport, PagesAreFlattened) {
  PnmlNet N = parseOk(
      "<pnml><net id=\"n\"><page id=\"p1\"><place id=\"q\"/></page>"
      "<page id=\"p2\"><page id=\"p3\"><transition id=\"u\"/></page>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/></page></net></pnml>");
  EXPECT_EQ(N.Net.numPlaces(), 1u);
  EXPECT_EQ(N.Net.numTransitions(), 1u);
}

TEST(PnmlImport, NamespacePrefixesAreStripped) {
  PnmlNet N = parseOk(
      "<ns:pnml xmlns:ns=\"http://www.pnml.org\"><ns:net id=\"n\">"
      "<ns:page id=\"p\"><ns:place id=\"q\"/><ns:transition id=\"u\"/>"
      "<ns:arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<ns:arc id=\"a1\" source=\"u\" target=\"q\"/>"
      "</ns:page></ns:net></ns:pnml>");
  EXPECT_EQ(N.Net.numTransitions(), 1u);
}

TEST(PnmlImport, EntitiesAndCharRefs) {
  PnmlNet N = parseOk(doc(
      "<place id=\"q\"><name><text>a &lt;&amp;&gt; &#66;&#x43;</text>"
      "</name><initialMarking><text>&#50;</text></initialMarking>"
      "</place><transition id=\"u\"/>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  EXPECT_EQ(N.Net.place(PlaceId(0u)).Name, "a <&> BC");
  EXPECT_EQ(N.Net.place(PlaceId(0u)).InitialTokens, 2u);
}

TEST(PnmlImport, CommentsPisCdataAndBom) {
  PnmlNet N = parseOk(
      "\xEF\xBB\xBF<?xml version=\"1.0\"?><!-- c --><?pi data?>"
      "<pnml><net id=\"n\"><page id=\"p\">"
      "<place id=\"q\"><name><text><![CDATA[x <> y]]></text></name>"
      "</place><!-- mid --><transition id=\"u\"/>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"
      "</page></net></pnml>");
  EXPECT_EQ(N.Net.place(PlaceId(0u)).Name, "x <> y");
}

TEST(PnmlImport, InscriptionOneIsAccepted) {
  PnmlNet N = parseOk(doc(
      "<place id=\"q\"/>"
      "<transition id=\"u\"/>"
      "<arc id=\"a0\" source=\"q\" target=\"u\">"
      "<inscription><text>1</text></inscription></arc>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  EXPECT_EQ(N.Net.transition(TransitionId(0u)).InputPlaces.size(), 1u);
}

TEST(PnmlImport, UnknownElementsAreIgnored) {
  PnmlNet N = parseOk(doc(
      "<place id=\"q\"><graphics><position x=\"1\" y=\"2\"/></graphics>"
      "</place><transition id=\"u\"/>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"><graphics/></arc>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"
      "<toolspecific tool=\"editor\"><zoom>2</zoom></toolspecific>"));
  EXPECT_EQ(N.Net.numPlaces(), 1u);
}

//===----------------------------------------------------------------------===//
// Reject matrix
//===----------------------------------------------------------------------===//

TEST(PnmlReject, NotXml) { expectReject("hello", "expected '<'"); }

TEST(PnmlReject, Doctype) {
  expectReject("<!DOCTYPE pnml><pnml/>", "DOCTYPE");
}

TEST(PnmlReject, Truncated) {
  expectReject("<pnml><net id=\"n\"><page id=\"p\"><place id=\"q\">",
               "is never closed");
}

TEST(PnmlReject, MismatchedEndTag) {
  expectReject("<pnml><net id=\"n\"></page></net></pnml>",
               "does not match");
}

TEST(PnmlReject, RootIsNotPnml) {
  expectReject("<html><body/></html>", "expected <pnml>");
}

TEST(PnmlReject, NoNet) {
  expectReject("<pnml></pnml>", "no <net> element");
}

TEST(PnmlReject, MultipleNets) {
  expectReject("<pnml><net id=\"a\"><page id=\"p\"><place id=\"q\"/>"
               "<transition id=\"u\"/>"
               "<arc id=\"x\" source=\"q\" target=\"u\"/>"
               "<arc id=\"y\" source=\"u\" target=\"q\"/></page></net>"
               "<net id=\"b\"/></pnml>",
               "multiple <net> elements");
}

TEST(PnmlReject, EmptyNet) {
  expectReject("<pnml><net id=\"n\"/></pnml>", "no transitions");
}

TEST(PnmlReject, DuplicateId) {
  expectReject(doc("<place id=\"q\"/><transition id=\"q\"/>"),
               "duplicate id 'q'");
}

TEST(PnmlReject, PlaceWithoutId) {
  expectReject(doc("<place/><transition id=\"u\"/>"),
               "place without an id");
}

TEST(PnmlReject, UnknownArcEndpoint) {
  expectReject(doc("<place id=\"q\"/><transition id=\"u\"/>"
                   "<arc id=\"a0\" source=\"q\" target=\"ghost\"/>"),
               "unknown node 'ghost'");
}

TEST(PnmlReject, ArcMissingEndpoint) {
  expectReject(doc("<place id=\"q\"/><transition id=\"u\"/>"
                   "<arc id=\"a0\" source=\"q\"/>"),
               "source and target");
}

TEST(PnmlReject, PlaceToPlaceArc) {
  expectReject(doc("<place id=\"q\"/><place id=\"r\"/>"
                   "<transition id=\"u\"/>"
                   "<arc id=\"a0\" source=\"q\" target=\"r\"/>"),
               "connects two places");
}

TEST(PnmlReject, TransitionToTransitionArc) {
  expectReject(doc("<place id=\"q\"/><transition id=\"u\"/>"
                   "<transition id=\"v\"/>"
                   "<arc id=\"a0\" source=\"u\" target=\"v\"/>"),
               "connects two transitions");
}

TEST(PnmlReject, ArcWeightTwo) {
  expectReject(doc("<place id=\"q\"/><transition id=\"u\"/>"
                   "<arc id=\"a0\" source=\"q\" target=\"u\">"
                   "<inscription><text>2</text></inscription></arc>"),
               "multiplicity is 1");
}

TEST(PnmlReject, DuplicateArc) {
  expectReject(doc("<place id=\"q\"/><transition id=\"u\"/>"
                   "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
                   "<arc id=\"a1\" source=\"q\" target=\"u\"/>"),
               "duplicate arc");
}

TEST(PnmlReject, ZeroExecTime) {
  expectReject(doc("<place id=\"q\"/>"
                   "<transition id=\"u\"><toolspecific tool=\"sdsp\">"
                   "<execTime>0</execTime></toolspecific></transition>"),
               "tau >= 1");
}

TEST(PnmlReject, SdspAnnotationWithoutExecTime) {
  expectReject(doc("<place id=\"q\"/>"
                   "<transition id=\"u\">"
                   "<toolspecific tool=\"sdsp\"/></transition>"),
               "has no <execTime>");
}

TEST(PnmlReject, MarkingOutOfRange) {
  expectReject(doc("<place id=\"q\"><initialMarking>"
                   "<text>99999999999999999999</text>"
                   "</initialMarking></place><transition id=\"u\"/>"),
               "out of range");
}

TEST(PnmlReject, MarkingNotANumber) {
  expectReject(doc("<place id=\"q\"><initialMarking><text>two</text>"
                   "</initialMarking></place><transition id=\"u\"/>"),
               "expected a non-negative integer");
}

TEST(PnmlReject, UnknownEntity) {
  expectReject(doc("<place id=\"&copy;\"/><transition id=\"u\"/>"),
               "entity");
}

TEST(PnmlReject, CharRefBeyondUnicode) {
  expectReject(doc("<place id=\"q\"><name><text>&#x110000;</text></name>"
                   "</place><transition id=\"u\"/>"),
               "out of range");
}

TEST(PnmlReject, CharRefNul) {
  // &#x0; fits in 21 bits but NUL is not an XML Char: accepting it
  // would embed a 0 byte in the place name and poison every downstream
  // C-string consumer of the label.
  expectReject(doc("<place id=\"q\"><name><text>&#x0;</text></name>"
                   "</place><transition id=\"u\"/>"),
               "not a valid XML character");
}

TEST(PnmlReject, CharRefC0Control) {
  // Control characters other than tab/LF/CR are excluded by the XML
  // 1.0 Char production (0x1B = ESC).
  expectReject(doc("<place id=\"q\"><name><text>&#27;</text></name>"
                   "</place><transition id=\"u\"/>"),
               "not a valid XML character");
}

TEST(PnmlImport, CharRefTabLfCrAccepted) {
  // The three whitespace controls ARE XML Chars and must keep working.
  PnmlNet N = parseOk(doc("<place id=\"q\"><name>"
                          "<text>a&#x9;b&#xA;c&#xD;d</text></name>"
                          "</place><transition id=\"u\"/>"
                          "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
                          "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  EXPECT_EQ(N.Net.place(PlaceId(0u)).Name, "a\tb\nc\rd");
}

TEST(PnmlReject, CharRefSurrogate) {
  // UTF-16 surrogate halves are not characters; encoding one as UTF-8
  // (CESU-8 style) produces a byte sequence conforming decoders
  // reject.
  expectReject(doc("<place id=\"q\"><name><text>&#xD800;</text></name>"
                   "</place><transition id=\"u\"/>"),
               "not a valid XML character");
}

TEST(PnmlReject, CharRefNonCharacter) {
  expectReject(doc("<place id=\"q\"><name><text>&#xFFFE;</text></name>"
                   "</place><transition id=\"u\"/>"),
               "not a valid XML character");
}

TEST(PnmlReject, CharRefDiagnosticCarriesLine) {
  Expected<PnmlNet> N = parsePnml("<pnml>\n<net id=\"n\">\n<page id=\"p\">\n"
                                  "<place id=\"q\">\n"
                                  "<name><text>&#x0;</text></name>\n"
                                  "</place>\n<transition id=\"u\"/>\n"
                                  "</page></net></pnml>");
  ASSERT_FALSE(bool(N));
  EXPECT_NE(N.status().str().find("line 5"), std::string::npos)
      << N.status().str();
  EXPECT_EQ(N.status().code(), ErrorCode::InvalidInput);
}

TEST(PnmlReject, DepthLimit) {
  std::string Deep = "<pnml><net id=\"n\">";
  for (int I = 0; I < 70; ++I)
    Deep += "<page id=\"g\">";
  Expected<PnmlNet> N = parsePnml(Deep);
  ASSERT_FALSE(bool(N));
  EXPECT_NE(N.status().str().find("depth limit"), std::string::npos);
}

/// A valid net padded with empty foreign elements, one per line, to
/// \p Elements elements in all.
std::string paddedNet(size_t Elements) {
  // Ten elements on the first line; pad element K (from 1) sits on
  // line K + 1.
  std::string Text =
      "<pnml><net id=\"n\"><page id=\"p\"><place id=\"q\">"
      "<initialMarking><text>1</text></initialMarking></place>"
      "<transition id=\"u\"/><arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/></page>"
      "<toolspecific tool=\"pad\">";
  for (size_t I = 10; I < Elements; ++I)
    Text += "\n<g/>";
  return Text + "\n</toolspecific></net></pnml>";
}

TEST(PnmlReject, NodeLimitBoundary) {
  // Exactly 2^20 elements is the largest document the reader takes.
  Expected<PnmlNet> AtLimit = parsePnml(paddedNet(1u << 20));
  ASSERT_TRUE(bool(AtLimit)) << AtLimit.status().str();
  EXPECT_EQ(AtLimit->Net.numTransitions(), 1u);
  // One more is refused at the start tag of element 2^20 + 1: pad
  // element 2^20 - 9, on line 2^20 - 8.
  Expected<PnmlNet> Over = parsePnml(paddedNet((1u << 20) + 1));
  ASSERT_FALSE(bool(Over));
  EXPECT_EQ(Over.status().str(),
            "pnml: line " + std::to_string((1u << 20) - 8) +
                ": document exceeds the node limit [InvalidInput]");
}

TEST(PnmlReject, CancelledTokenStopsTheReader) {
  CancelSource Src;
  Src.cancel();
  Expected<PnmlNet> N = parsePnml(doc(RingBody), Src.token());
  ASSERT_FALSE(bool(N));
  EXPECT_EQ(N.status().code(), ErrorCode::Cancelled);
  EXPECT_EQ(N.status().stage(), "pnml");
  // An expired deadline says so.
  CancelSource Late = CancelSource::withDeadline(std::chrono::milliseconds(0));
  Expected<PnmlNet> M = parsePnml(doc(RingBody), Late.token());
  ASSERT_FALSE(bool(M));
  EXPECT_EQ(M.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_EQ(M.status().str(), "pnml: deadline exceeded while reading the "
                              "document [DeadlineExceeded]");
  // A token that never fires changes nothing.
  EXPECT_TRUE(bool(parsePnml(doc(RingBody), CancelSource().token())));
}

TEST(PnmlReject, DiagnosticsCarryLineNumbers) {
  Expected<PnmlNet> N = parsePnml("<pnml>\n<net id=\"n\">\n<page id=\"p\">\n"
                                  "<place id=\"q\"/>\n<place id=\"q\"/>\n"
                                  "</page></net></pnml>");
  ASSERT_FALSE(bool(N));
  EXPECT_NE(N.status().str().find("line 5"), std::string::npos)
      << N.status().str();
}

//===----------------------------------------------------------------------===//
// Corpus verdicts
//===----------------------------------------------------------------------===//

/// What the reader makes of one corpus file: the full diagnostic of a
/// rejection, or the place, transition and arc counts of the net.
struct CorpusVerdict {
  const char *File;
  const char *Diagnostic;
  size_t Places, Transitions, Arcs;
};

const CorpusVerdict CorpusVerdicts[] = {
    {"badref.pnml",
     "pnml: line 8: arc a1 references unknown node 'ghost' [InvalidInput]",
     0, 0, 0},
    {"deadring.pnml", nullptr, 2, 2, 4},
    {"deepnest.pnml",
     "pnml: line 68: element nesting exceeds depth limit 64 [InvalidInput]",
     0, 0, 0},
    {"doctype.pnml",
     "pnml: line 2: DOCTYPE declarations are not supported (no internal "
     "DTD subset) [InvalidInput]",
     0, 0, 0},
    {"dupid.pnml", "pnml: line 6: duplicate id 'node' [InvalidInput]", 0, 0,
     0},
    {"emptynet.pnml",
     "pnml: line 3: net has no transitions (nothing to execute) "
     "[InvalidInput]",
     0, 0, 0},
    {"entity.pnml", nullptr, 1, 1, 2},
    {"freechoice.pnml", nullptr, 3, 3, 7},
    {"hugecount.pnml",
     "pnml: line 6: initial marking of 'q' is out of range [InvalidInput]",
     0, 0, 0},
    {"multinet.pnml",
     "pnml: line 11: multiple <net> elements are not supported "
     "[InvalidInput]",
     0, 0, 0},
    {"notxml.pnml", "pnml: line 1: expected '<' [InvalidInput]", 0, 0, 0},
    {"nulref.pnml",
     "pnml: line 8: character reference '&#x0;' is not a valid XML "
     "character [InvalidInput]",
     0, 0, 0},
    {"onechoice.pnml", nullptr, 1, 2, 4},
    {"overflowref.pnml",
     "pnml: line 10: character reference out of range [InvalidInput]", 0, 0,
     0},
    {"pipeline2tok.pnml", nullptr, 2, 2, 4},
    {"placeplace.pnml",
     "pnml: line 8: arc a0 connects two places (arcs must join a place and "
     "a transition) [InvalidInput]",
     0, 0, 0},
    {"ring.pnml", nullptr, 3, 3, 6},
    {"selfloop.pnml", nullptr, 1, 1, 2},
    {"surrogateref.pnml",
     "pnml: line 8: character reference '&#xD800;' is not a valid XML "
     "character [InvalidInput]",
     0, 0, 0},
    {"truncated.pnml",
     "pnml: line 7: malformed end tag </initialMa> [InvalidInput]", 0, 0, 0},
    {"weight2.pnml",
     "pnml: line 12: arc a0 has multiplicity 2 (arc multiplicity is 1 "
     "throughout the model) [InvalidInput]",
     0, 0, 0},
    {"zerotime.pnml",
     "pnml: line 12: transition 'u' has execution time 0 (deterministic "
     "timing needs tau >= 1) [InvalidInput]",
     0, 0, 0},
};

TEST(PnmlCorpus, EveryFileHasItsExactVerdict) {
  std::vector<std::string> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SDSP_PNML_CORPUS_DIR))
    if (Entry.path().extension() == ".pnml")
      Files.push_back(Entry.path().filename().string());
  std::sort(Files.begin(), Files.end());
  std::vector<std::string> Listed;
  for (const CorpusVerdict &V : CorpusVerdicts)
    Listed.push_back(V.File);
  // A file without a row (or a row without a file) fails here.
  EXPECT_EQ(Files, Listed);

  for (const CorpusVerdict &V : CorpusVerdicts) {
    std::ifstream In(std::filesystem::path(SDSP_PNML_CORPUS_DIR) / V.File,
                     std::ios::binary);
    Expected<PnmlNet> N =
        parsePnml(std::string(std::istreambuf_iterator<char>(In), {}));
    if (V.Diagnostic) {
      ASSERT_FALSE(bool(N)) << V.File;
      EXPECT_EQ(N.status().str(), V.Diagnostic) << V.File;
      continue;
    }
    ASSERT_TRUE(bool(N)) << V.File << ": " << N.status().str();
    size_t Arcs = 0;
    for (TransitionId T : N->Net.transitionIds())
      Arcs += N->Net.transition(T).InputPlaces.size() +
              N->Net.transition(T).OutputPlaces.size();
    EXPECT_EQ(N->Net.numPlaces(), V.Places) << V.File;
    EXPECT_EQ(N->Net.numTransitions(), V.Transitions) << V.File;
    EXPECT_EQ(Arcs, V.Arcs) << V.File;
  }
}

//===----------------------------------------------------------------------===//
// Round trip
//===----------------------------------------------------------------------===//

TEST(PnmlRoundTrip, CanonicalExportIsAFixpoint) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("load <x>", 2);
  TransitionId B = NB.addTransition("store \"y\"", 3);
  PlaceId P = NB.addPlace("a->b", 1);
  PlaceId Q = NB.addPlace("b->a", 0);
  NB.addArc(A, P);
  NB.addArc(P, B);
  NB.addArc(B, Q);
  NB.addArc(Q, A);
  PetriNet Net = NB.build();
  std::string First = pnmlString(Net, "two_stage");
  PnmlNet Again = parseOk(First);
  EXPECT_EQ(Again.NetId, "two_stage");
  EXPECT_EQ(pnmlString(Again.Net, Again.NetId), First);
}

TEST(PnmlRoundTrip, ImportPreservesStructureExactly) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a", 1);
  TransitionId B = NB.addTransition("b", 5);
  PlaceId P = NB.addPlace("p", 2);
  NB.addArc(A, P);
  NB.addArc(P, B);
  PetriNet Net = NB.build();
  PnmlNet Again = parseOk(pnmlString(Net, "frag"));
  ASSERT_EQ(Again.Net.numTransitions(), 2u);
  EXPECT_EQ(Again.Net.transition(TransitionId(1u)).ExecTime, 5u);
  EXPECT_EQ(Again.Net.place(PlaceId(0u)).InitialTokens, 2u);
  EXPECT_EQ(Again.Net.place(PlaceId(0u)).Producers.size(), 1u);
  EXPECT_EQ(Again.Net.place(PlaceId(0u)).Consumers.size(), 1u);
}

/// A net for the export comparison: places p and q, transitions t and u,
/// both producing into p, t consuming from p and q and producing into q.
struct SmallNet {
  std::string Id = "n";
  std::string PName = "p<&'>", QName = "q", TName = "t\"0", UName = "u";
  uint32_t PTokens = 1, QTokens = 0;
  uint32_t TTime = 1, UTime = 3;
  /// Add u -> p before t -> p: p's producers change order, no
  /// transition's list does.
  bool ProducersSwapped = false;
  /// Add q -> t before p -> t: t's input list changes order.
  bool InputsSwapped = false;
  bool ExtraArc = false;

  PetriNet build() const {
    PetriNetBuilder B;
    PlaceId P = B.addPlace(PName, PTokens), Q = B.addPlace(QName, QTokens);
    TransitionId T = B.addTransition(TName, TTime),
                 U = B.addTransition(UName, UTime);
    if (ProducersSwapped)
      B.addArc(U, P);
    B.addArc(T, P);
    if (!ProducersSwapped)
      B.addArc(U, P);
    if (InputsSwapped)
      B.addArc(Q, T);
    B.addArc(P, T);
    if (!InputsSwapped)
      B.addArc(Q, T);
    B.addArc(T, Q);
    if (ExtraArc)
      B.addArc(Q, U);
    return B.build();
  }
};

TEST(PnmlRoundTrip, SameExportAgreesWithTheBytes) {
  const SmallNet Base;
  PetriNet A = Base.build();
  std::vector<std::pair<const char *, SmallNet>> Variants = {
      {"unchanged", Base}};
  auto Add = [&](const char *What, auto Mutate) {
    SmallNet V = Base;
    Mutate(V);
    Variants.push_back({What, V});
  };
  Add("net id", [](SmallNet &V) { V.Id = "m"; });
  Add("place name", [](SmallNet &V) { V.PName = "p<&'> "; });
  Add("place tokens", [](SmallNet &V) { V.QTokens = 1; });
  Add("transition name", [](SmallNet &V) { V.UName = "v"; });
  Add("execution time", [](SmallNet &V) { V.TTime = 2; });
  Add("input order", [](SmallNet &V) { V.InputsSwapped = true; });
  Add("output list", [](SmallNet &V) { V.ExtraArc = true; });
  Add("producer order", [](SmallNet &V) { V.ProducersSwapped = true; });
  size_t Same = 0;
  for (const auto &[What, V] : Variants) {
    PetriNet B = V.build();
    bool Bytes = pnmlString(A, Base.Id) == pnmlString(B, V.Id);
    EXPECT_EQ(samePnmlExport(A, Base.Id, B, V.Id), Bytes) << What;
    EXPECT_EQ(samePnmlExport(B, V.Id, A, Base.Id), Bytes) << What;
    Same += Bytes;
  }
  // Only the unchanged net and the one whose place-side list moved
  // export the same bytes; the latter really is another net.
  EXPECT_EQ(Same, 2u);
  PetriNet Swapped = Variants.back().second.build();
  EXPECT_FALSE(std::ranges::equal(A.place(PlaceId(0u)).Producers,
                                  Swapped.place(PlaceId(0u)).Producers));
}

//===----------------------------------------------------------------------===//
// Behavior-graph occurrence nets
//===----------------------------------------------------------------------===//

TEST(PnmlBehavior, OccurrenceNetOfARing) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a", 1);
  TransitionId B = NB.addTransition("b", 1);
  PlaceId P = NB.addPlace("p", 1);
  PlaceId Q = NB.addPlace("q", 0);
  NB.addArc(A, Q);
  NB.addArc(Q, B);
  NB.addArc(B, P);
  NB.addArc(P, A);
  PetriNet Net = NB.build();
  EarliestFiringEngine Engine(Net);
  FiringTrace Trace;
  for (int I = 0; I < 4; ++I)
    Engine.fireAndAdvance(Trace);
  PetriNet Occ = behaviorNet(Net, Trace, 0, 4);
  // An occurrence net is acyclic and conflict-free: every place has at
  // most one producer and one consumer.
  EXPECT_GT(Occ.numTransitions(), 0u);
  for (PlaceId Pl : Occ.placeIds()) {
    EXPECT_LE(Occ.place(Pl).Producers.size(), 1u);
    EXPECT_LE(Occ.place(Pl).Consumers.size(), 1u);
  }
  // Occurrence names carry the source transition, occurrence index,
  // and start time.
  EXPECT_EQ(Occ.transition(TransitionId(0u)).Name, "a#0@0");
  // The exported occurrence net is itself valid PNML.
  PnmlNet Again = parseOk(pnmlString(Occ, "behavior"));
  EXPECT_EQ(Again.Net.numTransitions(), Occ.numTransitions());
}

TEST(PnmlBehavior, WindowRestrictionSeedsInitialMarking) {
  PetriNetBuilder NB;
  TransitionId A = NB.addTransition("a", 1);
  PlaceId P = NB.addPlace("p", 1);
  NB.addArc(A, P);
  NB.addArc(P, A);
  PetriNet Net = NB.build();
  EarliestFiringEngine Engine(Net);
  FiringTrace Trace;
  for (int I = 0; I < 6; ++I)
    Engine.fireAndAdvance(Trace);
  // Window [3, 6): tokens produced before step 3 become the initial
  // marking of the windowed occurrence net.
  PetriNet Occ = behaviorNet(Net, Trace, 3, 6);
  uint32_t Initial = 0;
  for (PlaceId Pl : Occ.placeIds())
    Initial += Occ.place(Pl).InitialTokens;
  EXPECT_GE(Initial, 1u);
  for (TransitionId T : Occ.transitionIds())
    EXPECT_EQ(Occ.transition(T).Name.find("a#"), 0u);
}

//===----------------------------------------------------------------------===//
// Session passes
//===----------------------------------------------------------------------===//

TEST(PnmlSession, ImportClassifiesAndCaches) {
  CompilationSession S(SessionConfig{true});
  std::string Text = doc(RingBody);
  Expected<ArtifactRef<ExternalNet>> First = S.importPnml(Text);
  ASSERT_TRUE(bool(First)) << First.status().str();
  EXPECT_TRUE((*First)->Class.MarkedGraph);
  EXPECT_TRUE((*First)->Class.Live);
  EXPECT_TRUE((*First)->Class.Safe);
  EXPECT_TRUE((*First)->Class.Consistent);
  size_t Hits = S.trace().totalCacheHits();
  Expected<ArtifactRef<ExternalNet>> Second = S.importPnml(Text);
  ASSERT_TRUE(bool(Second));
  EXPECT_GT(S.trace().totalCacheHits(), Hits);
  EXPECT_EQ(First->hash(), Second->hash());
}

TEST(PnmlSession, ExportMatchesFreeFunction) {
  CompilationSession S(SessionConfig{true});
  Expected<ArtifactRef<ExternalNet>> Ext = S.importPnml(doc(RingBody));
  ASSERT_TRUE(bool(Ext));
  Expected<ArtifactRef<PnmlText>> P = S.exportPnml(*Ext);
  ASSERT_TRUE(bool(P)) << P.status().str();
  EXPECT_EQ((*P)->Text, pnmlString((*Ext)->Net, (*Ext)->NetId));
  EXPECT_EQ((*P)->NetId, "n");
}

TEST(PnmlSession, RateRejectsNonLiveNets) {
  CompilationSession S(SessionConfig{true});
  // A marked graph with a token-free cycle: classification succeeds,
  // rate analysis refuses (Thm A.5.1).
  Expected<ArtifactRef<ExternalNet>> Ext = S.importPnml(
      doc("<place id=\"q\"/><transition id=\"u\"/>"
          "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
          "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  ASSERT_TRUE(bool(Ext));
  EXPECT_TRUE((*Ext)->Class.MarkedGraph);
  EXPECT_FALSE((*Ext)->Class.Live);
  Expected<ArtifactRef<RateReport>> R = S.computeRate(*Ext);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.status().code(), ErrorCode::InvalidNet);
}

TEST(PnmlSession, FrustumRejectsNetsThatAreNotLiveMarkedGraphs) {
  CompilationSession S(SessionConfig{true});
  // One token, two transitions that both take it and put it back: a
  // free choice that never deadlocks, so the simulation alone would
  // report a frustum in which one of them never fires.
  Expected<ArtifactRef<ExternalNet>> Choice = S.importPnml(doc(
      "<place id=\"q\"><initialMarking><text>1</text></initialMarking>"
      "</place><transition id=\"a\"/><transition id=\"b\"/>"
      "<arc id=\"a0\" source=\"q\" target=\"a\"/>"
      "<arc id=\"a1\" source=\"a\" target=\"q\"/>"
      "<arc id=\"a2\" source=\"q\" target=\"b\"/>"
      "<arc id=\"a3\" source=\"b\" target=\"q\"/>"));
  ASSERT_TRUE(bool(Choice)) << Choice.status().str();
  EXPECT_FALSE((*Choice)->Class.MarkedGraph);
  Expected<ArtifactRef<FrustumInfo>> F =
      S.searchFrustum(*Choice, FrustumOptions{});
  ASSERT_FALSE(bool(F));
  EXPECT_EQ(F.status().code(), ErrorCode::InvalidNet);
  EXPECT_EQ(F.status().message(),
            "net 'n' is not a marked graph (frustum search needs one)");

  // A marked graph with a token-free cycle: the gate, not the engine,
  // rejects it.
  Expected<ArtifactRef<ExternalNet>> Dead = S.importPnml(
      doc("<place id=\"q\"/><transition id=\"u\"/>"
          "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
          "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  ASSERT_TRUE(bool(Dead));
  F = S.searchFrustum(*Dead, FrustumOptions{});
  ASSERT_FALSE(bool(F));
  EXPECT_EQ(F.status().code(), ErrorCode::InvalidNet);
  EXPECT_NE(F.status().message().find("is not live"), std::string::npos);

  // Rejections are failures of the pass, and failures are not cached.
  F = S.searchFrustum(*Choice, FrustumOptions{});
  ASSERT_FALSE(bool(F));
  PipelineTrace Trace = S.trace();
  auto Row = std::find_if(
      Trace.Passes.begin(), Trace.Passes.end(),
      [](const PipelineTrace::Row &R) { return R.Pass == "frustum"; });
  ASSERT_NE(Row, Trace.Passes.end());
  EXPECT_EQ(Row->Stats.Failures, 3u);
  EXPECT_EQ(Row->Stats.CacheHits, 0u);
}

TEST(PnmlSession, FrustumRateMatchesAnalyticRate) {
  CompilationSession S(SessionConfig{true});
  Expected<ArtifactRef<ExternalNet>> Ext = S.importPnml(doc(
      "<place id=\"q\"><initialMarking><text>1</text></initialMarking>"
      "</place><transition id=\"u\"><delay>5</delay></transition>"
      "<arc id=\"a0\" source=\"q\" target=\"u\"/>"
      "<arc id=\"a1\" source=\"u\" target=\"q\"/>"));
  ASSERT_TRUE(bool(Ext));
  Expected<ArtifactRef<RateReport>> R = S.computeRate(*Ext);
  ASSERT_TRUE(bool(R)) << R.status().str();
  EXPECT_EQ((*R)->CycleTime, Rational(5));
  Expected<ArtifactRef<FrustumInfo>> F =
      S.searchFrustum(*Ext, FrustumOptions{});
  ASSERT_TRUE(bool(F)) << F.status().str();
  EXPECT_EQ((*F)->computationRate(TransitionId(0u)), (*R)->OptimalRate);
}

TEST(PnmlSession, ParseFaultSiteFiresInsideTheCompute) {
  FaultSchedule Sched;
  Expected<FaultSchedule> Parsed = FaultSchedule::parse("pnml:parse:fail@1");
  ASSERT_TRUE(bool(Parsed));
  Sched = std::move(*Parsed);
  FaultContext Ctx(&Sched, "pnml:test");
  SessionConfig Cfg;
  Cfg.Faults = &Ctx;
  CompilationSession S(Cfg);
  Expected<ArtifactRef<ExternalNet>> First = S.importPnml(doc(RingBody));
  ASSERT_FALSE(bool(First));
  EXPECT_EQ(First.status().code(), ErrorCode::TransientFault);
  // Failures are never cached: the retry recomputes (arrival 2, no
  // trigger) and succeeds.
  Expected<ArtifactRef<ExternalNet>> Second = S.importPnml(doc(RingBody));
  ASSERT_TRUE(bool(Second)) << Second.status().str();
}

TEST(PnmlSession, DeadlineInsideTheReaderFailsThePassUncached) {
  // The delay fault sleeps past the deadline after the pass boundary's
  // poll; the reader's own poll stops the import.
  Expected<FaultSchedule> Sched =
      FaultSchedule::parse("pnml:parse:delay=600ms");
  ASSERT_TRUE(bool(Sched));
  FaultContext Ctx(&*Sched, "pnml:test");
  MemoryStore Store(MemoryStore::Config{1, 0});
  CancelSource Deadline =
      CancelSource::withDeadline(std::chrono::milliseconds(300));
  SessionConfig Late;
  Late.EnableCache = true;
  Late.Store = &Store;
  Late.Cancel = Deadline.token();
  Late.Faults = &Ctx;
  CompilationSession S(Late);
  Expected<ArtifactRef<ExternalNet>> First = S.importPnml(doc(RingBody));
  ASSERT_FALSE(bool(First));
  EXPECT_EQ(First.status().code(), ErrorCode::DeadlineExceeded);
  EXPECT_EQ(First.status().stage(), "pnml");
  // Nothing was stored: a session on time computes the import again.
  SessionConfig OnTime;
  OnTime.EnableCache = true;
  OnTime.Store = &Store;
  CompilationSession T(OnTime);
  Expected<ArtifactRef<ExternalNet>> Second = T.importPnml(doc(RingBody));
  ASSERT_TRUE(bool(Second)) << Second.status().str();
  EXPECT_EQ(T.trace().totalCacheHits(), 0u);
}

/// The current value of counter \p Name in the global registry.
uint64_t counter(std::string_view Name) {
  for (const auto &[Key, Value] : MetricsRegistry::global().snapshot().Counters)
    if (Key == Name)
      return Value;
  return 0;
}

TEST(PnmlSession, ImportBytesCountComputedImportsOnly) {
  std::filesystem::path Ring =
      std::filesystem::path(SDSP_PNML_CORPUS_DIR) / "ring.pnml";
  std::ifstream In(Ring, std::ios::binary);
  std::string Text(std::istreambuf_iterator<char>(In), {});
  ASSERT_FALSE(Text.empty());
  CompilationSession S(SessionConfig{true});
  uint64_t Before = counter("pnml.import.bytes");
  ASSERT_TRUE(bool(S.importPnml(Text)));
  EXPECT_EQ(counter("pnml.import.bytes") - Before,
            std::filesystem::file_size(Ring));
  // A repeat is a hit: the reader never sees the document.
  uint64_t AfterFirst = counter("pnml.import.bytes");
  ASSERT_TRUE(bool(S.importPnml(Text)));
  EXPECT_EQ(counter("pnml.import.bytes"), AfterFirst);
}

//===----------------------------------------------------------------------===//
// Truncation fuzz
//===----------------------------------------------------------------------===//

TEST(PnmlFuzz, EveryPrefixParsesOrRejectsCleanly) {
  // Every byte-prefix of a valid document must either parse or produce
  // a structured pnml-stage InvalidInput — never crash or hang.
  std::string Full = pnmlString([] {
    PetriNetBuilder NB;
    TransitionId A = NB.addTransition("a", 2);
    TransitionId B = NB.addTransition("b", 1);
    PlaceId P = NB.addPlace("p", 1);
    PlaceId Q = NB.addPlace("q", 0);
    NB.addArc(A, P);
    NB.addArc(P, B);
    NB.addArc(B, Q);
    NB.addArc(Q, A);
    return NB.build();
  }(), "fuzz");
  for (size_t Len = 0; Len <= Full.size(); ++Len) {
    Expected<PnmlNet> N = parsePnml(Full.substr(0, Len));
    if (!N) {
      EXPECT_EQ(N.status().code(), ErrorCode::InvalidInput) << Len;
      EXPECT_EQ(N.status().stage(), "pnml") << Len;
    } else {
      // Only prefixes that merely trim trailing whitespace may parse.
      EXPECT_EQ(Full.find_first_not_of(" \t\r\n", Len), std::string::npos)
          << Len;
    }
  }
}

} // namespace
