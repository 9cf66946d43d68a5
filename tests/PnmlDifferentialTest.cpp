//===- tests/PnmlDifferentialTest.cpp - One-pass vs the DOM reader --------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// Pins parsePnml, the reader that builds the net as it scans, to
// parsePnmlReference, the DOM reader (tests/PnmlReference.cpp).  "Same"
// means the same verdict; on rejection the same Status text and code;
// on success the same net id, the same net field by field, and the same
// content hash.  Inputs: every bundled kernel's SDSP-PN at several
// unroll factors, every corpus file, every byte-prefix of three
// documents, seeded hostile mutations, seeded mutations that keep a
// document valid, and documents for the orderings a one-pass reader
// must keep.  Floors keep the suite from passing vacuously: enough
// valid mutants must be accepted, and every diagnostic the reader can
// emit must be produced at least once.
//
//===----------------------------------------------------------------------===//

#include "PnmlReference.h"

#include "core/ArtifactHash.h"
#include "core/Session.h"
#include "livermore/Livermore.h"
#include "support/Random.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>

using namespace sdsp;

namespace {

/// Running totals of one suite.
struct Tally {
  size_t Docs = 0;
  size_t Accepted = 0;
  size_t Mismatches = 0;
  /// Rejections per diagnostic template (see Diagnostics).
  std::map<std::string, size_t> Sites;
};

/// Every diagnostic parsePnml can emit, one per call site, with '*'
/// standing for the document-supplied parts.
const char *const Diagnostics[] = {
    "document has no root element",
    "content after the root element",
    "DOCTYPE declarations are not supported (no internal DTD subset)",
    "unterminated comment",
    "unterminated processing instruction",
    "unterminated CDATA section",
    "expected a name",
    "unterminated entity reference",
    "unknown entity '&*;' (only the five predefined XML entities are "
    "supported)",
    "empty character reference",
    "malformed character reference '&*;'",
    "character reference out of range",
    "character reference '&*;' is not a valid XML character",
    "attribute value must be quoted",
    "unterminated attribute value",
    "'<' in attribute value",
    "element nesting exceeds depth limit 64",
    "document exceeds the node limit",
    "expected '<'",
    "unterminated start tag <*>",
    "attribute '*' is missing '='",
    "element <*> is never closed",
    "malformed end tag </*>",
    "end tag </*> does not match <*>",
    "unsupported markup declaration",
    "root element is <*>, expected <pnml>",
    "multiple <net> elements are not supported",
    "document has no <net> element",
    "net has no transitions (nothing to execute)",
    "* of '*' is '*', expected a non-negative integer",
    "* of '*' is out of range",
    "* without an id attribute",
    "duplicate id '*'",
    "toolspecific annotation of '*' has no <execTime>",
    "transition '*' has execution time 0 (deterministic timing needs tau "
    ">= 1)",
    "arc * references unknown node '*'",
    "arc * needs source and target",
    "arc * connects two * (arcs must join a place and a transition)",
    "arc * has multiplicity * (arc multiplicity is 1 throughout the "
    "model)",
    "duplicate arc from '*' to '*'",
};

/// Glob match where '*' matches any run of characters.
bool globMatch(std::string_view Pattern, std::string_view Text) {
  size_t Star = Pattern.find('*');
  if (Star == std::string_view::npos)
    return Pattern == Text;
  if (Text.substr(0, Star) != Pattern.substr(0, Star))
    return false;
  std::string_view Rest = Pattern.substr(Star + 1);
  for (size_t From = Star; From <= Text.size(); ++From)
    if (globMatch(Rest, Text.substr(From)))
      return true;
  return false;
}

/// The template \p Message was built from, or "" when none fits.
std::string diagnosticOf(const std::string &Message) {
  // Every reader diagnostic is "line N: <text>".
  size_t Colon = Message.find(": ");
  if (Message.rfind("line ", 0) != 0 || Colon == std::string::npos)
    return "";
  std::string_view Text = std::string_view(Message).substr(Colon + 2);
  for (const char *D : Diagnostics)
    if (globMatch(D, Text))
      return D;
  return "";
}

/// The first field in which two nets differ, or "" when they agree.
std::string netDifference(const PetriNet &A, const PetriNet &B) {
  if (A.numPlaces() != B.numPlaces())
    return "place count";
  if (A.numTransitions() != B.numTransitions())
    return "transition count";
  for (PlaceId P : A.placeIds()) {
    const PetriNet::Place &X = A.place(P), &Y = B.place(P);
    if (X.Name != Y.Name || X.InitialTokens != Y.InitialTokens ||
        !std::ranges::equal(X.Producers, Y.Producers) ||
        !std::ranges::equal(X.Consumers, Y.Consumers))
      return "place " + std::to_string(P.index());
  }
  for (TransitionId T : A.transitionIds()) {
    const PetriNet::Transition &X = A.transition(T), &Y = B.transition(T);
    if (X.Name != Y.Name || X.ExecTime != Y.ExecTime ||
        !std::ranges::equal(X.InputPlaces, Y.InputPlaces) ||
        !std::ranges::equal(X.OutputPlaces, Y.OutputPlaces))
      return "transition " + std::to_string(T.index());
  }
  if (artifactHash(A) != artifactHash(B))
    return "content hash";
  return "";
}

/// Runs both readers on \p Text and records any difference as a test
/// failure (the first few in full).  Returns whether parsePnml
/// accepted it.
bool compareReaders(const std::string &Text, const std::string &What,
                    Tally &T) {
  Expected<PnmlNet> New = parsePnml(Text);
  Expected<PnmlNet> Old = parsePnmlReference(Text);
  ++T.Docs;
  std::string Diff;
  if (bool(New) != bool(Old)) {
    Diff = New ? "accepted, the reference rejects: " + Old.status().str()
               : "rejected, the reference accepts: " + New.status().str();
  } else if (!New) {
    if (New.status().str() != Old.status().str() ||
        New.status().code() != Old.status().code())
      Diff = "diagnostic '" + New.status().str() + "', the reference's '" +
             Old.status().str() + "'";
    std::string Site = diagnosticOf(New.status().message());
    if (Site.empty() && Diff.empty())
      Diff = "diagnostic '" + New.status().str() + "' is not in the catalog";
    ++T.Sites[Site];
  } else {
    ++T.Accepted;
    if (New->NetId != Old->NetId)
      Diff = "net id '" + New->NetId + "', the reference's '" + Old->NetId +
             "'";
    else if (std::string Field = netDifference(New->Net, Old->Net);
             !Field.empty())
      Diff = "nets differ in the " + Field;
  }
  if (!Diff.empty() && ++T.Mismatches <= 3)
    ADD_FAILURE() << What << ": " << Diff << "\n--- document ---\n"
                  << Text.substr(0, 4000);
  return bool(New);
}

/// Prints a suite's totals next to gtest's own lines.
void report(const char *Suite, const Tally &T) {
  std::printf("[ tally    ] %s: %zu documents, %zu accepted\n", Suite, T.Docs,
              T.Accepted);
}

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In), {});
}

/// The corpus files, sorted by name.
std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(SDSP_PNML_CORPUS_DIR))
    if (Entry.path().extension() == ".pnml")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

/// The canonical export of a bundled kernel's SDSP-PN.
std::string kernelExport(const LivermoreKernel &K, uint32_t Unroll) {
  CompilationSession S(SessionConfig{false});
  PipelineOptions Opts;
  Opts.Unroll = Unroll;
  Opts.StopAfter = PipelineStage::Petri;
  Expected<CompiledLoop> CL = S.compile(K.Source, Opts);
  SDSP_CHECK(bool(CL), "a bundled kernel failed to compile");
  return pnmlString(CL->Pn->Net, "sdsp_pn");
}

/// The corpus documents the model accepts: the bases for mutation.
std::vector<std::string> validBases() {
  std::vector<std::string> Bases;
  for (const auto &Path : corpusFiles()) {
    std::string Text = readFile(Path);
    if (parsePnmlReference(Text))
      Bases.push_back(std::move(Text));
  }
  Bases.push_back(kernelExport(*findKernel("l1"), 1));
  Bases.push_back(kernelExport(*findKernel("loop1"), 2));
  return Bases;
}

size_t pick(Rng &R, size_t N) {
  return static_cast<size_t>(R.range(0, static_cast<int64_t>(N) - 1));
}

//===----------------------------------------------------------------------===//
// Structured inputs
//===----------------------------------------------------------------------===//

TEST(PnmlDifferential, KernelExports) {
  Tally T;
  for (const LivermoreKernel &K : livermoreKernels())
    for (uint32_t Unroll : {1u, 4u, 16u, 64u})
      EXPECT_TRUE(compareReaders(kernelExport(K, Unroll),
                                 K.Id + " x" + std::to_string(Unroll), T))
          << K.Id << " x" << Unroll;
  report("kernel exports", T);
  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_EQ(T.Accepted, T.Docs);
}

TEST(PnmlDifferential, CorpusFiles) {
  Tally T;
  for (const auto &Path : corpusFiles())
    compareReaders(readFile(Path), Path.filename().string(), T);
  report("corpus files", T);
  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_GE(T.Docs, 20u);
  EXPECT_GT(T.Accepted, 0u);
  EXPECT_LT(T.Accepted, T.Docs);
}

TEST(PnmlDifferential, EveryBytePrefix) {
  Tally T;
  std::vector<std::pair<std::string, std::string>> Docs = {
      {"ring.pnml", readFile(std::filesystem::path(SDSP_PNML_CORPUS_DIR) /
                             "ring.pnml")},
      {"entity.pnml", readFile(std::filesystem::path(SDSP_PNML_CORPUS_DIR) /
                               "entity.pnml")},
      {"l1 export", kernelExport(*findKernel("l1"), 1)}};
  for (const auto &[Name, Text] : Docs) {
    ASSERT_FALSE(Text.empty()) << Name;
    for (size_t Len = 0; Len <= Text.size(); ++Len)
      compareReaders(Text.substr(0, Len),
                     Name + " prefix " + std::to_string(Len), T);
  }
  report("byte prefixes", T);
  EXPECT_EQ(T.Mismatches, 0u);
  // Only the whole documents (give or take trailing whitespace) parse.
  EXPECT_GE(T.Accepted, Docs.size());
  EXPECT_LT(T.Accepted, 3 * Docs.size());
}

/// The labels and attribute values of \p Doc as [begin, end) byte
/// ranges: the character data of each element whose start tag is
/// followed by its end tag with only character data between them, and
/// the bytes between the quotes of each attribute.
std::vector<std::pair<size_t, size_t>> labelsAndValues(const std::string &Doc) {
  std::vector<std::pair<size_t, size_t>> Ranges;
  for (size_t I = 0; I < Doc.size(); ++I) {
    if (Doc[I] != '<' || I + 1 == Doc.size() ||
        !std::isalpha(static_cast<unsigned char>(Doc[I + 1])))
      continue;
    // A start tag: its attribute values, then its content if it is a
    // leaf.
    size_t J = I + 1;
    while (J < Doc.size() && Doc[J] != '>') {
      if (Doc[J] == '"' || Doc[J] == '\'') {
        size_t Close = Doc.find(Doc[J], J + 1);
        Ranges.push_back({J + 1, Close});
        J = Close;
      }
      ++J;
    }
    if (J == Doc.size() || Doc[J - 1] == '/')
      continue;
    size_t Next = Doc.find('<', J + 1);
    if (Next != std::string::npos && Doc.compare(Next, 2, "</") == 0)
      Ranges.push_back({J + 1, Next});
  }
  return Ranges;
}

TEST(PnmlDifferential, LabelAndValueBoundaries) {
  // A reference, comment, CDATA section, PI or child element at any
  // offset of a label or an attribute value must be decoded, or
  // rejected, exactly as the reference reader does: the byte searches
  // that cross character data and values must stop at each of them,
  // and a label holding one is no longer a plain view of the document.
  const char *const Inserts[] = {"&gt;",     "&#x41;",   "<!-- c -->",
                                 "<![CDATA[x]]>", "<?pi x?>", "<b/>"};
  Tally T;
  size_t Ranges = 0;
  std::vector<std::pair<std::string, std::string>> Docs = {
      {"ring.pnml", readFile(std::filesystem::path(SDSP_PNML_CORPUS_DIR) /
                             "ring.pnml")},
      {"entity.pnml", readFile(std::filesystem::path(SDSP_PNML_CORPUS_DIR) /
                               "entity.pnml")},
      {"l1 export", kernelExport(*findKernel("l1"), 1)}};
  for (const auto &[Name, Text] : Docs) {
    ASSERT_FALSE(Text.empty()) << Name;
    for (auto [Begin, End] : labelsAndValues(Text)) {
      ++Ranges;
      for (size_t At = Begin; At <= End; ++At)
        for (const char *Insert : Inserts)
          compareReaders(Text.substr(0, At) + Insert + Text.substr(At),
                         Name + " + " + Insert + " at " + std::to_string(At),
                         T);
    }
  }
  report("label and value boundaries", T);
  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_GE(Ranges, 150u);
  EXPECT_GE(T.Accepted, 1800u);
  EXPECT_GE(T.Docs - T.Accepted, 4000u);
}

//===----------------------------------------------------------------------===//
// Mutations
//===----------------------------------------------------------------------===//

/// Bytes a hostile edit writes: markup, reference and name characters.
const char EditBytes[] = "<>/&;\"'=!?-[]#xX:\n\r\t 0123456789aAfFzZ_.p";

/// Markup a hostile edit inserts anywhere.
const char *const HostileFragments[] = {
    "<", ">", "/>", "</", "<!--", "-->", "<?", "?>", "<![CDATA[", "]]>",
    "<!", "<!DOCTYPE pnml>", "<!ELEMENT x ANY>", "&", "&amp;", "&lt",
    "&#", "&#;", "&#x;", "&#0;", "&#27;", "&#xD800;", "&#xFFFE;",
    "&#1114112;", "&#x10FFFF;", "&#12a;", "&bogus;", "&verylongentity;",
    "\"", "'", "=", " x=\"1\"", " id=\"p0\"", " id=''", " source=\"t0\"",
    " target=\"ghost\"", " tool=\"sdsp\"", "<place id=\"p0\"/>",
    "<place/>", "<transition id=\"t0\"/>", "<transition/>",
    "<transition id=\"tz\"><delay>0</delay></transition>",
    "<transition id=\"ty\"><toolspecific tool=\"sdsp\"/></transition>",
    "<arc id=\"ax\" source=\"t0\" target=\"p0\"/>",
    "<arc id=\"ay\" source=\"p0\" target=\"p1\"/>",
    "<arc id=\"az\" source=\"t0\" target=\"t1\"/>", "<arc source=\"p0\"/>",
    "<inscription><text>2</text></inscription>",
    "<inscription>1</inscription>",
    "<initialMarking><text>x</text></initialMarking>",
    "<initialMarking>4294967296</initialMarking>",
    "<initialMarking>99999999999</initialMarking>",
    "<toolspecific tool=\"sdsp\"><execTime>0</execTime></toolspecific>",
    "<net id=\"second\"/>", "<page id=\"g\">", "</page>", "</net>",
    "</pnml>", "<pnml>", "\n", "\r\n", "ns:", ":"};

/// Markup that keeps a document valid when inserted right after a tag
/// inside the root: comments, processing instructions, CDATA, foreign
/// elements, and labels that carry references.
const char *const HarmlessFragments[] = {
    "<!-- a comment with <markup>, & and - -->",
    "<?editor layout=\"grid\" zoom='2'?>",
    "<![CDATA[ ]]>",
    "<![CDATA[<raw> & text]]>",
    "<graphics><position x=\"1\" y=\"2\"/><fill color='#fff'/></graphics>",
    "<foreign:meta xmlns:foreign=\"urn:x\" note=\"a &amp; b &#x3C;\">"
    "<foreign:item ref='&apos;q&apos;'/>text &gt; more</foreign:meta>",
    "<toolspecific tool=\"editor\" version=\"2\"><layer n=\"1\"/>"
    "</toolspecific>",
    "<name><text>&lt;label&gt; &amp; &#x41;&#66;&#xE9;&#x1F600;</text>"
    "</name>",
    "<name><text> <![CDATA[cdata <name>]]> &quot;q&quot; </text></name>",
    "<name>&#x9;bare &apos;label&apos;&#xA;</name>",
    "\n    "};

/// Applies one to three hostile edits to \p Doc.
std::string hostileMutant(std::string Doc, Rng &R) {
  for (int Edits = static_cast<int>(R.range(1, 3)); Edits > 0; --Edits) {
    size_t Pos = pick(R, Doc.size() + 1);
    switch (R.range(0, 5)) {
    case 0: // overwrite a byte
      if (Pos < Doc.size())
        Doc[Pos] = EditBytes[pick(R, sizeof(EditBytes) - 1)];
      break;
    case 1: // insert a byte, now and then an arbitrary one
      Doc.insert(Pos, 1,
                 R.chance(1, 8) ? static_cast<char>(R.range(0, 255))
                                : EditBytes[pick(R, sizeof(EditBytes) - 1)]);
      break;
    case 2: // delete a short run
      Doc.erase(Pos, static_cast<size_t>(R.range(1, 8)));
      break;
    case 3:
      Doc.insert(Pos, HostileFragments[pick(R, std::size(HostileFragments))]);
      break;
    case 4: { // copy a slice elsewhere: duplicate ids, arcs and tags
      size_t From = pick(R, Doc.size() + 1);
      std::string Slice = Doc.substr(From, static_cast<size_t>(R.range(1, 96)));
      Doc.insert(Pos, Slice);
      break;
    }
    default: // truncate, rarely
      if (R.chance(1, 4))
        Doc.resize(Pos);
      break;
    }
  }
  return Doc;
}

/// Inserts one or two harmless fragments right after tags in the root.
std::string harmlessMutant(std::string Doc, Rng &R) {
  // The root's start tag is the first '<' before a name; its end tag
  // is the last "</".
  size_t RootBegin = 0;
  while (!(Doc[RootBegin] == '<' && std::isalpha(static_cast<unsigned char>(
                                         Doc[RootBegin + 1]))))
    ++RootBegin;
  size_t RootEnd = Doc.rfind("</");
  for (int Edits = static_cast<int>(R.range(1, 2)); Edits > 0; --Edits) {
    std::vector<size_t> AfterTag;
    for (size_t I = RootBegin; I < RootEnd; ++I)
      if (Doc[I] == '>')
        AfterTag.push_back(I + 1);
    const char *F = HarmlessFragments[pick(R, std::size(HarmlessFragments))];
    Doc.insert(AfterTag[pick(R, AfterTag.size())], F);
    RootEnd += std::char_traits<char>::length(F);
  }
  return Doc;
}

TEST(PnmlDifferential, HostileMutations) {
  Tally T;
  std::vector<std::string> Bases = validBases();
  Rng R(0x706e6d6c);
  for (int I = 0; I < 24000; ++I)
    compareReaders(hostileMutant(Bases[pick(R, Bases.size())], R),
                   "hostile mutant " + std::to_string(I), T);
  report("hostile mutants", T);
  EXPECT_EQ(T.Mismatches, 0u);
  // Some edits land in ignored content or whitespace and keep the
  // document valid; most must not.
  EXPECT_GT(T.Accepted, 0u);
  EXPECT_LT(T.Accepted, T.Docs / 2);
}

TEST(PnmlDifferential, ValidityPreservingMutations) {
  Tally T;
  std::vector<std::string> Bases = validBases();
  Rng R(0x76616c6964);
  for (int I = 0; I < 8000; ++I)
    compareReaders(harmlessMutant(Bases[pick(R, Bases.size())], R),
                   "harmless mutant " + std::to_string(I), T);
  report("validity-preserving mutants", T);
  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_GE(T.Accepted * 5, T.Docs)
      << T.Accepted << " of " << T.Docs << " accepted";
}

//===----------------------------------------------------------------------===//
// Every diagnostic
//===----------------------------------------------------------------------===//

/// Wraps \p Body in a net, as PnmlTest does.
std::string doc(const std::string &Body) {
  return "<?xml version=\"1.0\"?>\n<pnml><net id=\"n\"><page id=\"p\">" +
         Body + "</page></net></pnml>";
}

/// One hand-written document per diagnostic, for the ones random edits
/// rarely reach.  The node limit is exercised in PnmlTest.cpp.
const char *const RareBodies[] = {
    "", // a net with no transitions
    "<place id=\"q\"/><transition id=\"u\"><toolspecific tool=\"sdsp\">"
    "<delay>2</delay></toolspecific></transition>",
    "<place id=\"q\"/><transition id=\"u\"><delay>0</delay></transition>",
    "<place id=\"q\"/><transition id=\"u\"/>"
    "<arc id=\"a\" source=\"q\" target=\"u\">"
    "<inscription><text>3</text></inscription></arc>",
    "<place id=\"q\"><initialMarking> 12345678901 </initialMarking></place>"
    "<transition id=\"u\"/>",
    "<place id=\"q\"><initialMarking>4294967296</initialMarking></place>"
    "<transition id=\"u\"/>",
    "<place id=\"q\"><initialMarking><text>-1</text></initialMarking>"
    "</place><transition id=\"u\"/>",
    "<place id=\"q\"/><transition id=\"u\"/><arc id=\"a\" target=\"u\"/>",
    "<place id=\"q\"/><transition id=\"u\"/><transition id=\"v\"/>"
    "<arc source=\"u\" target=\"v\"/>",
    "<place id=\"q\"/><transition id=\"u\"/>"
    "<arc source=\"u\" target=\"q\"/><arc source=\"u\" target=\"q\"/>",
    "<transition id=\"\"/>",
    "<place id=\"&#x71;\"/><place id=\"q\"/>",
    "<place id=\"q\"><name>&#;</name></place>",
    "<place id=\"q\"><name>&#x12g;</name></place>",
    "<place id=\"q\"><name>&nbsp;</name></place>",
    "<place id=\"q\"><name>&#xFFFF;</name></place>",
    "<place id=\"q\"><name>&#99999999;</name></place>",
    "<place id=\"q\"><name>&amp</name></place>",
    "<place id=\"q\" name=noquote/>",
    "<place id=\"q\" name/>",
    "<place id=\"q\" note=\"a<b\"/>",
    "<place id=\"q\"><![CDATA[ never closed",
    "<place id=\"q\"><!-- never closed",
    "<place id=\"q\"><? never closed",
    "<place id=\"q\"><!ENTITY x \"y\"></place>",
    "<place id=\"q\"></ >",
    "<place id=\"q\"></place >x</page ",
    "<place id=\"q\"></transition>",
};

/// Whole documents for the diagnostics that need their own shape.
const char *const RareDocuments[] = {
    "",
    "   \n  <!-- only a comment -->\n",
    "text before the root",
    "<pnml/><pnml/>",
    "<!DOCTYPE pnml>\n<pnml/>",
    "<!-- unterminated",
    "<?xml version=\"1.0\"",
    "<net id=\"n\"/>",
    "<pnml/>",
    "<pnml><net id=\"a\"/><net id=\"b\"/></pnml>",
    "<pnml id=\"q\" value=\"unterminated",
    "<pnml id=\"q\"",
    "<pnml><net id=\"n\"><page id=\"p\"><place id=\"q\"/>",
    "<pnml><net id=\"n\"><page id=\"p\"><place id=\"q\"/><place/>"
    "</page></net></pnml>",
    "<pnml><net id=\"n\"><page id=\"p\"><place id=\"q\"/><place id=\"q\"/>"
    "</page></net></pnml>",
    "<pnml><net id=\"n\"><page id=\"p\"><transition id=\"u\"/>"
    "<arc id=\"a\" source=\"u\" target=\"ghost\"/></page></net></pnml>",
    "<pnml><net id=\"n\"><page id=\"p\"><place id=\"q\"/><place id=\"r\"/>"
    "<transition id=\"u\"/><arc id=\"a\" source=\"q\" target=\"r\"/>"
    "</page></net></pnml>",
};

TEST(PnmlDifferential, EveryDiagnosticFires) {
  Tally T;
  for (const char *Body : RareBodies)
    compareReaders(doc(Body), std::string("body ") + Body, T);
  for (const char *Doc : RareDocuments)
    compareReaders(Doc, std::string("document ") + Doc, T);
  std::string Deep = "<pnml>";
  for (int I = 0; I < 70; ++I)
    Deep += "\n<page>";
  compareReaders(Deep, "70-deep nesting", T);
  // The same diagnostics, and more of them, from random edits.
  std::vector<std::string> Bases = validBases();
  Rng R(0x73697465);
  for (int I = 0; I < 4000; ++I)
    compareReaders(hostileMutant(Bases[pick(R, Bases.size())], R),
                   "hostile mutant " + std::to_string(I), T);
  // The node limit needs 2^20 elements; only the production reader
  // reads them (PnmlTest.cpp has the boundary pair).
  std::string Wide = "<pnml>";
  for (size_t I = 0; I < (1u << 20); ++I)
    Wide += "<g/>";
  Expected<PnmlNet> TooWide = parsePnml(Wide);
  ASSERT_FALSE(bool(TooWide));
  ++T.Sites[diagnosticOf(TooWide.status().message())];

  report("diagnostics", T);
  EXPECT_EQ(T.Mismatches, 0u);
  EXPECT_EQ(T.Sites.count(""), 0u) << "a diagnostic outside the catalog";
  for (const char *D : Diagnostics)
    EXPECT_GT(T.Sites[D], 0u) << "never produced: " << D;
}

//===----------------------------------------------------------------------===//
// Orderings a one-pass reader must keep
//===----------------------------------------------------------------------===//

/// A document and the verdict it must get: "" for acceptance, else the
/// template of its diagnostic (see Diagnostics).
struct Ordering {
  const char *Text;
  const char *Verdict;
};

const Ordering Orderings[] = {
    // A well-formedness error after an import error wins.
    {"<pnml><net id=\"n\"><place id=\"q\"/><place id=\"q\"/></net>"
     "&bogus;</pnml>",
     "unknown entity '&*;' (only the five predefined XML entities are "
     "supported)"},
    {"<foo><pnml/></foo", "malformed end tag </*>"},
    {"<pnml><net id=\"a\"/><net id=\"b\"/>\n<!-- never closed</pnml>",
     "unterminated comment"},
    {"<pnml><net id=\"n\"><place id=\"q\"/><transition id=\"u\"/>"
     "<arc id=\"a\" source=\"q\" target=\"ghost\"/></net></pnml>x",
     "content after the root element"},
    // A second <net> after a bad place, or a bad transition.
    {"<pnml><net id=\"a\"><place id=\"\"/></net>\n<net id=\"b\"/></pnml>",
     "multiple <net> elements are not supported"},
    {"<pnml><net id=\"a\"><transition id=\"u\"><delay>0</delay>"
     "</transition></net>\n<net id=\"b\"/>\n<net id=\"c\"/></pnml>",
     "multiple <net> elements are not supported"},
    // Arcs before the nodes they name, across pages.
    {"<pnml><net id=\"n\"><page id=\"g\"><arc id=\"a0\" source=\"q\" "
     "target=\"u\"/><arc id=\"a1\" source=\"u\" target=\"q\"/></page>"
     "<page id=\"h\"><place id=\"q\"><initialMarking>1</initialMarking>"
     "</place><transition id=\"u\"/></page></net></pnml>",
     ""},
    {"<pnml><net id=\"n\"><arc id=\"a0\" source=\"u\" target=\"q\"/>"
     "<transition id=\"u\"/><arc id=\"a1\" source=\"q\" target=\"ghost\"/>"
     "<place id=\"q\"/></net></pnml>",
     "arc * references unknown node '*'"},
    {"<pnml><net id=\"n\"><arc source=\"u\" target=\"q\"/>"
     "<arc source=\"u\" target=\"q\"/><transition id=\"u\"/>"
     "<place id=\"q\"/></net></pnml>",
     "duplicate arc from '*' to '*'"},
    {"<pnml><net id=\"n\"><arc id=\"a\" source=\"q\" target=\"r\">"
     "<inscription><text>2</text></inscription></arc><place id=\"q\"/>"
     "<place id=\"r\"/><transition id=\"u\"/></net></pnml>",
     "arc * connects two * (arcs must join a place and a transition)"},
    {"<pnml><net id=\"n\"><arc id=\"a\" source=\"q\" target=\"u\">"
     "<inscription>x</inscription></arc><arc id=\"b\" target=\"q\"/>"
     "<place id=\"q\"/><transition id=\"u\"/></net></pnml>",
     "* of '*' is '*', expected a non-negative integer"},
    {"<pnml><net id=\"n\"><arc id=\"a\" target=\"q\"/><place id=\"q\"/>"
     "<transition id=\"u\"><delay>0</delay></transition></net></pnml>",
     "transition '*' has execution time 0 (deterministic timing needs tau "
     ">= 1)"},
    {"<pnml><net id=\"n\"><arc id=\"&#x61;1\" source=\"&#x71;\" "
     "target=\"u\"/><transition id=\"u\"/><place id=\"&#x71;\"/>"
     "<arc id=\"a2\" source=\"u\" target=\"q\"/><arc id=\"a3\" "
     "source=\"q\" target=\"u\"/></net></pnml>",
     "duplicate arc from '*' to '*'"},
    // A <name> with mixed content and no <text>.
    {"<pnml><net id=\"n\"><place id=\"q\"><name> a <b>x<text>y</text></b>"
     " c&amp;d <![CDATA[<e>]]><!-- f --><?g?> h </name></place>"
     "<transition id=\"u\"><name>v<w/></name></transition></net></pnml>",
     ""},
    // A <text> holding a child element, a comment and CDATA.
    {"<pnml><net id=\"n\"><transition id=\"u\"><name><text> t<i>x</i>u"
     "<!-- c -->v<![CDATA[<w>]]> </text><text>second</text></name>"
     "</transition><place id=\"q\"><initialMarking><text>1<b>9</b>2"
     "</text></initialMarking></place></net></pnml>",
     ""},
    {"<pnml><net id=\"n\"><transition id=\"u\"><name>before<text/>after"
     "</name></transition></net></pnml>",
     ""},
    // The sdsp annotation wins over a <delay> on either side of it.
    {"<pnml><net id=\"n\"><transition id=\"u\"><delay>3</delay>"
     "<toolspecific tool=\"sdsp\"><execTime>5</execTime></toolspecific>"
     "</transition></net></pnml>",
     ""},
    {"<pnml><net id=\"n\"><transition id=\"u\"><toolspecific tool=\"sdsp\">"
     "<execTime>5</execTime></toolspecific><delay>x</delay>"
     "<toolspecific tool=\"sdsp\"/></transition></net></pnml>",
     ""},
    {"<pnml><net id=\"n\"><transition id=\"u\"><delay>x</delay>"
     "<toolspecific tool=\"s&#100;sp\"><execTime>5</execTime>"
     "</toolspecific></transition></net></pnml>",
     ""},
    {"<pnml><net id=\"n\"><transition id=\"u\"><delay>3</delay>"
     "<toolspecific tool=\"sdsp\"><delay>4</delay></toolspecific>"
     "</transition></net></pnml>",
     "toolspecific annotation of '*' has no <execTime>"},
    {"<pnml><net id=\"n\"><transition id=\"u\"><toolspecific tool=\"tina\">"
     "<x/></toolspecific><toolspecific tool=\"tina\"><delay>4</delay>"
     "<delay>0</delay></toolspecific><delay>0</delay></transition></net>"
     "</pnml>",
     ""},
    {"<pnml><net id=\"n\"><transition id=\"u\"><delay>0</delay>"
     "<toolspecific tool=\"tina\"><delay>4</delay></toolspecific>"
     "</transition></net></pnml>",
     "transition '*' has execution time 0 (deterministic timing needs tau "
     ">= 1)"},
    // Places under a non-page child of the net, or inside a node, are
    // not nodes.
    {"<pnml><net id=\"n\"><graphics><place id=\"q\"/><page><place "
     "id=\"r\"/></page></graphics><transition id=\"u\"><place id=\"u\"/>"
     "<arc source=\"u\" target=\"u\"/></transition></net></pnml>",
     ""},
    {"<pnml><net id=\"n\"><name><place id=\"\"/></name><transition "
     "id=\"u\"/><arc id=\"a\" source=\"u\" target=\"q\"/></net></pnml>",
     "arc * references unknown node '*'"},
};

TEST(PnmlDifferential, OnePassOrderings) {
  Tally T;
  for (const Ordering &O : Orderings) {
    std::string What = std::string("ordering ") + O.Text;
    bool Accepted = compareReaders(O.Text, What, T);
    Expected<PnmlNet> New = parsePnml(O.Text);
    if (*O.Verdict == '\0')
      EXPECT_TRUE(Accepted) << What << ": " << New.status().str();
    else if (!Accepted)
      EXPECT_EQ(diagnosticOf(New.status().message()), O.Verdict) << What;
    else
      ADD_FAILURE() << What << ": accepted, expected " << O.Verdict;
  }
  report("one-pass orderings", T);
  EXPECT_EQ(T.Mismatches, 0u);
}

} // namespace
