//===- tests/PnmlReference.cpp - The DOM-building PNML reader --------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//
//
// The PNML reader and importer petri/Pnml.cpp ran before its flat-table
// and one-pass successors, kept verbatim as the differential oracle
// (tests/PnmlDifferentialTest.cpp): a recursive DOM of XmlElem nodes
// that own their strings, a character-at-a-time cursor that counts
// lines as it goes, and std::map id and arc tables keyed by string
// copies.  Slow and obvious on purpose; do not optimize it.
//
//===----------------------------------------------------------------------===//

#include "PnmlReference.h"

#include <cstdint>
#include <map>
#include <string_view>
#include <utility>

using namespace sdsp;

namespace {

//===----------------------------------------------------------------------===//
// XML reader
//===----------------------------------------------------------------------===//

/// Hostile-input bounds: a PNML document deeper than this is not a net,
/// and one with more nodes than this is an attack, not an import.
constexpr size_t MaxDepth = 64;
constexpr size_t MaxNodes = 1u << 20;

/// One parsed element: local tag name, attributes (document order,
/// local names), children, and the concatenated character data.
struct XmlElem {
  std::string Tag;
  std::vector<std::pair<std::string, std::string>> Attrs;
  std::vector<XmlElem> Children;
  std::string Text;
  size_t Line = 0;

  const std::string *attr(std::string_view Name) const {
    for (const auto &[K, V] : Attrs)
      if (K == Name)
        return &V;
    return nullptr;
  }
  const XmlElem *child(std::string_view Name) const {
    for (const XmlElem &C : Children)
      if (C.Tag == Name)
        return &C;
    return nullptr;
  }
};

Status pnmlError(size_t Line, const std::string &Msg) {
  return Status::error(ErrorCode::InvalidInput, "pnml",
                       "line " + std::to_string(Line) + ": " + Msg);
}

/// Strips any namespace prefix: "pnml:place" matches as "place".
std::string localName(std::string_view Name) {
  size_t Colon = Name.rfind(':');
  return std::string(Colon == std::string_view::npos
                         ? Name
                         : Name.substr(Colon + 1));
}

bool isNameStart(char C) {
  return (C >= 'A' && C <= 'Z') || (C >= 'a' && C <= 'z') || C == '_' ||
         C == ':';
}
bool isNameChar(char C) {
  return isNameStart(C) || (C >= '0' && C <= '9') || C == '-' || C == '.';
}
bool isSpace(char C) {
  return C == ' ' || C == '\t' || C == '\r' || C == '\n';
}

/// A recursive-descent reader for the XML subset PNML needs:
/// declaration, comments, processing instructions, CDATA, elements with
/// attributes, character data, predefined entities, and numeric
/// character references.  DOCTYPE is rejected outright — with no
/// internal DTD subset there are no user-defined entities, hence no
/// expansion bombs.
class XmlReader {
public:
  explicit XmlReader(const std::string &Text) : S(Text) {
    // A UTF-8 byte-order mark is tool noise, not content.
    if (S.size() >= 3 && S.compare(0, 3, "\xef\xbb\xbf") == 0)
      I = 3;
  }

  Expected<XmlElem> parse() {
    if (Status St = skipMisc(); !St)
      return St;
    if (eof())
      return pnmlError(Line, "document has no root element");
    XmlElem Root;
    if (Status St = parseElement(Root, 0); !St)
      return St;
    if (Status St = skipMisc(); !St)
      return St;
    if (!eof())
      return pnmlError(Line, "content after the root element");
    return Root;
  }

private:
  const std::string &S;
  size_t I = 0;
  size_t Line = 1;
  size_t Nodes = 0;

  bool eof() const { return I >= S.size(); }
  char peek() const { return S[I]; }
  bool startsWith(std::string_view P) const {
    return S.compare(I, P.size(), P) == 0;
  }
  void advance(size_t N) {
    for (size_t K = 0; K < N && I < S.size(); ++K, ++I)
      if (S[I] == '\n')
        ++Line;
  }

  void skipSpace() {
    while (!eof() && isSpace(peek()))
      advance(1);
  }

  /// Skips whitespace, comments, processing instructions; rejects
  /// DOCTYPE.  Used between markup outside element content.
  Status skipMisc() {
    for (;;) {
      skipSpace();
      if (startsWith("<!--")) {
        if (Status St = skipComment(); !St)
          return St;
      } else if (startsWith("<?")) {
        if (Status St = skipPi(); !St)
          return St;
      } else if (startsWith("<!DOCTYPE") || startsWith("<!doctype")) {
        return pnmlError(Line, "DOCTYPE declarations are not supported "
                               "(no internal DTD subset)");
      } else {
        return Status::ok();
      }
    }
  }

  Status skipComment() {
    size_t Start = Line;
    advance(4); // <!--
    size_t End = S.find("-->", I);
    if (End == std::string::npos)
      return pnmlError(Start, "unterminated comment");
    advance(End + 3 - I);
    return Status::ok();
  }

  Status skipPi() {
    size_t Start = Line;
    advance(2); // <?
    size_t End = S.find("?>", I);
    if (End == std::string::npos)
      return pnmlError(Start, "unterminated processing instruction");
    advance(End + 2 - I);
    return Status::ok();
  }

  Status parseName(std::string &Out) {
    if (eof() || !isNameStart(peek()))
      return pnmlError(Line, "expected a name");
    size_t Start = I;
    while (!eof() && isNameChar(peek()))
      advance(1);
    Out.assign(S, Start, I - Start);
    return Status::ok();
  }

  /// Decodes one entity or character reference at '&'.
  Status parseReference(std::string &Out) {
    size_t Start = Line;
    size_t End = S.find(';', I);
    if (End == std::string::npos || End - I > 12)
      return pnmlError(Start, "unterminated entity reference");
    std::string_view Ref(S.data() + I + 1, End - I - 1);
    advance(End + 1 - I);
    if (Ref == "lt")
      Out += '<';
    else if (Ref == "gt")
      Out += '>';
    else if (Ref == "amp")
      Out += '&';
    else if (Ref == "quot")
      Out += '"';
    else if (Ref == "apos")
      Out += '\'';
    else if (!Ref.empty() && Ref[0] == '#') {
      bool Hex = Ref.size() > 1 && (Ref[1] == 'x' || Ref[1] == 'X');
      uint64_t Code = 0;
      size_t Pos = Hex ? 2 : 1;
      if (Pos >= Ref.size())
        return pnmlError(Start, "empty character reference");
      for (; Pos < Ref.size(); ++Pos) {
        char C = Ref[Pos];
        uint64_t Digit;
        if (C >= '0' && C <= '9')
          Digit = static_cast<uint64_t>(C - '0');
        else if (Hex && C >= 'a' && C <= 'f')
          Digit = static_cast<uint64_t>(C - 'a') + 10;
        else if (Hex && C >= 'A' && C <= 'F')
          Digit = static_cast<uint64_t>(C - 'A') + 10;
        else
          return pnmlError(Start, "malformed character reference '&" +
                                      std::string(Ref) + ";'");
        Code = Code * (Hex ? 16 : 10) + Digit;
        if (Code > 0x10FFFF)
          return pnmlError(Start, "character reference out of range");
      }
      // XML 1.0 Char production: the code point must be an actual XML
      // character.  NUL, the C0 controls other than tab/LF/CR, the
      // UTF-16 surrogate range, and the permanent non-characters
      // 0xFFFE/0xFFFF all fit under 0x10FFFF but are not Chars;
      // accepting them would bake bytes into the net's labels that no
      // conforming parser (including this one re-reading its own
      // canonical export) will take back.
      bool ValidXmlChar = Code == 0x9 || Code == 0xA || Code == 0xD ||
                          (Code >= 0x20 && Code <= 0xD7FF) ||
                          (Code >= 0xE000 && Code <= 0xFFFD) ||
                          Code >= 0x10000;
      if (!ValidXmlChar)
        return pnmlError(Start, "character reference '&" + std::string(Ref) +
                                    ";' is not a valid XML character");
      appendUtf8(Out, static_cast<uint32_t>(Code));
    } else {
      return pnmlError(Start, "unknown entity '&" + std::string(Ref) +
                                  ";' (only the five predefined XML "
                                  "entities are supported)");
    }
    return Status::ok();
  }

  static void appendUtf8(std::string &Out, uint32_t C) {
    if (C < 0x80) {
      Out += static_cast<char>(C);
    } else if (C < 0x800) {
      Out += static_cast<char>(0xC0 | (C >> 6));
      Out += static_cast<char>(0x80 | (C & 0x3F));
    } else if (C < 0x10000) {
      Out += static_cast<char>(0xE0 | (C >> 12));
      Out += static_cast<char>(0x80 | ((C >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (C & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (C >> 18));
      Out += static_cast<char>(0x80 | ((C >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((C >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (C & 0x3F));
    }
  }

  Status parseAttrValue(std::string &Out) {
    char Quote = peek();
    if (Quote != '"' && Quote != '\'')
      return pnmlError(Line, "attribute value must be quoted");
    advance(1);
    while (!eof() && peek() != Quote) {
      if (peek() == '<')
        return pnmlError(Line, "'<' in attribute value");
      if (peek() == '&') {
        if (Status St = parseReference(Out); !St)
          return St;
      } else {
        Out += peek();
        advance(1);
      }
    }
    if (eof())
      return pnmlError(Line, "unterminated attribute value");
    advance(1);
    return Status::ok();
  }

  Status parseElement(XmlElem &Out, size_t Depth) {
    if (Depth >= MaxDepth)
      return pnmlError(Line, "element nesting exceeds depth limit " +
                                 std::to_string(MaxDepth));
    if (++Nodes > MaxNodes)
      return pnmlError(Line, "document exceeds the node limit");
    Out.Line = Line;
    if (eof() || peek() != '<')
      return pnmlError(Line, "expected '<'");
    advance(1);
    std::string Name;
    if (Status St = parseName(Name); !St)
      return St;
    Out.Tag = localName(Name);

    // Attributes.
    for (;;) {
      skipSpace();
      if (eof())
        return pnmlError(Out.Line, "unterminated start tag <" + Name + ">");
      if (peek() == '>' || startsWith("/>"))
        break;
      std::string AttrName;
      if (Status St = parseName(AttrName); !St)
        return St;
      skipSpace();
      if (eof() || peek() != '=')
        return pnmlError(Line, "attribute '" + AttrName +
                                   "' is missing '='");
      advance(1);
      skipSpace();
      std::string Value;
      if (Status St = parseAttrValue(Value); !St)
        return St;
      Out.Attrs.emplace_back(localName(AttrName), std::move(Value));
    }

    if (startsWith("/>")) {
      advance(2);
      return Status::ok();
    }
    advance(1); // '>'

    // Content: character data, child elements, comments, CDATA.
    for (;;) {
      if (eof())
        return pnmlError(Out.Line, "element <" + Name +
                                       "> is never closed");
      if (startsWith("</")) {
        advance(2);
        std::string End;
        if (Status St = parseName(End); !St)
          return St;
        skipSpace();
        if (eof() || peek() != '>')
          return pnmlError(Line, "malformed end tag </" + End + ">");
        advance(1);
        if (localName(End) != Out.Tag)
          return pnmlError(Line, "end tag </" + End +
                                     "> does not match <" + Name + ">");
        return Status::ok();
      }
      if (startsWith("<!--")) {
        if (Status St = skipComment(); !St)
          return St;
      } else if (startsWith("<![CDATA[")) {
        size_t Start = Line;
        advance(9);
        size_t End = S.find("]]>", I);
        if (End == std::string::npos)
          return pnmlError(Start, "unterminated CDATA section");
        Out.Text.append(S, I, End - I);
        advance(End + 3 - I);
      } else if (startsWith("<?")) {
        if (Status St = skipPi(); !St)
          return St;
      } else if (startsWith("<!")) {
        return pnmlError(Line, "unsupported markup declaration");
      } else if (peek() == '<') {
        Out.Children.emplace_back();
        if (Status St = parseElement(Out.Children.back(), Depth + 1); !St)
          return St;
      } else if (peek() == '&') {
        if (Status St = parseReference(Out.Text); !St)
          return St;
      } else {
        Out.Text += peek();
        advance(1);
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// PNML import
//===----------------------------------------------------------------------===//

std::string trim(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && isSpace(S[B]))
    ++B;
  while (E > B && isSpace(S[E - 1]))
    --E;
  return S.substr(B, E - B);
}

/// The label convention: <name><text>..</text></name> and friends keep
/// their payload in a <text> child; tolerate the text sitting directly
/// in the element too.
std::string labelText(const XmlElem &E) {
  if (const XmlElem *T = E.child("text"))
    return trim(T->Text);
  return trim(E.Text);
}

/// Strict decimal uint32 with a range diagnostic; "huge counts" in the
/// fuzz corpus land here.
Status parseCount(const XmlElem &E, const std::string &What,
                  const std::string &Id, uint32_t &Out) {
  std::string V = labelText(E);
  if (V.empty() || V.find_first_not_of("0123456789") != std::string::npos)
    return pnmlError(E.Line, What + " of '" + Id + "' is '" + V +
                                 "', expected a non-negative integer");
  if (V.size() > 10)
    return pnmlError(E.Line, What + " of '" + Id + "' is out of range");
  uint64_t N = 0;
  for (char C : V)
    N = N * 10 + static_cast<uint64_t>(C - '0');
  if (N > UINT32_MAX)
    return pnmlError(E.Line, What + " of '" + Id + "' is out of range");
  Out = static_cast<uint32_t>(N);
  return Status::ok();
}

/// A node id and which kind of node claimed it.
struct NodeRef {
  bool IsPlace = false;
  uint32_t Index = 0;
};

struct ImportState {
  PetriNetBuilder Net;
  std::map<std::string, NodeRef> Ids;
  /// (source, target) id pairs seen, to reject weight-2-by-duplication.
  std::map<std::pair<std::string, std::string>, size_t> Arcs;
};

Status importPlace(const XmlElem &E, ImportState &St) {
  const std::string *Id = E.attr("id");
  if (!Id || Id->empty())
    return pnmlError(E.Line, "place without an id attribute");
  if (St.Ids.count(*Id))
    return pnmlError(E.Line, "duplicate id '" + *Id + "'");
  uint32_t Tokens = 0;
  if (const XmlElem *M = E.child("initialMarking"))
    if (Status S = parseCount(*M, "initial marking", *Id, Tokens); !S)
      return S;
  std::string Name;
  if (const XmlElem *N = E.child("name"))
    Name = labelText(*N);
  if (Name.empty())
    Name = *Id;
  PlaceId P = St.Net.addPlace(Name, Tokens);
  St.Ids.emplace(*Id, NodeRef{true, static_cast<uint32_t>(P.index())});
  return Status::ok();
}

Status importTransition(const XmlElem &E, ImportState &St) {
  const std::string *Id = E.attr("id");
  if (!Id || Id->empty())
    return pnmlError(E.Line, "transition without an id attribute");
  if (St.Ids.count(*Id))
    return pnmlError(E.Line, "duplicate id '" + *Id + "'");
  // Timing: our own <toolspecific tool="sdsp"><execTime> annotation
  // first, a <delay> label (the TINA-style convention, either a direct
  // child or inside a foreign tool's toolspecific block) as the
  // fallback, default 1 when neither is present.
  uint32_t Tau = 1;
  const XmlElem *Timing = nullptr;
  for (const XmlElem &C : E.Children) {
    if (C.Tag == "toolspecific") {
      const std::string *Tool = C.attr("tool");
      if (Tool && *Tool == "sdsp") {
        Timing = C.child("execTime");
        if (!Timing)
          return pnmlError(C.Line, "toolspecific annotation of '" + *Id +
                                       "' has no <execTime>");
        break;
      }
      if (!Timing)
        Timing = C.child("delay");
    } else if (C.Tag == "delay" && !Timing) {
      Timing = &C;
    }
  }
  if (Timing) {
    if (Status S = parseCount(*Timing, "execution time", *Id, Tau); !S)
      return S;
    if (Tau == 0)
      return pnmlError(Timing->Line,
                       "transition '" + *Id +
                           "' has execution time 0 (deterministic "
                           "timing needs tau >= 1)");
  }
  std::string Name;
  if (const XmlElem *N = E.child("name"))
    Name = labelText(*N);
  if (Name.empty())
    Name = *Id;
  TransitionId T = St.Net.addTransition(Name, Tau);
  St.Ids.emplace(*Id, NodeRef{false, static_cast<uint32_t>(T.index())});
  return Status::ok();
}

Status importArc(const XmlElem &E, ImportState &St) {
  const std::string *Src = E.attr("source");
  const std::string *Dst = E.attr("target");
  std::string ArcName = E.attr("id") ? *E.attr("id") : "(no id)";
  if (!Src || !Dst || Src->empty() || Dst->empty())
    return pnmlError(E.Line,
                     "arc " + ArcName + " needs source and target");
  auto SrcIt = St.Ids.find(*Src);
  auto DstIt = St.Ids.find(*Dst);
  if (SrcIt == St.Ids.end())
    return pnmlError(E.Line, "arc " + ArcName +
                                 " references unknown node '" + *Src + "'");
  if (DstIt == St.Ids.end())
    return pnmlError(E.Line, "arc " + ArcName +
                                 " references unknown node '" + *Dst + "'");
  if (SrcIt->second.IsPlace == DstIt->second.IsPlace)
    return pnmlError(E.Line,
                     "arc " + ArcName + " connects two " +
                         (SrcIt->second.IsPlace ? "places" : "transitions") +
                         " (arcs must join a place and a transition)");
  if (const XmlElem *Insc = E.child("inscription")) {
    uint32_t W = 0;
    if (Status S = parseCount(*Insc, "inscription", ArcName, W); !S)
      return S;
    if (W != 1)
      return pnmlError(Insc->Line,
                       "arc " + ArcName + " has multiplicity " +
                           std::to_string(W) +
                           " (arc multiplicity is 1 throughout the "
                           "model)");
  }
  if (!St.Arcs.emplace(std::make_pair(*Src, *Dst), 0).second)
    return pnmlError(E.Line, "duplicate arc from '" + *Src + "' to '" +
                                 *Dst + "'");
  if (SrcIt->second.IsPlace)
    St.Net.addArc(PlaceId(SrcIt->second.Index),
                  TransitionId(DstIt->second.Index));
  else
    St.Net.addArc(TransitionId(SrcIt->second.Index),
                  PlaceId(DstIt->second.Index));
  return Status::ok();
}

/// Collects place/transition/arc elements under \p E, flattening any
/// <page> nesting.  Two passes (nodes, then arcs) so arcs may reference
/// nodes declared later in the document.
Status collectNodes(const XmlElem &E, ImportState &St) {
  for (const XmlElem &C : E.Children) {
    if (C.Tag == "place") {
      if (Status S = importPlace(C, St); !S)
        return S;
    } else if (C.Tag == "transition") {
      if (Status S = importTransition(C, St); !S)
        return S;
    } else if (C.Tag == "page") {
      if (Status S = collectNodes(C, St); !S)
        return S;
    }
  }
  return Status::ok();
}

Status collectArcs(const XmlElem &E, ImportState &St) {
  for (const XmlElem &C : E.Children) {
    if (C.Tag == "arc") {
      if (Status S = importArc(C, St); !S)
        return S;
    } else if (C.Tag == "page") {
      if (Status S = collectArcs(C, St); !S)
        return S;
    }
  }
  return Status::ok();
}

} // namespace

Expected<PnmlNet> sdsp::parsePnmlReference(const std::string &Text) {
  XmlReader Reader(Text);
  Expected<XmlElem> Root = Reader.parse();
  if (!Root)
    return Root.status();
  if (Root->Tag != "pnml")
    return pnmlError(Root->Line, "root element is <" + Root->Tag +
                                     ">, expected <pnml>");
  const XmlElem *Net = nullptr;
  for (const XmlElem &C : Root->Children) {
    if (C.Tag != "net")
      continue;
    if (Net)
      return pnmlError(C.Line,
                       "multiple <net> elements are not supported");
    Net = &C;
  }
  if (!Net)
    return pnmlError(Root->Line, "document has no <net> element");

  ImportState St;
  if (Status S = collectNodes(*Net, St); !S)
    return S;
  if (Status S = collectArcs(*Net, St); !S)
    return S;
  if (St.Net.numTransitions() == 0)
    return pnmlError(Net->Line,
                     "net has no transitions (nothing to execute)");

  PnmlNet Out;
  Out.Net = St.Net.build();
  const std::string *Id = Net->attr("id");
  Out.NetId = Id && !Id->empty() ? *Id : "net";
  return Out;
}
