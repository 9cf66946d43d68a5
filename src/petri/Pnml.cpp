//===- petri/Pnml.cpp - PNML interchange for timed P/T nets ----------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/Pnml.h"

#include "petri/BehaviorGraph.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <ostream>
#include <random>
#include <sstream>
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

constexpr uint32_t NoElement = ~0u;

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

/// Strips any namespace prefix: "pnml:place" matches as "place".
std::string_view localName(std::string_view Name) {
  size_t Colon = Name.rfind(':');
  return Colon == std::string_view::npos ? Name : Name.substr(Colon + 1);
}

std::string_view trim(std::string_view S) {
  size_t B = 0, E = S.size();
  while (B < E && isSpace(S[B]))
    ++B;
  while (E > B && isSpace(S[E - 1]))
    --E;
  return S.substr(B, E - B);
}

void appendUtf8(std::string &Out, uint32_t C) {
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

/// One element of the flat table.  The table is in document order, so
/// an element's descendants are the entries after it up to SubtreeEnd,
/// and its children are found by hopping from one SubtreeEnd to the
/// next.  Everything is an offset into the document or a view of it;
/// nothing is decoded while scanning.
struct Element {
  /// The '<' of the start tag: the element's diagnostic line.
  size_t Begin = 0;
  /// Just past the start tag, and the '<' of the end tag (equal for an
  /// empty-element tag).
  size_t ContentBegin = 0;
  size_t ContentEnd = 0;
  /// Just past the end tag.
  size_t End = 0;
  /// Local tag name.
  std::string_view Tag;
  uint32_t FirstAttr = 0;
  uint32_t NumAttrs = 0;
  uint32_t SubtreeEnd = 0;
};

// A document at the node limit needs at most 64 MiB of table: an entry
// is about half the size of a DOM node (tests/PnmlReference.cpp).
static_assert(sizeof(Element) <= 64, "keep table entries small");

/// One attribute: local name and the undecoded bytes between the
/// quotes.
struct Attribute {
  std::string_view Name;
  std::string_view Raw;
};

/// Reads the XML subset PNML needs — declaration, comments, processing
/// instructions, CDATA, elements with attributes, character data,
/// predefined entities, and numeric character references — in one pass
/// over the bytes into a flat element table.  DOCTYPE is rejected
/// outright: with no internal DTD subset there are no user-defined
/// entities, hence no expansion bombs.  References are checked during
/// the pass but decoded only when the importer asks for a value, and a
/// diagnostic's line is counted from its byte offset only when the
/// diagnostic is built.
class XmlDocument {
public:
  explicit XmlDocument(const std::string &Text)
      : S(Text), N(Text.size()) {}

  Status parse() {
    // A UTF-8 byte-order mark is tool noise, not content.
    size_t I = S.compare(0, 3, "\xef\xbb\xbf") == 0 ? 3 : 0;
    if (Status St = skipMisc(I); !St)
      return St;
    if (I == N)
      return error(I, "document has no root element");
    if (Status St = parseElements(I); !St)
      return St;
    if (Status St = skipMisc(I); !St)
      return St;
    if (I != N)
      return error(I, "content after the root element");
    return Status::ok();
  }

  /// A structured rejection at byte \p Offset: the line is one plus the
  /// newlines before it.
  Status error(size_t Offset, const std::string &Msg) const {
    size_t Line = 1 + static_cast<size_t>(
                          std::count(S.begin(), S.begin() + Offset, '\n'));
    return Status::error(ErrorCode::InvalidInput, "pnml",
                         "line " + std::to_string(Line) + ": " + Msg);
  }

  const Element &elem(uint32_t E) const { return Elems[E]; }

  /// The children of \p E, in document order.
  template <typename Fn> void forEachChild(uint32_t E, Fn &&F) const {
    for (uint32_t C = E + 1; C < Elems[E].SubtreeEnd; C = Elems[C].SubtreeEnd)
      F(C);
  }

  /// The first child of \p E named \p Tag, or NoElement.
  uint32_t child(uint32_t E, std::string_view Tag) const {
    for (uint32_t C = E + 1; C < Elems[E].SubtreeEnd; C = Elems[C].SubtreeEnd)
      if (Elems[C].Tag == Tag)
        return C;
    return NoElement;
  }

  /// The first attribute of \p E named \p Name, decoded; false when
  /// there is none.  A value that holds a reference is decoded into
  /// \p Store, which must outlive the view.
  bool attr(uint32_t E, std::string_view Name, std::deque<std::string> &Store,
            std::string_view &Out) const {
    const Element &El = Elems[E];
    for (uint32_t A = El.FirstAttr; A < El.FirstAttr + El.NumAttrs; ++A) {
      if (Attrs[A].Name != Name)
        continue;
      std::string_view Raw = Attrs[A].Raw;
      if (Raw.find('&') == std::string_view::npos) {
        Out = Raw;
      } else {
        size_t Begin = static_cast<size_t>(Raw.data() - S.data());
        decodeInto(Store.emplace_back(), Begin, Begin + Raw.size());
        Out = Store.back();
      }
      return true;
    }
    return false;
  }

  /// The character data of \p E: its text runs, decoded references and
  /// CDATA sections, in document order, without its child elements,
  /// decoded into \p Scratch.
  std::string_view text(uint32_t E, std::string &Scratch) const {
    const Element &El = Elems[E];
    Scratch.clear();
    size_t Pos = El.ContentBegin;
    forEachChild(E, [&](uint32_t C) {
      decodeInto(Scratch, Pos, Elems[C].Begin);
      Pos = Elems[C].End;
    });
    decodeInto(Scratch, Pos, El.ContentEnd);
    return Scratch;
  }

private:
  const std::string &S;
  const size_t N;
  std::vector<Element> Elems;
  std::vector<Attribute> Attrs;

  bool startsWith(size_t I, std::string_view P) const {
    return S.compare(I, P.size(), P) == 0;
  }
  void skipSpace(size_t &I) const {
    while (I < N && isSpace(S[I]))
      ++I;
  }
  size_t find(std::string_view P, size_t From) const {
    size_t At = S.find(P, From);
    return At == std::string::npos ? N : At;
  }

  /// Skips whitespace, comments, processing instructions; rejects
  /// DOCTYPE.  Used outside the root element.
  Status skipMisc(size_t &I) const {
    for (;;) {
      skipSpace(I);
      if (startsWith(I, "<!--")) {
        if (Status St = skipComment(I); !St)
          return St;
      } else if (startsWith(I, "<?")) {
        if (Status St = skipPi(I); !St)
          return St;
      } else if (startsWith(I, "<!DOCTYPE") || startsWith(I, "<!doctype")) {
        return error(I, "DOCTYPE declarations are not supported "
                        "(no internal DTD subset)");
      } else {
        return Status::ok();
      }
    }
  }

  Status skipComment(size_t &I) const {
    size_t End = find("-->", I + 4);
    if (End == N)
      return error(I, "unterminated comment");
    I = End + 3;
    return Status::ok();
  }

  Status skipPi(size_t &I) const {
    size_t End = find("?>", I + 2);
    if (End == N)
      return error(I, "unterminated processing instruction");
    I = End + 2;
    return Status::ok();
  }

  Status skipCdata(size_t &I) const {
    size_t End = find("]]>", I + 9);
    if (End == N)
      return error(I, "unterminated CDATA section");
    I = End + 3;
    return Status::ok();
  }

  Status parseName(size_t &I, std::string_view &Out) const {
    if (I == N || !isNameStart(S[I]))
      return error(I, "expected a name");
    size_t Start = I;
    while (I < N && isNameChar(S[I]))
      ++I;
    Out = std::string_view(S.data() + Start, I - Start);
    return Status::ok();
  }

  /// Checks the entity or character reference at \p At (an '&'), moves
  /// \p Next past its ';', and appends the decoded character to \p Out
  /// when given.
  Status reference(size_t At, size_t &Next, std::string *Out) const {
    // The ';' must close the reference within twelve bytes.
    size_t End = At;
    size_t Limit = std::min(N, At + 13);
    while (End < Limit && S[End] != ';')
      ++End;
    if (End == Limit)
      return error(At, "unterminated entity reference");
    std::string_view Ref(S.data() + At + 1, End - At - 1);
    Next = End + 1;
    char Simple = Ref == "lt"     ? '<'
                  : Ref == "gt"   ? '>'
                  : Ref == "amp"  ? '&'
                  : Ref == "quot" ? '"'
                  : Ref == "apos" ? '\''
                                  : '\0';
    if (Simple) {
      if (Out)
        *Out += Simple;
      return Status::ok();
    }
    if (Ref.empty() || Ref[0] != '#')
      return error(At, "unknown entity '&" + std::string(Ref) +
                           ";' (only the five predefined XML "
                           "entities are supported)");
    bool Hex = Ref.size() > 1 && (Ref[1] == 'x' || Ref[1] == 'X');
    uint64_t Code = 0;
    size_t Pos = Hex ? 2 : 1;
    if (Pos >= Ref.size())
      return error(At, "empty character reference");
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
        return error(At, "malformed character reference '&" +
                             std::string(Ref) + ";'");
      Code = Code * (Hex ? 16 : 10) + Digit;
      if (Code > 0x10FFFF)
        return error(At, "character reference out of range");
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
      return error(At, "character reference '&" + std::string(Ref) +
                           ";' is not a valid XML character");
    if (Out)
      appendUtf8(*Out, static_cast<uint32_t>(Code));
    return Status::ok();
  }

  /// Decodes [\p I, \p End) of checked content that holds no element:
  /// character data and references are appended, CDATA sections
  /// unwrapped, comments and processing instructions dropped.
  void decodeInto(std::string &Out, size_t I, size_t End) const {
    while (I < End) {
      size_t Run = I;
      while (Run < End && S[Run] != '&' && S[Run] != '<')
        ++Run;
      Out.append(S, I, Run - I);
      I = Run;
      if (I == End)
        break;
      if (S[I] == '&') {
        Status St = reference(I, I, &Out);
        SDSP_CHECK(St, "a checked reference failed to decode");
      } else if (startsWith(I, "<![CDATA[")) {
        size_t Close = find("]]>", I + 9);
        Out.append(S, I + 9, Close - I - 9);
        I = Close + 3;
      } else if (startsWith(I, "<!--")) {
        I = find("-->", I + 4) + 3;
      } else {
        I = find("?>", I + 2) + 2;
      }
    }
  }

  Status parseAttrValue(size_t &I, std::string_view &Out) const {
    char Quote = I < N ? S[I] : '\0';
    if (Quote != '"' && Quote != '\'')
      return error(I, "attribute value must be quoted");
    size_t Start = ++I;
    for (;;) {
      while (I < N && S[I] != Quote && S[I] != '<' && S[I] != '&')
        ++I;
      if (I == N)
        return error(I, "unterminated attribute value");
      if (S[I] == Quote)
        break;
      if (S[I] == '<')
        return error(I, "'<' in attribute value");
      if (Status St = reference(I, I, nullptr); !St)
        return St;
    }
    Out = std::string_view(S.data() + Start, I - Start);
    ++I;
    return Status::ok();
  }

  /// Reads the start tag at \p I of an element at \p Depth into the
  /// table; \p Name is its raw name and \p Empty says it was "<x/>".
  Status startTag(size_t &I, size_t Depth, std::string_view &Name,
                  bool &Empty) {
    if (Depth >= MaxDepth)
      return error(I, "element nesting exceeds depth limit " +
                          std::to_string(MaxDepth));
    if (Elems.size() >= MaxNodes)
      return error(I, "document exceeds the node limit");
    if (I == N || S[I] != '<')
      return error(I, "expected '<'");
    Element E;
    E.Begin = I++;
    if (Status St = parseName(I, Name); !St)
      return St;
    E.Tag = localName(Name);
    E.FirstAttr = static_cast<uint32_t>(Attrs.size());
    for (;;) {
      skipSpace(I);
      if (I == N)
        return error(E.Begin, "unterminated start tag <" +
                                  std::string(Name) + ">");
      if (S[I] == '>' || startsWith(I, "/>"))
        break;
      std::string_view AttrName;
      if (Status St = parseName(I, AttrName); !St)
        return St;
      skipSpace(I);
      if (I == N || S[I] != '=')
        return error(I, "attribute '" + std::string(AttrName) +
                            "' is missing '='");
      ++I;
      skipSpace(I);
      std::string_view Value;
      if (Status St = parseAttrValue(I, Value); !St)
        return St;
      // Attributes have no limit of their own; 2^32 of them would take
      // a document of 16 GiB.
      SDSP_CHECK(Attrs.size() < UINT32_MAX, "attribute table overflow");
      Attrs.push_back({localName(AttrName), Value});
    }
    E.NumAttrs = static_cast<uint32_t>(Attrs.size()) - E.FirstAttr;
    Empty = S[I] == '/';
    I += Empty ? 2 : 1;
    E.ContentBegin = E.ContentEnd = E.End = I;
    E.SubtreeEnd = static_cast<uint32_t>(Elems.size()) + 1;
    Elems.push_back(E);
    return Status::ok();
  }

  /// Reads the root element and everything inside it.  The open
  /// elements live on a fixed stack: the depth bound is the recursion
  /// bound of a recursive reader.
  Status parseElements(size_t &I) {
    struct Open {
      uint32_t Index;
      std::string_view Name;
    };
    Open Stack[MaxDepth];
    size_t Depth = 0;
    std::string_view Name;
    bool Empty = false;
    if (Status St = startTag(I, 0, Name, Empty); !St)
      return St;
    if (!Empty)
      Stack[Depth++] = {0, Name};
    while (Depth > 0) {
      Open &Top = Stack[Depth - 1];
      // Character data up to the next markup; references are checked
      // as they come.
      while (I < N && S[I] != '<') {
        if (S[I] != '&') {
          ++I;
          continue;
        }
        if (Status St = reference(I, I, nullptr); !St)
          return St;
      }
      if (I == N)
        return error(Elems[Top.Index].Begin,
                     "element <" + std::string(Top.Name) +
                         "> is never closed");
      if (I + 1 < N && S[I + 1] == '/') {
        size_t Close = I;
        I += 2;
        std::string_view EndName;
        if (Status St = parseName(I, EndName); !St)
          return St;
        skipSpace(I);
        if (I == N || S[I] != '>')
          return error(I, "malformed end tag </" + std::string(EndName) +
                              ">");
        ++I;
        Element &E = Elems[Top.Index];
        if (localName(EndName) != E.Tag)
          return error(I, "end tag </" + std::string(EndName) +
                              "> does not match <" + std::string(Top.Name) +
                              ">");
        E.ContentEnd = Close;
        E.End = I;
        E.SubtreeEnd = static_cast<uint32_t>(Elems.size());
        --Depth;
        continue;
      }
      if (startsWith(I, "<!--")) {
        if (Status St = skipComment(I); !St)
          return St;
      } else if (startsWith(I, "<![CDATA[")) {
        if (Status St = skipCdata(I); !St)
          return St;
      } else if (startsWith(I, "<?")) {
        if (Status St = skipPi(I); !St)
          return St;
      } else if (startsWith(I, "<!")) {
        return error(I, "unsupported markup declaration");
      } else {
        uint32_t Index = static_cast<uint32_t>(Elems.size());
        if (Status St = startTag(I, Depth, Name, Empty); !St)
          return St;
        if (!Empty)
          Stack[Depth++] = {Index, Name};
      }
    }
    return Status::ok();
  }
};

//===----------------------------------------------------------------------===//
// PNML import
//===----------------------------------------------------------------------===//

/// The secret of the import's hash tables, drawn once per process: a
/// document cannot be built to make its ids or arcs collide and turn
/// each lookup into a scan.  No result depends on where a key lands.
uint64_t tableSecret() {
  static const uint64_t Secret = [] {
    std::random_device Rd;
    return static_cast<uint64_t>(Rd()) << 32 ^ Rd();
  }();
  return Secret;
}

/// Multiplies into 128 bits and folds the halves: every output bit
/// depends on every input bit.
uint64_t mix(uint64_t A, uint64_t B) {
  unsigned __int128 P = static_cast<unsigned __int128>(A) * B;
  return static_cast<uint64_t>(P) ^ static_cast<uint64_t>(P >> 64);
}

constexpr uint64_t MixConstant = 0x9E3779B97F4A7C15ull;

/// Hashes an id for the import's lookup tables.
uint64_t hashId(std::string_view S, uint64_t Secret) {
  uint64_t H = Secret ^ S.size();
  const char *P = S.data();
  size_t Left = S.size();
  for (; Left >= 8; P += 8, Left -= 8) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    H = mix(H ^ W, MixConstant ^ Secret);
  }
  uint64_t W = 0;
  std::memcpy(&W, P, Left);
  return mix(H ^ W, MixConstant ^ Secret);
}

/// Open-addressed tables sized once from the number of keys.
size_t tableSize(size_t Keys) {
  size_t Size = 16;
  while (Size < 2 * Keys)
    Size <<= 1;
  return Size;
}

/// A node: its index among the places or among the transitions, and
/// which, packed as Index * 2 + IsPlace.
using NodeRef = uint32_t;
constexpr NodeRef NoNode = ~0u;
NodeRef placeRef(size_t Index) { return static_cast<NodeRef>(Index) * 2 + 1; }
NodeRef transitionRef(size_t Index) {
  return static_cast<NodeRef>(Index) * 2;
}
bool isPlace(NodeRef R) { return R & 1; }
uint32_t nodeIndex(NodeRef R) { return R >> 1; }

/// Node ids to nodes.  Keys are views of the document (or of decoded
/// values that outlive the table); nothing is copied.
class IdTable {
public:
  explicit IdTable(size_t Keys) : Slots(tableSize(Keys)) {}

  NodeRef find(std::string_view Id) const {
    for (size_t I = hashId(Id, Secret) & mask();; I = (I + 1) & mask()) {
      const Slot &Sl = Slots[I];
      if (Sl.Node == NoNode || Sl.Id == Id)
        return Sl.Node;
    }
  }

  /// Adds \p Id, which must be absent.
  void insert(std::string_view Id, NodeRef Node) {
    size_t I = hashId(Id, Secret) & mask();
    while (Slots[I].Node != NoNode)
      I = (I + 1) & mask();
    Slots[I] = {Id, Node};
  }

private:
  struct Slot {
    std::string_view Id;
    NodeRef Node = NoNode;
  };
  std::vector<Slot> Slots;
  uint64_t Secret = tableSecret();
  size_t mask() const { return Slots.size() - 1; }
};

/// The arcs seen so far, as directed (source, target) node pairs; ids
/// name nodes one to one, so this is the (source id, target id) set.
class ArcTable {
public:
  explicit ArcTable(size_t Keys) : Slots(tableSize(Keys), Empty) {}

  /// Adds the arc; false if it was already there.
  bool insert(NodeRef Src, NodeRef Dst) {
    uint64_t Key = static_cast<uint64_t>(Src) << 32 | Dst;
    for (size_t I = mix(Key ^ Secret, MixConstant) & (Slots.size() - 1);;
         I = (I + 1) & (Slots.size() - 1)) {
      if (Slots[I] == Key)
        return false;
      if (Slots[I] == Empty) {
        Slots[I] = Key;
        return true;
      }
    }
  }

private:
  static constexpr uint64_t Empty = ~0ull;
  std::vector<uint64_t> Slots;
  uint64_t Secret = tableSecret();
};

/// Builds the net from a parsed document, in the order the model
/// fixes: nodes in document order, then arcs in document order, <page>
/// nesting flattened, so arcs may reference nodes declared later.
class Importer {
public:
  explicit Importer(const XmlDocument &Doc) : Doc(Doc) {}

  Expected<PnmlNet> run() {
    const Element &Root = Doc.elem(0);
    if (Root.Tag != "pnml")
      return Doc.error(Root.Begin, "root element is <" +
                                       std::string(Root.Tag) +
                                       ">, expected <pnml>");
    uint32_t Net = NoElement;
    for (uint32_t C = 1; C < Root.SubtreeEnd; C = Doc.elem(C).SubtreeEnd) {
      if (Doc.elem(C).Tag != "net")
        continue;
      if (Net != NoElement)
        return Doc.error(Doc.elem(C).Begin,
                         "multiple <net> elements are not supported");
      Net = C;
    }
    if (Net == NoElement)
      return Doc.error(Root.Begin, "document has no <net> element");

    collect(Net);
    Ids = IdTable(NodeElems.size());
    for (uint32_t E : NodeElems)
      if (Status St = Doc.elem(E).Tag == "place" ? importPlace(E)
                                                 : importTransition(E);
          !St)
        return St;
    ArcSet = ArcTable(ArcElems.size());
    for (uint32_t E : ArcElems)
      if (Status St = importArc(E); !St)
        return St;
    if (Built.numTransitions() == 0)
      return Doc.error(Doc.elem(Net).Begin,
                       "net has no transitions (nothing to execute)");

    PnmlNet Out;
    Out.Net = Built.build();
    std::string_view Id;
    Out.NetId = Doc.attr(Net, "id", Decoded, Id) && !Id.empty()
                    ? std::string(Id)
                    : "net";
    return Out;
  }

private:
  const XmlDocument &Doc;
  std::vector<uint32_t> NodeElems, ArcElems;
  IdTable Ids{0};
  ArcTable ArcSet{0};
  PetriNetBuilder Built;
  /// Attribute values that held references, decoded.
  std::deque<std::string> Decoded;
  std::string Scratch;

  /// Lists the place/transition and arc elements under \p E, through
  /// any <page> nesting.
  void collect(uint32_t E) {
    Doc.forEachChild(E, [&](uint32_t C) {
      std::string_view Tag = Doc.elem(C).Tag;
      if (Tag == "place" || Tag == "transition")
        NodeElems.push_back(C);
      else if (Tag == "arc")
        ArcElems.push_back(C);
      else if (Tag == "page")
        collect(C);
    });
  }

  /// The label convention: <name><text>..</text></name> and friends
  /// keep their payload in a <text> child; tolerate the text sitting
  /// directly in the element too.  The view lives until the next call.
  std::string_view labelText(uint32_t E) {
    uint32_t T = Doc.child(E, "text");
    return trim(Doc.text(T == NoElement ? E : T, Scratch));
  }

  /// A node's name label, falling back to its id.
  std::string nodeName(uint32_t E, std::string_view Id) {
    std::string_view Name;
    if (uint32_t L = Doc.child(E, "name"); L != NoElement)
      Name = labelText(L);
    return std::string(Name.empty() ? Id : Name);
  }

  /// Strict decimal uint32 with a range diagnostic; "huge counts" in
  /// the fuzz corpus land here.
  Status parseCount(uint32_t E, const char *What, std::string_view Id,
                    uint32_t &Out) {
    std::string_view V = labelText(E);
    if (V.empty() || V.find_first_not_of("0123456789") != std::string::npos)
      return Doc.error(Doc.elem(E).Begin,
                       std::string(What) + " of '" + std::string(Id) +
                           "' is '" + std::string(V) +
                           "', expected a non-negative integer");
    uint64_t Value = 0;
    for (char C : V.substr(0, 11))
      Value = Value * 10 + static_cast<uint64_t>(C - '0');
    if (V.size() > 10 || Value > UINT32_MAX)
      return Doc.error(Doc.elem(E).Begin, std::string(What) + " of '" +
                                              std::string(Id) +
                                              "' is out of range");
    Out = static_cast<uint32_t>(Value);
    return Status::ok();
  }

  /// Reads and claims the id of the place or transition \p E.
  Status claimId(uint32_t E, NodeRef Node, std::string_view &Id) {
    const Element &El = Doc.elem(E);
    if (!Doc.attr(E, "id", Decoded, Id) || Id.empty())
      return Doc.error(El.Begin, std::string(El.Tag) +
                                     " without an id attribute");
    if (Ids.find(Id) != NoNode)
      return Doc.error(El.Begin, "duplicate id '" + std::string(Id) + "'");
    Ids.insert(Id, Node);
    return Status::ok();
  }

  Status importPlace(uint32_t E) {
    std::string_view Id;
    if (Status St = claimId(E, placeRef(Built.numPlaces()), Id); !St)
      return St;
    uint32_t Tokens = 0;
    if (uint32_t M = Doc.child(E, "initialMarking"); M != NoElement)
      if (Status St = parseCount(M, "initial marking", Id, Tokens); !St)
        return St;
    Built.addPlace(nodeName(E, Id), Tokens);
    return Status::ok();
  }

  Status importTransition(uint32_t E) {
    std::string_view Id;
    if (Status St = claimId(E, transitionRef(Built.numTransitions()), Id);
        !St)
      return St;
    // Timing: our own <toolspecific tool="sdsp"><execTime> annotation
    // first, a <delay> label (the TINA-style convention, either a direct
    // child or inside a foreign tool's toolspecific block) as the
    // fallback, default 1 when neither is present.
    uint32_t Tau = 1;
    uint32_t Timing = NoElement;
    for (uint32_t C = E + 1; C < Doc.elem(E).SubtreeEnd;
         C = Doc.elem(C).SubtreeEnd) {
      std::string_view Tag = Doc.elem(C).Tag;
      if (Tag == "toolspecific") {
        std::string_view Tool;
        if (Doc.attr(C, "tool", Decoded, Tool) && Tool == "sdsp") {
          Timing = Doc.child(C, "execTime");
          if (Timing == NoElement)
            return Doc.error(Doc.elem(C).Begin,
                             "toolspecific annotation of '" +
                                 std::string(Id) + "' has no <execTime>");
          break;
        }
        if (Timing == NoElement)
          Timing = Doc.child(C, "delay");
      } else if (Tag == "delay" && Timing == NoElement) {
        Timing = C;
      }
    }
    if (Timing != NoElement) {
      if (Status St = parseCount(Timing, "execution time", Id, Tau); !St)
        return St;
      if (Tau == 0)
        return Doc.error(Doc.elem(Timing).Begin,
                         "transition '" + std::string(Id) +
                             "' has execution time 0 (deterministic "
                             "timing needs tau >= 1)");
    }
    Built.addTransition(nodeName(E, Id), Tau);
    return Status::ok();
  }

  /// The node an arc endpoint names.
  Status endpoint(uint32_t E, std::string_view ArcName, std::string_view Id,
                  NodeRef &Out) {
    Out = Ids.find(Id);
    if (Out == NoNode)
      return Doc.error(Doc.elem(E).Begin,
                       "arc " + std::string(ArcName) +
                           " references unknown node '" + std::string(Id) +
                           "'");
    return Status::ok();
  }

  Status importArc(uint32_t E) {
    size_t At = Doc.elem(E).Begin;
    std::string_view Src, Dst, ArcName;
    bool HasSrc = Doc.attr(E, "source", Decoded, Src);
    bool HasDst = Doc.attr(E, "target", Decoded, Dst);
    if (!Doc.attr(E, "id", Decoded, ArcName))
      ArcName = "(no id)";
    if (!HasSrc || !HasDst || Src.empty() || Dst.empty())
      return Doc.error(At, "arc " + std::string(ArcName) +
                                 " needs source and target");
    NodeRef From = NoNode, To = NoNode;
    if (Status St = endpoint(E, ArcName, Src, From); !St)
      return St;
    if (Status St = endpoint(E, ArcName, Dst, To); !St)
      return St;
    if (isPlace(From) == isPlace(To))
      return Doc.error(At, "arc " + std::string(ArcName) +
                                 " connects two " +
                                 (isPlace(From) ? "places" : "transitions") +
                                 " (arcs must join a place and a "
                                 "transition)");
    if (uint32_t Insc = Doc.child(E, "inscription"); Insc != NoElement) {
      uint32_t W = 0;
      if (Status St = parseCount(Insc, "inscription", ArcName, W); !St)
        return St;
      if (W != 1)
        return Doc.error(Doc.elem(Insc).Begin,
                         "arc " + std::string(ArcName) +
                             " has multiplicity " + std::to_string(W) +
                             " (arc multiplicity is 1 throughout the "
                             "model)");
    }
    if (!ArcSet.insert(From, To))
      return Doc.error(At, "duplicate arc from '" + std::string(Src) +
                                 "' to '" + std::string(Dst) + "'");
    if (isPlace(From))
      Built.addArc(PlaceId(nodeIndex(From)), TransitionId(nodeIndex(To)));
    else
      Built.addArc(TransitionId(nodeIndex(From)), PlaceId(nodeIndex(To)));
    return Status::ok();
  }
};

//===----------------------------------------------------------------------===//
// Canonical writer
//===----------------------------------------------------------------------===//

void xmlEscape(std::ostream &OS, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '<':
      OS << "&lt;";
      break;
    case '>':
      OS << "&gt;";
      break;
    case '&':
      OS << "&amp;";
      break;
    case '"':
      OS << "&quot;";
      break;
    case '\'':
      OS << "&apos;";
      break;
    default:
      OS << C;
    }
  }
}

} // namespace

Expected<PnmlNet> sdsp::parsePnml(const std::string &Text) {
  XmlDocument Doc(Text);
  if (Status St = Doc.parse(); !St)
    return St;
  return Importer(Doc).run();
}

void sdsp::printPnml(const PetriNet &Net, std::ostream &OS,
                     const std::string &NetId) {
  OS << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
     << "<pnml xmlns=\"http://www.pnml.org/version-2009/grammar/pnml\">\n"
     << "  <net id=\"";
  xmlEscape(OS, NetId);
  OS << "\" type=\"http://www.pnml.org/version-2009/grammar/ptnet\">\n"
     << "    <page id=\"page0\">\n";
  for (PlaceId P : Net.placeIds()) {
    const PetriNet::Place &Pl = Net.place(P);
    OS << "      <place id=\"p" << P.index() << "\">\n"
       << "        <name><text>";
    xmlEscape(OS, Pl.Name);
    OS << "</text></name>\n";
    if (Pl.InitialTokens)
      OS << "        <initialMarking><text>" << Pl.InitialTokens
         << "</text></initialMarking>\n";
    OS << "      </place>\n";
  }
  for (TransitionId T : Net.transitionIds()) {
    const PetriNet::Transition &Tr = Net.transition(T);
    OS << "      <transition id=\"t" << T.index() << "\">\n"
       << "        <name><text>";
    xmlEscape(OS, Tr.Name);
    OS << "</text></name>\n";
    if (Tr.ExecTime != 1)
      OS << "        <toolspecific tool=\"sdsp\" version=\"1\">\n"
         << "          <execTime><text>" << Tr.ExecTime
         << "</text></execTime>\n"
         << "        </toolspecific>\n";
    OS << "      </transition>\n";
  }
  // Arc order is transition-major (inputs, then outputs), which is
  // exactly the order an import re-adds them in — the adjacency
  // interleaving, and with it the content hash, survives a round trip.
  size_t Arc = 0;
  for (TransitionId T : Net.transitionIds()) {
    const PetriNet::Transition &Tr = Net.transition(T);
    for (PlaceId P : Tr.InputPlaces)
      OS << "      <arc id=\"a" << Arc++ << "\" source=\"p" << P.index()
         << "\" target=\"t" << T.index() << "\"/>\n";
    for (PlaceId P : Tr.OutputPlaces)
      OS << "      <arc id=\"a" << Arc++ << "\" source=\"t" << T.index()
         << "\" target=\"p" << P.index() << "\"/>\n";
  }
  OS << "    </page>\n"
     << "  </net>\n"
     << "</pnml>\n";
}

std::string sdsp::pnmlString(const PetriNet &Net, const std::string &NetId) {
  std::ostringstream OS;
  printPnml(Net, OS, NetId);
  return OS.str();
}

PetriNet sdsp::behaviorNet(const PetriNet &Net,
                           const std::vector<StepRecord> &Trace,
                           TimeStep From, TimeStep To) {
  BehaviorGraph BG(Net);
  for (const StepRecord &Rec : Trace)
    BG.recordStep(Rec);

  PetriNetBuilder On;
  constexpr uint32_t NotIncluded = ~0u;
  std::vector<uint32_t> FiringIdx(BG.firings().size(), NotIncluded);
  for (size_t I = 0; I < BG.firings().size(); ++I) {
    const BehaviorGraph::FiringNode &F = BG.firings()[I];
    if (F.StartTime < From || F.StartTime >= To)
      continue;
    const PetriNet::Transition &Tr = Net.transition(F.T);
    TransitionId T = On.addTransition(
        {Tr.Name, "#", std::to_string(F.Occurrence), "@",
         std::to_string(F.StartTime)},
        Tr.ExecTime);
    FiringIdx[I] = static_cast<uint32_t>(T.index());
  }
  for (const BehaviorGraph::TokenNode &Tok : BG.tokens()) {
    bool ProducerIn = Tok.Producer != BehaviorGraph::NoFiring &&
                      FiringIdx[Tok.Producer] != NotIncluded;
    bool ConsumerIn = Tok.Consumer != BehaviorGraph::NoFiring &&
                      FiringIdx[Tok.Consumer] != NotIncluded;
    if (!ProducerIn && !ConsumerIn)
      continue;
    // A token produced before the window opens is simply present when
    // it does: initial marking of the occurrence net.
    PlaceId P = On.addPlace(
        {Net.place(Tok.P).Name, "@", std::to_string(Tok.ProducedAt)},
        ProducerIn ? 0 : 1);
    if (ProducerIn)
      On.addArc(TransitionId(FiringIdx[Tok.Producer]), P);
    if (ConsumerIn)
      On.addArc(P, TransitionId(FiringIdx[Tok.Consumer]));
  }
  return On.build();
}
