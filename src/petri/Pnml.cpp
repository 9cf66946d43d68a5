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

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

using namespace sdsp;

namespace {

//===----------------------------------------------------------------------===//
// XML reader
//===----------------------------------------------------------------------===//

/// Hostile-input bound: a PNML document deeper than this is not a net.
/// (The element bound is parsePnml's MaxElements.)
constexpr size_t MaxDepth = 64;

/// Cancellation cadence: the scan polls once per this many bytes, the
/// importer once per this many elements.
constexpr size_t PollBytes = 64 * 1024;
constexpr size_t PollElements = 4096;

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

/// The offset of the first byte of [\p I, \p N) equal to \p A, \p B or
/// \p C, or \p N: sixteen bytes a step where SSE2 is available (every
/// x86-64 target), one at a time elsewhere and in the tail.
size_t findByte(const char *P, size_t I, size_t N, char A, char B, char C) {
#if defined(__SSE2__)
  const __m128i VA = _mm_set1_epi8(A), VB = _mm_set1_epi8(B),
                VC = _mm_set1_epi8(C);
  for (; I + 16 <= N; I += 16) {
    __m128i X = _mm_loadu_si128(reinterpret_cast<const __m128i *>(P + I));
    __m128i Hit = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(X, VA), _mm_cmpeq_epi8(X, VB)),
        _mm_cmpeq_epi8(X, VC));
    if (unsigned Mask = static_cast<unsigned>(_mm_movemask_epi8(Hit)))
      return I + static_cast<size_t>(__builtin_ctz(Mask));
  }
#endif
  for (; I < N; ++I)
    if (P[I] == A || P[I] == B || P[I] == C)
      return I;
  return N;
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

/// How a reference can be malformed.
enum class RefError {
  None,
  Unterminated,
  UnknownEntity,
  EmptyCharRef,
  MalformedCharRef,
  OutOfRange,
  NotXmlChar,
};

/// Reads the XML subset PNML needs — declaration, comments, processing
/// instructions, CDATA, elements with attributes, character data,
/// predefined entities, and numeric character references — in one pass
/// over the bytes into a flat element table.  DOCTYPE is rejected
/// outright: with no internal DTD subset there are no user-defined
/// entities, hence no expansion bombs.  References are checked during
/// the pass but decoded only when the importer asks for a value.
///
/// The pass builds no Status while the document is well formed: each
/// step returns a bool, and the first rejection is built once, with its
/// line counted from its byte offset, where it is found.
class XmlDocument {
public:
  XmlDocument(const std::string &Text, const CancelToken &Cancel,
              size_t MaxElements)
      : S(Text), P(Text.data()), N(Text.size()), Cancel(Cancel),
        MaxElements(MaxElements) {}

  /// Scans the document into the table; false on the first rejection,
  /// which failure() then holds.
  bool parse() {
    if (!pollAt(0))
      return false;
    // A UTF-8 byte-order mark is tool noise, not content.
    size_t I = S.compare(0, 3, "\xef\xbb\xbf") == 0 ? 3 : 0;
    if (!skipMisc(I))
      return false;
    if (I == N)
      return fail(I, "document has no root element");
    if (!parseElements(I) || !skipMisc(I))
      return false;
    if (I != N)
      return fail(I, "content after the root element");
    return true;
  }

  Status &failure() { return Failure; }

  /// A structured rejection at byte \p Offset: the line is one plus the
  /// newlines before it.
  Status error(size_t Offset, const std::string &Msg) const {
    size_t Line = 1 + static_cast<size_t>(std::count(P, P + Offset, '\n'));
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
        size_t Begin = static_cast<size_t>(Raw.data() - P);
        decodeInto(Store.emplace_back(), Begin, Begin + Raw.size());
        Out = Store.back();
      }
      return true;
    }
    return false;
  }

  /// The character data of \p E: its text runs, decoded references and
  /// CDATA sections, in document order, without its child elements.
  /// Content that is one plain run (no child, reference, comment, CDATA
  /// or processing instruction) is a view of the document; any other
  /// is decoded into \p Scratch.
  std::string_view text(uint32_t E, std::string &Scratch) const {
    const Element &El = Elems[E];
    if (El.SubtreeEnd == E + 1 &&
        findByte(P, El.ContentBegin, El.ContentEnd, '&', '<', '<') ==
            El.ContentEnd)
      return {P + El.ContentBegin, El.ContentEnd - El.ContentBegin};
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
  const char *const P;
  const size_t N;
  const CancelToken &Cancel;
  const size_t MaxElements;
  std::vector<Element> Elems;
  std::vector<Attribute> Attrs;
  Status Failure;
  /// The offset at or past which the scan polls Cancel next.
  size_t NextPoll = 0;

  bool fail(size_t Offset, const std::string &Msg) {
    Failure = error(Offset, Msg);
    return false;
  }

  /// The scan's cancellation checkpoint: polls at the first call at or
  /// past each PollBytes boundary.
  bool pollAt(size_t I) {
    if (I < NextPoll)
      return true;
    NextPoll = I + PollBytes;
    if (!Cancel.cancelled())
      return true;
    Failure = Cancel.status("pnml", "while reading the document");
    return false;
  }

  bool startsWith(size_t I, std::string_view Prefix) const {
    return S.compare(I, Prefix.size(), Prefix) == 0;
  }
  void skipSpace(size_t &I) const {
    while (I < N && isSpace(P[I]))
      ++I;
  }

  /// Moves \p I past the first \p Close at or after \p I + \p Open (the
  /// markup at \p I opens with \p Open bytes); \p Unterminated at \p I
  /// when there is none.
  bool skipPast(size_t &I, size_t Open, std::string_view Close,
                const char *Unterminated) {
    size_t End = S.find(Close, I + Open);
    if (End == std::string::npos)
      return fail(I, Unterminated);
    I = End + Close.size();
    return true;
  }

  /// Skips whitespace, comments, processing instructions; rejects
  /// DOCTYPE.  Used outside the root element.
  bool skipMisc(size_t &I) {
    for (;;) {
      skipSpace(I);
      if (!pollAt(I))
        return false;
      if (startsWith(I, "<!--")) {
        if (!skipPast(I, 4, "-->", "unterminated comment"))
          return false;
      } else if (startsWith(I, "<?")) {
        if (!skipPast(I, 2, "?>", "unterminated processing instruction"))
          return false;
      } else if (startsWith(I, "<!DOCTYPE") || startsWith(I, "<!doctype")) {
        return fail(I, "DOCTYPE declarations are not supported "
                       "(no internal DTD subset)");
      } else {
        return true;
      }
    }
  }

  /// Reads the name at \p I into \p Out and its local part (after the
  /// last ':') into \p Local.
  bool parseName(size_t &I, std::string_view &Out, std::string_view &Local) {
    if (I == N || !isNameStart(P[I]))
      return fail(I, "expected a name");
    size_t Start = I, LocalStart = I;
    for (; I < N && isNameChar(P[I]); ++I)
      if (P[I] == ':')
        LocalStart = I + 1;
    Out = std::string_view(P + Start, I - Start);
    Local = std::string_view(P + LocalStart, I - LocalStart);
    return true;
  }

  /// Reads the entity or character reference at \p At (an '&'): the
  /// code point it stands for into \p Code, the offset past its ';'
  /// into \p Next.  Builds nothing; a malformed reference is reported
  /// by kind.
  RefError readReference(size_t At, size_t &Next, uint32_t &Code) const {
    // The ';' must close the reference within twelve bytes.
    size_t End = At;
    size_t Limit = std::min(N, At + 13);
    while (End < Limit && P[End] != ';')
      ++End;
    if (End == Limit)
      return RefError::Unterminated;
    std::string_view Ref(P + At + 1, End - At - 1);
    Next = End + 1;
    char Simple = Ref == "lt"     ? '<'
                  : Ref == "gt"   ? '>'
                  : Ref == "amp"  ? '&'
                  : Ref == "quot" ? '"'
                  : Ref == "apos" ? '\''
                                  : '\0';
    if (Simple) {
      Code = static_cast<uint32_t>(Simple);
      return RefError::None;
    }
    if (Ref.empty() || Ref[0] != '#')
      return RefError::UnknownEntity;
    bool Hex = Ref.size() > 1 && (Ref[1] == 'x' || Ref[1] == 'X');
    uint64_t Value = 0;
    size_t Pos = Hex ? 2 : 1;
    if (Pos >= Ref.size())
      return RefError::EmptyCharRef;
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
        return RefError::MalformedCharRef;
      Value = Value * (Hex ? 16 : 10) + Digit;
      if (Value > 0x10FFFF)
        return RefError::OutOfRange;
    }
    // XML 1.0 Char production: the code point must be an actual XML
    // character.  NUL, the C0 controls other than tab/LF/CR, the
    // UTF-16 surrogate range, and the permanent non-characters
    // 0xFFFE/0xFFFF all fit under 0x10FFFF but are not Chars;
    // accepting them would bake bytes into the net's labels that no
    // conforming parser (including this one re-reading its own
    // canonical export) will take back.
    bool ValidXmlChar = Value == 0x9 || Value == 0xA || Value == 0xD ||
                        (Value >= 0x20 && Value <= 0xD7FF) ||
                        (Value >= 0xE000 && Value <= 0xFFFD) ||
                        Value >= 0x10000;
    if (!ValidXmlChar)
      return RefError::NotXmlChar;
    Code = static_cast<uint32_t>(Value);
    return RefError::None;
  }

  /// Checks the reference at \p I and moves \p I past it.
  bool checkReference(size_t &I) {
    size_t At = I;
    uint32_t Code = 0;
    RefError E = readReference(At, I, Code);
    // The reference's text, between '&' and ';', once I is past it.
    auto Ref = [&] { return std::string(P + At + 1, I - At - 2); };
    switch (E) {
    case RefError::None:
      return pollAt(I);
    case RefError::Unterminated:
      return fail(At, "unterminated entity reference");
    case RefError::UnknownEntity:
      return fail(At, "unknown entity '&" + Ref() +
                          ";' (only the five predefined XML entities are "
                          "supported)");
    case RefError::EmptyCharRef:
      return fail(At, "empty character reference");
    case RefError::MalformedCharRef:
      return fail(At, "malformed character reference '&" + Ref() + ";'");
    case RefError::OutOfRange:
      return fail(At, "character reference out of range");
    case RefError::NotXmlChar:
      return fail(At, "character reference '&" + Ref() +
                          ";' is not a valid XML character");
    }
    SDSP_UNREACHABLE("unknown reference error");
  }

  /// Decodes [\p I, \p End) of checked content that holds no element:
  /// character data and references are appended, CDATA sections
  /// unwrapped, comments and processing instructions dropped.
  void decodeInto(std::string &Out, size_t I, size_t End) const {
    while (I < End) {
      size_t Run = findByte(P, I, End, '&', '<', '<');
      Out.append(P + I, Run - I);
      I = Run;
      if (I == End)
        break;
      if (P[I] == '&') {
        uint32_t Code = 0;
        RefError E = readReference(I, I, Code);
        SDSP_CHECK(E == RefError::None, "a checked reference failed to decode");
        appendUtf8(Out, Code);
      } else if (startsWith(I, "<![CDATA[")) {
        size_t Close = S.find("]]>", I + 9);
        Out.append(P + I + 9, Close - I - 9);
        I = Close + 3;
      } else if (startsWith(I, "<!--")) {
        I = S.find("-->", I + 4) + 3;
      } else {
        I = S.find("?>", I + 2) + 2;
      }
    }
  }

  bool parseAttrValue(size_t &I, std::string_view &Out) {
    char Quote = I < N ? P[I] : '\0';
    if (Quote != '"' && Quote != '\'')
      return fail(I, "attribute value must be quoted");
    size_t Start = ++I;
    for (;;) {
      I = findByte(P, I, N, Quote, '<', '&');
      if (I == N)
        return fail(I, "unterminated attribute value");
      if (P[I] == Quote)
        break;
      if (P[I] == '<')
        return fail(I, "'<' in attribute value");
      if (!checkReference(I))
        return false;
    }
    Out = std::string_view(P + Start, I - Start);
    ++I;
    return true;
  }

  /// Reads the start tag at \p I of an element at \p Depth into the
  /// table; \p Name is its raw name and \p Empty says it was "<x/>".
  bool startTag(size_t &I, size_t Depth, std::string_view &Name,
                bool &Empty) {
    if (Depth >= MaxDepth)
      return fail(I, "element nesting exceeds depth limit " +
                         std::to_string(MaxDepth));
    if (Elems.size() >= MaxElements)
      return fail(I, "document exceeds the node limit");
    if (I == N || P[I] != '<')
      return fail(I, "expected '<'");
    Element E;
    E.Begin = I++;
    if (!parseName(I, Name, E.Tag))
      return false;
    E.FirstAttr = static_cast<uint32_t>(Attrs.size());
    for (;;) {
      skipSpace(I);
      if (I == N)
        return fail(E.Begin,
                    "unterminated start tag <" + std::string(Name) + ">");
      if (P[I] == '>' || (P[I] == '/' && I + 1 < N && P[I + 1] == '>'))
        break;
      std::string_view AttrName, Local;
      if (!parseName(I, AttrName, Local))
        return false;
      skipSpace(I);
      if (I == N || P[I] != '=')
        return fail(I, "attribute '" + std::string(AttrName) +
                           "' is missing '='");
      ++I;
      skipSpace(I);
      std::string_view Value;
      if (!parseAttrValue(I, Value))
        return false;
      // Attributes have no limit of their own; 2^32 of them would take
      // a document of 16 GiB.
      SDSP_CHECK(Attrs.size() < UINT32_MAX, "attribute table overflow");
      Attrs.push_back({Local, Value});
    }
    E.NumAttrs = static_cast<uint32_t>(Attrs.size()) - E.FirstAttr;
    Empty = P[I] == '/';
    I += Empty ? 2 : 1;
    E.ContentBegin = E.ContentEnd = E.End = I;
    E.SubtreeEnd = static_cast<uint32_t>(Elems.size()) + 1;
    Elems.push_back(E);
    return true;
  }

  /// Reads the end tag at \p I (a "</") that closes \p Top, raw name
  /// \p TopName.
  bool endTag(size_t &I, uint32_t Top, std::string_view TopName) {
    size_t Close = I;
    I += 2;
    Element &E = Elems[Top];
    std::string_view EndName = TopName, Local = E.Tag;
    // Mostly the end tag spells the open element's name: then reading
    // the name would stop just after it.
    size_t After = I + TopName.size();
    if (After < N && !isNameChar(P[After]) &&
        std::memcmp(P + I, TopName.data(), TopName.size()) == 0)
      I = After;
    else if (!parseName(I, EndName, Local))
      return false;
    skipSpace(I);
    if (I == N || P[I] != '>')
      return fail(I, "malformed end tag </" + std::string(EndName) + ">");
    ++I;
    if (Local != E.Tag)
      return fail(I, "end tag </" + std::string(EndName) +
                         "> does not match <" + std::string(TopName) + ">");
    E.ContentEnd = Close;
    E.End = I;
    E.SubtreeEnd = static_cast<uint32_t>(Elems.size());
    return true;
  }

  /// Reads the root element and everything inside it.  The open
  /// elements live on a fixed stack: the depth bound is the recursion
  /// bound of a recursive reader.
  bool parseElements(size_t &I) {
    struct Open {
      uint32_t Index;
      std::string_view Name;
    };
    Open Stack[MaxDepth];
    size_t Depth = 0;
    std::string_view Name;
    bool Empty = false;
    if (!startTag(I, 0, Name, Empty))
      return false;
    if (!Empty)
      Stack[Depth++] = {0, Name};
    while (Depth > 0) {
      const Open &Top = Stack[Depth - 1];
      // Character data up to the next markup; references are checked
      // as they come.
      for (;;) {
        I = findByte(P, I, N, '<', '&', '&');
        if (I == N || P[I] == '<')
          break;
        if (!checkReference(I))
          return false;
      }
      if (I == N)
        return fail(Elems[Top.Index].Begin,
                    "element <" + std::string(Top.Name) + "> is never closed");
      if (!pollAt(I))
        return false;
      // Markup, told apart by the byte after its '<'.
      switch (I + 1 < N ? P[I + 1] : '\0') {
      case '/':
        if (!endTag(I, Top.Index, Top.Name))
          return false;
        --Depth;
        break;
      case '!':
        if (startsWith(I, "<!--")) {
          if (!skipPast(I, 4, "-->", "unterminated comment"))
            return false;
        } else if (startsWith(I, "<![CDATA[")) {
          if (!skipPast(I, 9, "]]>", "unterminated CDATA section"))
            return false;
        } else {
          return fail(I, "unsupported markup declaration");
        }
        break;
      case '?':
        if (!skipPast(I, 2, "?>", "unterminated processing instruction"))
          return false;
        break;
      default: {
        uint32_t Index = static_cast<uint32_t>(Elems.size());
        if (!startTag(I, Depth, Name, Empty))
          return false;
        if (!Empty)
          Stack[Depth++] = {Index, Name};
      }
      }
    }
    return true;
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
/// values that outlive the table); nothing is copied.  An id of up to
/// eight bytes is also held in its slot, so telling it from another
/// reads nothing else.
class IdTable {
public:
  explicit IdTable(size_t Keys) : Slots(tableSize(Keys)) {}

  NodeRef find(std::string_view Id) const {
    uint64_t Word = word(Id);
    for (size_t I = slotOf(Id, Word);; I = (I + 1) & mask()) {
      const Slot &Sl = Slots[I];
      if (Sl.Node == NoNode || same(Sl, Id, Word))
        return Sl.Node;
    }
  }

  /// Adds \p Id for \p Node with one probe; false, adding nothing, when
  /// \p Id is there already.
  bool insert(std::string_view Id, NodeRef Node) {
    uint64_t Word = word(Id);
    for (size_t I = slotOf(Id, Word);; I = (I + 1) & mask()) {
      Slot &Sl = Slots[I];
      if (Sl.Node == NoNode) {
        Sl = {Word, Id, Node};
        return true;
      }
      if (same(Sl, Id, Word))
        return false;
    }
  }

private:
  struct Slot {
    /// An id of up to eight bytes, zero-padded; a longer one's hash.
    uint64_t Word = 0;
    std::string_view Id;
    NodeRef Node = NoNode;
  };
  std::vector<Slot> Slots;
  uint64_t Secret = tableSecret();

  size_t mask() const { return Slots.size() - 1; }

  /// The bytes of an id of up to eight, as a little-endian word with
  /// nothing above them; the hash of a longer one.
  uint64_t word(std::string_view Id) const {
    const char *P = Id.data();
    size_t Len = Id.size();
    auto Byte = [&](size_t I) {
      return static_cast<uint64_t>(static_cast<unsigned char>(P[I]));
    };
    if (Len == 0)
      return 0;
    if (Len < 4)
      return Byte(0) | Byte(Len / 2) << (8 * (Len / 2)) |
             Byte(Len - 1) << (8 * (Len - 1));
    if (Len <= 8) {
      // Two overlapping four-byte loads: the shared bytes agree.
      uint32_t Lo = 0, Hi = 0;
      std::memcpy(&Lo, P, 4);
      std::memcpy(&Hi, P + Len - 4, 4);
      return static_cast<uint64_t>(Lo) | static_cast<uint64_t>(Hi)
                                             << (8 * (Len - 4));
    }
    uint64_t H = Secret ^ Len;
    size_t Left = Len;
    for (; Left >= 8; P += 8, Left -= 8) {
      uint64_t W;
      std::memcpy(&W, P, 8);
      H = mix(H ^ W, MixConstant ^ Secret);
    }
    uint64_t W = 0;
    std::memcpy(&W, P, Left);
    return mix(H ^ W, MixConstant ^ Secret);
  }

  size_t slotOf(std::string_view Id, uint64_t Word) const {
    return mix(Word ^ Secret ^ Id.size(), MixConstant ^ Secret) & mask();
  }

  static bool same(const Slot &Sl, std::string_view Id, uint64_t Word) {
    return Sl.Word == Word && Sl.Id.size() == Id.size() &&
           (Id.size() <= 8 || Sl.Id == Id);
  }
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
/// nesting flattened, so arcs may reference nodes declared later.  Like
/// the scan, it builds no Status unless it rejects.
class Importer {
public:
  Importer(const XmlDocument &Doc, const CancelToken &Cancel)
      : Doc(Doc), Cancel(Cancel) {}

  /// Imports the net into \p Out; false on the first rejection, which
  /// failure() then holds.
  bool run(PnmlNet &Out) {
    const Element &Root = Doc.elem(0);
    if (Root.Tag != "pnml")
      return fail(Root.Begin, "root element is <" + std::string(Root.Tag) +
                                  ">, expected <pnml>");
    uint32_t Net = NoElement;
    for (uint32_t C = 1; C < Root.SubtreeEnd; C = Doc.elem(C).SubtreeEnd) {
      if (Doc.elem(C).Tag != "net")
        continue;
      if (Net != NoElement)
        return fail(Doc.elem(C).Begin,
                    "multiple <net> elements are not supported");
      Net = C;
    }
    if (Net == NoElement)
      return fail(Root.Begin, "document has no <net> element");

    collect(Net);
    Ids = IdTable(NodeElems.size());
    size_t Done = 0;
    for (uint32_t E : NodeElems)
      if (!poll(Done++) ||
          !(Doc.elem(E).Tag == "place" ? importPlace(E) : importTransition(E)))
        return false;
    ArcSet = ArcTable(ArcElems.size());
    for (uint32_t E : ArcElems)
      if (!poll(Done++) || !importArc(E))
        return false;
    if (Built.numTransitions() == 0)
      return fail(Doc.elem(Net).Begin,
                  "net has no transitions (nothing to execute)");

    Out.Net = Built.build();
    std::string_view Id;
    Out.NetId = Doc.attr(Net, "id", Decoded, Id) && !Id.empty()
                    ? std::string(Id)
                    : "net";
    return true;
  }

  Status &failure() { return Failure; }

private:
  const XmlDocument &Doc;
  const CancelToken &Cancel;
  std::vector<uint32_t> NodeElems, ArcElems;
  IdTable Ids{0};
  ArcTable ArcSet{0};
  PetriNetBuilder Built;
  /// Attribute values that held references, decoded.
  std::deque<std::string> Decoded;
  std::string Scratch;
  Status Failure;

  bool fail(size_t Offset, const std::string &Msg) {
    Failure = Doc.error(Offset, Msg);
    return false;
  }

  /// The importer's cancellation checkpoint, before every PollElements
  /// elements.
  bool poll(size_t Done) {
    if (Done % PollElements != 0 || !Cancel.cancelled())
      return true;
    Failure = Cancel.status("pnml", "while importing the net");
    return false;
  }

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

  /// A node's name label, falling back to its id; a view that lives
  /// until the next labelText.
  std::string_view nodeName(uint32_t E, std::string_view Id) {
    std::string_view Name;
    if (uint32_t L = Doc.child(E, "name"); L != NoElement)
      Name = labelText(L);
    return Name.empty() ? Id : Name;
  }

  /// Strict decimal uint32 with a range diagnostic; "huge counts" in
  /// the fuzz corpus land here.
  bool parseCount(uint32_t E, const char *What, std::string_view Id,
                  uint32_t &Out) {
    std::string_view V = labelText(E);
    if (V.empty() || V.find_first_not_of("0123456789") != std::string::npos)
      return fail(Doc.elem(E).Begin, std::string(What) + " of '" +
                                         std::string(Id) + "' is '" +
                                         std::string(V) +
                                         "', expected a non-negative integer");
    uint64_t Value = 0;
    for (char C : V.substr(0, 11))
      Value = Value * 10 + static_cast<uint64_t>(C - '0');
    if (V.size() > 10 || Value > UINT32_MAX)
      return fail(Doc.elem(E).Begin, std::string(What) + " of '" +
                                         std::string(Id) +
                                         "' is out of range");
    Out = static_cast<uint32_t>(Value);
    return true;
  }

  /// Reads and claims the id of the place or transition \p E.
  bool claimId(uint32_t E, NodeRef Node, std::string_view &Id) {
    const Element &El = Doc.elem(E);
    if (!Doc.attr(E, "id", Decoded, Id) || Id.empty())
      return fail(El.Begin, std::string(El.Tag) + " without an id attribute");
    if (!Ids.insert(Id, Node))
      return fail(El.Begin, "duplicate id '" + std::string(Id) + "'");
    return true;
  }

  bool importPlace(uint32_t E) {
    std::string_view Id;
    if (!claimId(E, placeRef(Built.numPlaces()), Id))
      return false;
    uint32_t Tokens = 0;
    if (uint32_t M = Doc.child(E, "initialMarking"); M != NoElement)
      if (!parseCount(M, "initial marking", Id, Tokens))
        return false;
    Built.addPlace(nodeName(E, Id), Tokens);
    return true;
  }

  bool importTransition(uint32_t E) {
    std::string_view Id;
    if (!claimId(E, transitionRef(Built.numTransitions()), Id))
      return false;
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
            return fail(Doc.elem(C).Begin, "toolspecific annotation of '" +
                                               std::string(Id) +
                                               "' has no <execTime>");
          break;
        }
        if (Timing == NoElement)
          Timing = Doc.child(C, "delay");
      } else if (Tag == "delay" && Timing == NoElement) {
        Timing = C;
      }
    }
    if (Timing != NoElement) {
      if (!parseCount(Timing, "execution time", Id, Tau))
        return false;
      if (Tau == 0)
        return fail(Doc.elem(Timing).Begin,
                    "transition '" + std::string(Id) +
                        "' has execution time 0 (deterministic timing "
                        "needs tau >= 1)");
    }
    Built.addTransition(nodeName(E, Id), Tau);
    return true;
  }

  bool importArc(uint32_t E) {
    size_t At = Doc.elem(E).Begin;
    std::string_view Src, Dst, ArcName;
    Doc.attr(E, "source", Decoded, Src);
    Doc.attr(E, "target", Decoded, Dst);
    if (!Doc.attr(E, "id", Decoded, ArcName))
      ArcName = "(no id)";
    if (Src.empty() || Dst.empty())
      return fail(At, "arc " + std::string(ArcName) +
                          " needs source and target");
    NodeRef From = Ids.find(Src), To = Ids.find(Dst);
    if (From == NoNode || To == NoNode)
      return fail(At, "arc " + std::string(ArcName) +
                          " references unknown node '" +
                          std::string(From == NoNode ? Src : Dst) + "'");
    if (isPlace(From) == isPlace(To))
      return fail(At, "arc " + std::string(ArcName) + " connects two " +
                          (isPlace(From) ? "places" : "transitions") +
                          " (arcs must join a place and a transition)");
    if (uint32_t Insc = Doc.child(E, "inscription"); Insc != NoElement) {
      uint32_t W = 0;
      if (!parseCount(Insc, "inscription", ArcName, W))
        return false;
      if (W != 1)
        return fail(Doc.elem(Insc).Begin,
                    "arc " + std::string(ArcName) + " has multiplicity " +
                        std::to_string(W) +
                        " (arc multiplicity is 1 throughout the model)");
    }
    if (!ArcSet.insert(From, To))
      return fail(At, "duplicate arc from '" + std::string(Src) + "' to '" +
                          std::string(Dst) + "'");
    if (isPlace(From))
      Built.addArc(PlaceId(nodeIndex(From)), TransitionId(nodeIndex(To)));
    else
      Built.addArc(TransitionId(nodeIndex(From)), PlaceId(nodeIndex(To)));
    return true;
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

Expected<PnmlNet> sdsp::parsePnml(const std::string &Text,
                                  const CancelToken &Cancel,
                                  size_t MaxElements) {
  XmlDocument Doc(Text, Cancel, MaxElements);
  if (!Doc.parse())
    return std::move(Doc.failure());
  Importer Import(Doc, Cancel);
  PnmlNet Out;
  if (!Import.run(Out))
    return std::move(Import.failure());
  return Out;
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

PetriNet sdsp::behaviorNet(const PetriNet &Net, const FiringTrace &Trace,
                           TimeStep From, TimeStep To) {
  BehaviorGraph BG(Net);
  for (StepView Rec : Trace)
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
