//===- petri/Pnml.cpp - PNML interchange for timed P/T nets ----------------===//
//
// Part of the SDSP project: a reproduction of Gao, Wong & Ning,
// "A Timed Petri-Net Model for Fine-Grain Loop Scheduling", PLDI 1991.
//
//===----------------------------------------------------------------------===//

#include "petri/Pnml.h"

#include "petri/BehaviorGraph.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <deque>
#include <ostream>
#include <random>
#include <string_view>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

using namespace sdsp;

namespace {

//===----------------------------------------------------------------------===//
// XML scanning
//===----------------------------------------------------------------------===//

/// Hostile-input bound: a PNML document deeper than this is not a net.
/// (The element bound is parsePnml's MaxElements.)
constexpr size_t MaxDepth = 64;

/// Cancellation cadence: the scan polls once per this many bytes, arc
/// resolution once per this many arcs.
constexpr size_t PollBytes = 64 * 1024;
constexpr size_t PollArcs = 4096;

/// Whether \p S spells \p Lit, compared at the literal's constant
/// length (a view compared with == would call memcmp per name).
template <size_t K> bool is(std::string_view S, const char (&Lit)[K]) {
  return S.size() == K - 1 && std::memcmp(S.data(), Lit, K - 1) == 0;
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

//===----------------------------------------------------------------------===//
// Hash tables of the import
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

/// Open-addressed tables sized at least twice their keys.
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

/// Node ids to nodes, doubled when half full.  Keys are
/// views of the document (or of decoded values that outlive the table);
/// nothing is copied.  An id of up to eight bytes is also held in its
/// slot, so telling it from another reads nothing else.
class IdTable {
public:
  /// Sized for about \p Keys ids.
  explicit IdTable(size_t Keys) : Slots(tableSize(Keys)) {}

  NodeRef find(std::string_view Id) const {
    uint64_t Word = word(Id);
    for (size_t I = slotOf(Id.size(), Word);; I = (I + 1) & mask()) {
      const Slot &Sl = Slots[I];
      if (Sl.NodePlus1 == 0 || same(Sl, Id, Word))
        return Sl.NodePlus1 - 1;
    }
  }

  /// Adds \p Id for \p Node with one probe; false, adding nothing, when
  /// \p Id is there already.
  bool insert(std::string_view Id, NodeRef Node) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    uint64_t Word = word(Id);
    for (size_t I = slotOf(Id.size(), Word);; I = (I + 1) & mask()) {
      Slot &Sl = Slots[I];
      if (Sl.NodePlus1 == 0) {
        Sl = {Word, Id, Node + 1};
        ++Count;
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
    /// The node plus one: an empty slot is all zeros, and so is a new
    /// table, which is then filled like a memset.
    NodeRef NodePlus1 = 0;
  };
  std::vector<Slot> Slots;
  size_t Count = 0;
  uint64_t Secret = tableSecret();

  size_t mask() const { return Slots.size() - 1; }

  /// Doubles the table; the slots keep their words.
  void grow() {
    std::vector<Slot> Old(Slots.size() * 2);
    Old.swap(Slots);
    for (const Slot &Sl : Old) {
      if (Sl.NodePlus1 == 0)
        continue;
      size_t I = slotOf(Sl.Id.size(), Sl.Word);
      while (Slots[I].NodePlus1 != 0)
        I = (I + 1) & mask();
      Slots[I] = Sl;
    }
  }

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

  size_t slotOf(size_t Len, uint64_t Word) const {
    return mix(Word ^ Secret ^ Len, MixConstant ^ Secret) & mask();
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

//===----------------------------------------------------------------------===//
// The reader
//===----------------------------------------------------------------------===//

constexpr size_t NoOffset = ~size_t(0);

/// The id table starts sized for one node per this many bytes, about
/// the density of a canonical export, which then never grows it: grown
/// from a few slots it cost a seventh of such an import.
constexpr size_t BytesPerNode = 128;

/// What an open element is to the import.  Everything off the paths the
/// model reads is Skip, and so is all of its content.
enum class Role : uint8_t {
  Skip,
  Root,        // <pnml>
  Net,         // the one <net>
  Page,        // a <page> of the net, or of a page
  Place,       // a place of the net
  Transition,  // a transition of the net
  Arc,         // an arc of the net
  Tool,        // a transition's <toolspecific>, until its tool is read
  SdspTool,    // the first <toolspecific tool="sdsp">: ends the search
  ForeignTool, // another tool's block, searched for a <delay>
  Name,        // a node's first <name>
  Count,       // the marking, timing or inscription label
  Text,        // a label's first <text>
};

/// Reads the XML subset PNML needs — declaration, comments, processing
/// instructions, CDATA, elements with attributes, character data,
/// predefined entities, and numeric character references — and builds
/// the net in the same pass over the bytes.  DOCTYPE is rejected
/// outright: with no internal DTD subset there are no user-defined
/// entities, hence no expansion bombs.
///
/// Each start tag gets a role from its parent's role and its local name.
/// A place or transition is built when its end tag closes; an arc leaves
/// one pending record, resolved after the scan, so arcs may name nodes
/// declared later.  No element outlives its end tag.  A well-formedness
/// error wins over any import error, so the first import error is kept
/// and the scan goes on; import errors come in the model's order (root,
/// net, nodes, arcs, an empty net).  No Status is built unless the
/// document is rejected, with the line counted from the byte offset.
class PnmlReader {
public:
  PnmlReader(const std::string &Text, const CancelToken &Cancel,
             size_t MaxElements)
      : S(Text), P(Text.data()), N(Text.size()), Cancel(Cancel),
        MaxElements(MaxElements),
        Ids(std::min(N / BytesPerNode, MaxElements)) {}

  /// Reads the document into \p Out; false on the first rejection, which
  /// failure() then holds.
  bool read(PnmlNet &Out) {
    if (!pollAt(0))
      return false;
    // A UTF-8 byte-order mark is tool noise, not content.
    size_t I = S.compare(0, 3, "\xef\xbb\xbf") == 0 ? 3 : 0;
    if (!skipMisc(I))
      return false;
    if (I == N)
      return fail(I, "document has no root element");
    RootBegin = I;
    if (!parseElements(I) || !skipMisc(I))
      return false;
    if (I != N)
      return fail(I, "content after the root element");
    if (ImportAt != NoOffset)
      return fail(ImportAt, ImportMsg);
    if (NetBegin == NoOffset)
      return fail(RootBegin, "document has no <net> element");
    if (!resolveArcs())
      return false;
    if (Built.numTransitions() == 0)
      return fail(NetBegin, "net has no transitions (nothing to execute)");
    Out.Net = Built.build();
    Out.NetId = NetId.empty() ? "net" : std::move(NetId);
    return true;
  }

  Status &failure() { return Failure; }

private:
  const std::string &S;
  const char *const P;
  const size_t N;
  const CancelToken &Cancel;
  const size_t MaxElements;
  size_t Elements = 0;
  Status Failure;
  /// The offset at or past which the scan polls Cancel next.
  size_t NextPoll = 0;

  /// One open element: its raw name, which its start tag's '<' comes
  /// just before, and its role.  Kept small: every start tag pushes one.
  struct Open {
    std::string_view Name;
    Role R;
  };
  size_t beginOf(const Open &E) const {
    return static_cast<size_t>(E.Name.data() - P) - 1;
  }
  /// The open elements: the depth bound is the recursion bound of a
  /// recursive reader.
  Open Stack[MaxDepth];
  size_t Depth = 0;

  /// The attributes a role reads, undecoded; a null view is absent.
  struct TagAttrs {
    std::string_view Id, Source, Target, Tool;
  };

  /// A label: its element's '<' (NoOffset while there is none) and its
  /// value, trimmed, a view of the document or of Store.
  struct Label {
    size_t Begin = NoOffset;
    std::string_view Value;
    std::string Store;
  };

  /// The place, transition or arc open now (they do not nest).
  struct {
    size_t Begin = 0;
    std::string_view Id;
    Label Name, Count;
    /// The sdsp annotation was found: the timing search is over.
    bool SdspSeen = false;
    NodeRef From = NoNode, To = NoNode;
  } Node;

  /// The character data being gathered for a label: the content of the
  /// element at depth ChildDepth - 1 from Pos on, without its children.
  /// Content that is one plain run stays a view.
  static constexpr size_t NoCapture = ~size_t(0);
  struct Capture {
    size_t ChildDepth = NoCapture;
    size_t Pos = 0;
    bool Decoded = false;
    Label *Into = nullptr;
  } Cap;

  /// An arc whose endpoints are resolved after the scan; an endpoint not
  /// declared yet when the arc was read is NoNode until then.
  struct PendingArc {
    size_t Begin;
    NodeRef From, To;
  };
  std::vector<PendingArc> Pending;
  /// The first arc whose own content rejects it (no endpoints, a bad
  /// inscription), after which no arc is recorded: its index, the
  /// rejection, and whether its endpoints are checked first.
  struct ArcCut {
    size_t Index = NoOffset;
    size_t At = 0;
    std::string Msg;
    bool AfterEndpoints = false;
  } Cut;

  size_t RootBegin = 0;
  size_t NetBegin = NoOffset;
  std::string NetId;
  /// The first import rejection; building stops there.
  size_t ImportAt = NoOffset;
  std::string ImportMsg;
  bool Building = true;
  IdTable Ids;
  PetriNetBuilder Built;
  /// Node ids that held references, decoded.
  std::deque<std::string> DecodedIds;
  std::string Scratch;

  bool fail(size_t Offset, const std::string &Msg) {
    size_t Line = 1 + static_cast<size_t>(std::count(P, P + Offset, '\n'));
    Failure = Status::error(ErrorCode::InvalidInput, "pnml",
                            "line " + std::to_string(Line) + ": " + Msg);
    return false;
  }

  /// Records an import rejection unless one came before it.
  void reject(size_t Offset, std::string Msg) {
    if (ImportAt == NoOffset) {
      ImportAt = Offset;
      ImportMsg = std::move(Msg);
    }
    Building = false;
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

  /// A checked attribute value, decoded: the view itself when it holds
  /// no reference, else decoded into \p Store.
  std::string_view decoded(std::string_view Raw, std::string &Store) const {
    if (Raw.find('&') == std::string_view::npos)
      return Raw;
    Store.clear();
    size_t Begin = static_cast<size_t>(Raw.data() - P);
    decodeInto(Store, Begin, Begin + Raw.size());
    return Store;
  }

  /// The decoded value of the first attribute named \p Name of the
  /// checked start tag at \p Begin; false when it has none.  Arcs are
  /// read again here when they are resolved late or rejected.
  bool attrOf(size_t Begin, std::string_view Name, std::string &Out) const {
    size_t I = Begin + 1;
    while (isNameChar(P[I]))
      ++I;
    for (;;) {
      skipSpace(I);
      if (P[I] == '>' || P[I] == '/')
        return false;
      size_t LocalBegin = I;
      for (; isNameChar(P[I]); ++I)
        if (P[I] == ':')
          LocalBegin = I + 1;
      std::string_view Local(P + LocalBegin, I - LocalBegin);
      skipSpace(I);
      ++I; // '='
      skipSpace(I);
      char Quote = P[I++];
      size_t End = S.find(Quote, I);
      if (Local == Name) {
        Out.clear();
        decodeInto(Out, I, End);
        return true;
      }
      I = End + 1;
    }
  }

  std::string arcName(size_t Begin) const {
    std::string Id;
    return attrOf(Begin, "id", Id) ? Id : "(no id)";
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

  /// The role of an element named \p Local inside one of role \p Parent,
  /// before its attributes are read.
  Role childRole(Role Parent, std::string_view Local) const {
    if (Parent == Role::Root)
      return is(Local, "net") ? Role::Net : Role::Skip;
    if (!Building)
      return Role::Skip;
    // The first label of its kind counts.
    auto CountIf = [&](bool Match) {
      return Match && Node.Count.Begin == NoOffset ? Role::Count : Role::Skip;
    };
    switch (Parent) {
    case Role::Net:
    case Role::Page:
      if (is(Local, "place"))
        return Role::Place;
      if (is(Local, "transition"))
        return Role::Transition;
      if (is(Local, "arc"))
        return Cut.Index == NoOffset ? Role::Arc : Role::Skip;
      return is(Local, "page") ? Role::Page : Role::Skip;
    case Role::Place:
    case Role::Transition:
      if (is(Local, "name"))
        return Node.Name.Begin == NoOffset ? Role::Name : Role::Skip;
      if (Parent == Role::Place)
        return CountIf(is(Local, "initialMarking"));
      // Timing: our own <toolspecific tool="sdsp"><execTime> annotation
      // first, a <delay> label (the TINA-style convention, either a
      // direct child or inside a foreign tool's toolspecific block) as
      // the fallback, default 1 when neither is present.
      if (Node.SdspSeen)
        return Role::Skip;
      return is(Local, "toolspecific") ? Role::Tool
                                       : CountIf(is(Local, "delay"));
    case Role::SdspTool:
      return CountIf(is(Local, "execTime"));
    case Role::ForeignTool:
      return CountIf(is(Local, "delay"));
    case Role::Arc:
      return CountIf(is(Local, "inscription"));
    case Role::Name:
    case Role::Count:
      // The label's first <text> arrives while its own content is still
      // being gathered.
      return is(Local, "text") && Cap.ChildDepth == Depth ? Role::Text
                                                          : Role::Skip;
    default:
      return Role::Skip;
    }
  }

  /// The element of role \p R at depth \p D, whose start tag spans
  /// [\p Begin, \p Content), begins; \p R may change with its
  /// attributes.
  void enter(Role &R, size_t D, size_t Begin, size_t Content,
             std::string_view Local, const TagAttrs &A) {
    switch (R) {
    case Role::Root:
      if (!is(Local, "pnml")) {
        reject(Begin,
               "root element is <" + std::string(Local) + ">, expected <pnml>");
        R = Role::Skip;
      }
      break;
    case Role::Net:
      if (NetBegin != NoOffset) {
        // A second net outranks any node error of the first.
        ImportAt = Begin;
        ImportMsg = "multiple <net> elements are not supported";
        Building = false;
        Stack[0].R = Role::Skip;
        R = Role::Skip;
        break;
      }
      NetBegin = Begin;
      NetId = decoded(A.Id, Scratch);
      break;
    case Role::Place:
    case Role::Transition: {
      openNode(Begin);
      std::string_view Id = A.Id;
      if (Id.find('&') != std::string_view::npos)
        Id = decoded(Id, DecodedIds.emplace_back());
      NodeRef Ref = R == Role::Place ? placeRef(Built.numPlaces())
                                     : transitionRef(Built.numTransitions());
      if (Id.empty())
        reject(Begin, std::string(Local) + " without an id attribute");
      else if (!Ids.insert(Id, Ref))
        reject(Begin, "duplicate id '" + std::string(Id) + "'");
      Node.Id = Id;
      if (!Building)
        R = Role::Skip;
      break;
    }
    case Role::Arc:
      if (A.Source.empty() || A.Target.empty()) {
        Pending.push_back({Begin, NoNode, NoNode});
        Cut = {Pending.size() - 1, Begin,
               "arc " + arcName(Begin) + " needs source and target", false};
        R = Role::Skip;
        break;
      }
      openNode(Begin);
      Node.From = Ids.find(decoded(A.Source, Scratch));
      Node.To = Ids.find(decoded(A.Target, Scratch));
      break;
    case Role::Tool:
      if (decoded(A.Tool, Scratch) == "sdsp") {
        Node.SdspSeen = true;
        Node.Count.Begin = NoOffset;
        R = Role::SdspTool;
      } else {
        R = Role::ForeignTool;
      }
      break;
    case Role::Name:
    case Role::Count:
    case Role::Text: {
      // Gather a label's content, or its first <text>'s, from here on.
      Role Kind = R == Role::Text ? Stack[D - 1].R : R;
      Label &L = Kind == Role::Name ? Node.Name : Node.Count;
      if (R != Role::Text)
        L.Begin = Begin;
      L.Store.clear();
      Cap = {D + 1, Content, false, &L};
      break;
    }
    default:
      break;
    }
  }

  /// The element \p E at depth \p D ends: \p Close is the '<' of its end
  /// tag (just past the start tag when it is empty), \p After is past
  /// the end tag.
  void leave(const Open &E, size_t D, size_t Close, size_t After) {
    if (D == Cap.ChildDepth) {
      Cap.Pos = After;
    } else if (D + 1 == Cap.ChildDepth) {
      // The gathered content ends: one plain run stays a view.
      Label &L = *Cap.Into;
      if (!Cap.Decoded &&
          findByte(P, Cap.Pos, Close, '&', '<', '<') == Close) {
        L.Value = trim(std::string_view(P + Cap.Pos, Close - Cap.Pos));
      } else {
        decodeInto(L.Store, Cap.Pos, Close);
        L.Value = trim(L.Store);
      }
      Cap.ChildDepth = NoCapture;
    }
    if (!Building)
      return;
    switch (E.R) {
    case Role::Place: {
      uint32_t Tokens = 0;
      if (std::string Why = count("initial marking", Node.Id, Tokens);
          !Why.empty())
        return reject(Node.Count.Begin, std::move(Why));
      Built.addPlace(nodeName(), Tokens);
      return;
    }
    case Role::Transition: {
      uint32_t Tau = 1;
      std::string Why = count("execution time", Node.Id, Tau);
      if (Why.empty() && Tau == 0)
        Why = "transition '" + std::string(Node.Id) +
              "' has execution time 0 (deterministic timing needs tau >= 1)";
      if (!Why.empty())
        return reject(Node.Count.Begin, std::move(Why));
      Built.addTransition(nodeName(), Tau);
      return;
    }
    case Role::SdspTool:
      if (Node.Count.Begin == NoOffset)
        reject(beginOf(E), "toolspecific annotation of '" +
                            std::string(Node.Id) + "' has no <execTime>");
      return;
    case Role::Arc: {
      Pending.push_back({Node.Begin, Node.From, Node.To});
      if (Node.Count.Begin == NoOffset)
        return;
      uint32_t W = 1;
      std::string Name = arcName(Node.Begin);
      std::string Why = count("inscription", Name, W);
      if (Why.empty() && W != 1)
        Why = "arc " + Name + " has multiplicity " + std::to_string(W) +
              " (arc multiplicity is 1 throughout the model)";
      if (!Why.empty())
        Cut = {Pending.size() - 1, Node.Count.Begin, std::move(Why), true};
      return;
    }
    default:
      return;
    }
  }

  /// Reads the node's count label, when it has one, into \p Out as a
  /// strict decimal uint32 ("huge counts" in the fuzz corpus land here);
  /// the rejection of a malformed one, else "".
  std::string count(const char *What, std::string_view Id,
                    uint32_t &Out) const {
    if (Node.Count.Begin == NoOffset)
      return {};
    std::string_view V = Node.Count.Value;
    auto Head = [&] {
      return std::string(What) + " of '" + std::string(Id) + "' is ";
    };
    if (V.empty() || V.find_first_not_of("0123456789") != std::string::npos)
      return Head() + "'" + std::string(V) +
             "', expected a non-negative integer";
    uint64_t Value = 0;
    for (char C : V.substr(0, 11))
      Value = Value * 10 + static_cast<uint64_t>(C - '0');
    if (V.size() > 10 || Value > UINT32_MAX)
      return Head() + "out of range";
    Out = static_cast<uint32_t>(Value);
    return {};
  }

  void openNode(size_t Begin) {
    Node.Begin = Begin;
    Node.Name.Begin = Node.Count.Begin = NoOffset;
    Node.SdspSeen = false;
  }

  /// A node's name label, falling back to its id.
  std::string_view nodeName() const {
    return Node.Name.Begin == NoOffset || Node.Name.Value.empty()
               ? Node.Id
               : Node.Name.Value;
  }

  /// Reads the start tag at \p I of an element at depth Depth and enters
  /// it; \p Empty says it was "<x/>".
  bool startTag(size_t &I, bool &Empty) {
    if (Depth >= MaxDepth)
      return fail(I, "element nesting exceeds depth limit " +
                         std::to_string(MaxDepth));
    if (Elements >= MaxElements)
      return fail(I, "document exceeds the node limit");
    if (I == N || P[I] != '<')
      return fail(I, "expected '<'");
    size_t Begin = I++;
    std::string_view Name, Local;
    if (!parseName(I, Name, Local))
      return false;
    Role R = Depth == 0 ? Role::Root : childRole(Stack[Depth - 1].R, Local);
    TagAttrs A;
    for (;;) {
      skipSpace(I);
      if (I == N)
        return fail(Begin,
                    "unterminated start tag <" + std::string(Name) + ">");
      if (P[I] == '>' || (P[I] == '/' && I + 1 < N && P[I + 1] == '>'))
        break;
      std::string_view AttrName, AttrLocal;
      if (!parseName(I, AttrName, AttrLocal))
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
      // The first of each name a role reads counts.
      std::string_view *Slot = nullptr;
      if (R == Role::Arc)
        Slot = is(AttrLocal, "source")   ? &A.Source
               : is(AttrLocal, "target") ? &A.Target
                                         : nullptr;
      else if (R == Role::Tool)
        Slot = is(AttrLocal, "tool") ? &A.Tool : nullptr;
      else if (R == Role::Net || R == Role::Place || R == Role::Transition)
        Slot = is(AttrLocal, "id") ? &A.Id : nullptr;
      if (Slot && !Slot->data())
        *Slot = Value;
    }
    ++Elements;
    Empty = P[I] == '/';
    I += Empty ? 2 : 1;
    if (Depth == Cap.ChildDepth && R != Role::Text) {
      // A child of the gathered element: its text so far is complete.
      decodeInto(Cap.Into->Store, Cap.Pos, Begin);
      Cap.Decoded = true;
    }
    enter(R, Depth, Begin, I, Local, A);
    Open E{Name, R};
    if (Empty)
      leave(E, Depth, I, I);
    else
      Stack[Depth++] = E;
    return true;
  }

  /// Reads the end tag at \p I (a "</") that closes the top element.
  bool endTag(size_t &I) {
    size_t Close = I;
    I += 2;
    const Open &E = Stack[Depth - 1];
    std::string_view EndName = E.Name, Local;
    // Mostly the end tag spells the open element's name: then reading
    // the name would stop just after it.
    size_t After = I + E.Name.size();
    bool Same = After < N && !isNameChar(P[After]) &&
                std::memcmp(P + I, E.Name.data(), E.Name.size()) == 0;
    if (Same)
      I = After;
    else if (!parseName(I, EndName, Local))
      return false;
    skipSpace(I);
    if (I == N || P[I] != '>')
      return fail(I, "malformed end tag </" + std::string(EndName) + ">");
    ++I;
    if (!Same && Local != E.Name.substr(E.Name.rfind(':') + 1))
      return fail(I, "end tag </" + std::string(EndName) +
                         "> does not match <" + std::string(E.Name) + ">");
    --Depth;
    leave(E, Depth, Close, I);
    return true;
  }

  /// Reads the root element and everything inside it.
  bool parseElements(size_t &I) {
    bool Empty = false;
    if (!startTag(I, Empty))
      return false;
    while (Depth > 0) {
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
        return fail(beginOf(Stack[Depth - 1]),
                    "element <" + std::string(Stack[Depth - 1].Name) +
                        "> is never closed");
      if (!pollAt(I))
        return false;
      // Markup, told apart by the byte after its '<'.
      switch (I + 1 < N ? P[I + 1] : '\0') {
      case '/':
        if (!endTag(I))
          return false;
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
      default:
        if (!startTag(I, Empty))
          return false;
      }
    }
    return true;
  }

  /// Resolves the pending arcs in document order, against every node,
  /// and adds them to the net.
  bool resolveArcs() {
    ArcTable Seen(Pending.size());
    std::string Src, Dst;
    auto Ends = [&](size_t Begin) {
      attrOf(Begin, "source", Src);
      attrOf(Begin, "target", Dst);
    };
    for (size_t K = 0; K < Pending.size(); ++K) {
      if (K % PollArcs == 0 && Cancel.cancelled()) {
        Failure = Cancel.status("pnml", "while importing the net");
        return false;
      }
      auto [Begin, From, To] = Pending[K];
      if (K == Cut.Index && !Cut.AfterEndpoints)
        return fail(Cut.At, Cut.Msg);
      if (From == NoNode || To == NoNode) {
        Ends(Begin);
        From = Ids.find(Src);
        To = Ids.find(Dst);
        if (From == NoNode || To == NoNode)
          return fail(Begin, "arc " + arcName(Begin) +
                                 " references unknown node '" +
                                 (From == NoNode ? Src : Dst) + "'");
      }
      if (isPlace(From) == isPlace(To))
        return fail(Begin, "arc " + arcName(Begin) + " connects two " +
                               (isPlace(From) ? "places" : "transitions") +
                               " (arcs must join a place and a transition)");
      if (K == Cut.Index)
        return fail(Cut.At, Cut.Msg);
      if (!Seen.insert(From, To)) {
        Ends(Begin);
        return fail(Begin,
                    "duplicate arc from '" + Src + "' to '" + Dst + "'");
      }
      if (isPlace(From))
        Built.addArc(PlaceId(nodeIndex(From)), TransitionId(nodeIndex(To)));
      else
        Built.addArc(TransitionId(nodeIndex(From)), PlaceId(nodeIndex(To)));
    }
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Canonical writer
//===----------------------------------------------------------------------===//

/// Appends \p S with the five XML specials escaped, copying the runs
/// between them whole.
void appendEscaped(std::string &Out, std::string_view S) {
  size_t Run = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    const char *Ref;
    switch (S[I]) {
    case '<':
      Ref = "&lt;";
      break;
    case '>':
      Ref = "&gt;";
      break;
    case '&':
      Ref = "&amp;";
      break;
    case '"':
      Ref = "&quot;";
      break;
    case '\'':
      Ref = "&apos;";
      break;
    default:
      continue;
    }
    Out.append(S.data() + Run, I - Run).append(Ref);
    Run = I + 1;
  }
  Out.append(S.data() + Run, S.size() - Run);
}

void appendNumber(std::string &Out, uint64_t V) {
  char Buf[20];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

} // namespace

Expected<PnmlNet> sdsp::parsePnml(const std::string &Text,
                                  const CancelToken &Cancel,
                                  size_t MaxElements) {
  PnmlReader Reader(Text, Cancel, MaxElements);
  PnmlNet Out;
  if (!Reader.read(Out))
    return std::move(Reader.failure());
  return Out;
}

void sdsp::printPnml(const PetriNet &Net, std::ostream &OS,
                     const std::string &NetId) {
  OS << pnmlString(Net, NetId);
}

std::string sdsp::pnmlString(const PetriNet &Net, const std::string &NetId) {
  std::string Out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
                    "<pnml xmlns=\"http://www.pnml.org/version-2009/grammar/"
                    "pnml\">\n"
                    "  <net id=\"";
  appendEscaped(Out, NetId);
  Out += "\" type=\"http://www.pnml.org/version-2009/grammar/ptnet\">\n"
         "    <page id=\"page0\">\n";
  for (PlaceId P : Net.placeIds()) {
    const PetriNet::Place &Pl = Net.place(P);
    Out += "      <place id=\"p";
    appendNumber(Out, P.index());
    Out += "\">\n        <name><text>";
    appendEscaped(Out, Pl.Name);
    Out += "</text></name>\n";
    if (Pl.InitialTokens) {
      Out += "        <initialMarking><text>";
      appendNumber(Out, Pl.InitialTokens);
      Out += "</text></initialMarking>\n";
    }
    Out += "      </place>\n";
  }
  for (TransitionId T : Net.transitionIds()) {
    const PetriNet::Transition &Tr = Net.transition(T);
    Out += "      <transition id=\"t";
    appendNumber(Out, T.index());
    Out += "\">\n        <name><text>";
    appendEscaped(Out, Tr.Name);
    Out += "</text></name>\n";
    if (Tr.ExecTime != 1) {
      Out += "        <toolspecific tool=\"sdsp\" version=\"1\">\n"
             "          <execTime><text>";
      appendNumber(Out, Tr.ExecTime);
      Out += "</text></execTime>\n"
             "        </toolspecific>\n";
    }
    Out += "      </transition>\n";
  }
  // Arc order is transition-major (inputs, then outputs), which is
  // exactly the order an import re-adds them in — the adjacency
  // interleaving, and with it the content hash, survives a round trip.
  size_t Arc = 0;
  auto AddArc = [&](char From, size_t Src, char To, size_t Dst) {
    Out += "      <arc id=\"a";
    appendNumber(Out, Arc++);
    (Out += "\" source=\"") += From;
    appendNumber(Out, Src);
    (Out += "\" target=\"") += To;
    appendNumber(Out, Dst);
    Out += "\"/>\n";
  };
  for (TransitionId T : Net.transitionIds()) {
    const PetriNet::Transition &Tr = Net.transition(T);
    for (PlaceId P : Tr.InputPlaces)
      AddArc('p', P.index(), 't', T.index());
    for (PlaceId P : Tr.OutputPlaces)
      AddArc('t', T.index(), 'p', P.index());
  }
  Out += "    </page>\n"
         "  </net>\n"
         "</pnml>\n";
  return Out;
}

bool sdsp::samePnmlExport(const PetriNet &A, const std::string &IdA,
                          const PetriNet &B, const std::string &IdB) {
  if (IdA != IdB || A.numPlaces() != B.numPlaces() ||
      A.numTransitions() != B.numTransitions())
    return false;
  for (PlaceId P : A.placeIds()) {
    const PetriNet::Place &X = A.place(P), &Y = B.place(P);
    if (X.Name != Y.Name || X.InitialTokens != Y.InitialTokens)
      return false;
  }
  for (TransitionId T : A.transitionIds()) {
    const PetriNet::Transition &X = A.transition(T), &Y = B.transition(T);
    if (X.Name != Y.Name || X.ExecTime != Y.ExecTime ||
        !std::ranges::equal(X.InputPlaces, Y.InputPlaces) ||
        !std::ranges::equal(X.OutputPlaces, Y.OutputPlaces))
      return false;
  }
  return true;
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
