#include "proto/codec.h"

#include "common/bytes.h"

namespace rrmp::proto {
namespace {

// Every frame layout is written once, by the put_* helpers and encode_body
// below, templated on the writer: encode() runs them against a ByteWriter,
// encoded_size() against a SizeCounter that only counts the bytes, so the
// two can never disagree.
class SizeCounter {
 public:
  void put_u8(std::uint8_t) { n_ += 1; }
  void put_u32(std::uint32_t) { n_ += 4; }
  void put_u64(std::uint64_t) { n_ += 8; }
  void put_varint(std::uint64_t v) {
    do {
      ++n_;
      v >>= 7;
    } while (v != 0);
  }
  void put_bytes(std::span<const std::uint8_t> data) {
    put_varint(data.size());
    n_ += data.size();
  }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

template <typename W>
void put_message_id(W& w, const MessageId& id) {
  w.put_u32(id.source);
  w.put_u64(id.seq);
}

MessageId get_message_id(ByteReader& r) {
  MessageId id;
  id.source = r.get_u32();
  id.seq = r.get_u64();
  return id;
}

// Piggybacked receive cursors ride as an *optional trailing* block on
// top-level Data and Session frames: nothing is written when the vector is
// empty, so the empty case is byte-identical to the pre-piggyback layout
// and old golden vectors still decode. The decoder reads the block only
// when bytes remain after the core fields. An explicit empty block (count
// 0) is never emitted and is rejected on decode.
template <typename W>
void put_cursor_block(W& w, const std::vector<ReceiveCursor>& cs) {
  if (cs.empty()) return;
  w.put_varint(cs.size());
  for (const ReceiveCursor& c : cs) {
    w.put_u32(c.source);
    w.put_varint(c.cursor);
  }
}

bool get_cursor_block(ByteReader& r, std::vector<ReceiveCursor>& cs) {
  if (r.done()) return r.ok();  // trailing block absent: legacy layout
  std::uint64_t n = r.get_varint();
  if (!r.ok() || n == 0 || n > kMaxRepeated) return false;
  cs.resize(n);
  for (ReceiveCursor& c : cs) {
    c.source = r.get_u32();
    c.cursor = r.get_varint();
  }
  return r.ok();
}

// Fault-injection connectivity generation, an *optional trailing* varint on
// CreditAck and BufferDigest: nothing is written when the generation is 0
// (no partition ever happened), so fault-free traffic keeps the legacy byte
// layout and old golden vectors still decode. The decoder reads it only
// when bytes remain after the core fields; an explicit 0 is never emitted
// and is rejected on decode.
template <typename W>
void put_view_gen(W& w, std::uint64_t gen) {
  if (gen != 0) w.put_varint(gen);
}

bool get_view_gen(ByteReader& r, std::uint64_t& gen) {
  if (r.done()) return r.ok();  // trailing field absent: legacy layout
  gen = r.get_varint();
  return r.ok() && gen != 0;
}

// Core (cursor-free) Data layout, shared with the nested encodings inside
// Handoff and Shed: nested Data has no length prefix, so the optional
// trailing cursor block exists only at the top level.
template <typename W>
void encode_data_core(W& w, const Data& m) {
  put_message_id(w, m.id);
  w.put_bytes(m.payload);
}
template <typename W>
void encode_body(W& w, const Data& m) {
  encode_data_core(w, m);
  put_cursor_block(w, m.cursors);
}
template <typename W>
void encode_body(W& w, const Session& m) {
  w.put_u32(m.source);
  w.put_u64(m.highest_seq);
  put_cursor_block(w, m.cursors);
}
template <typename W>
void encode_body(W& w, const LocalRequest& m) {
  put_message_id(w, m.id);
  w.put_u32(m.requester);
}
template <typename W>
void encode_body(W& w, const RemoteRequest& m) {
  put_message_id(w, m.id);
  w.put_u32(m.requester);
}
template <typename W>
void encode_body(W& w, const Repair& m) {
  put_message_id(w, m.id);
  w.put_bytes(m.payload);
  w.put_u8(m.remote ? 1 : 0);
}
template <typename W>
void encode_body(W& w, const RegionalRepair& m) {
  put_message_id(w, m.id);
  w.put_bytes(m.payload);
  w.put_u32(m.relayer);
}
template <typename W>
void encode_body(W& w, const SearchRequest& m) {
  put_message_id(w, m.id);
  w.put_u32(m.remote_requester);
}
template <typename W>
void encode_body(W& w, const SearchFound& m) {
  put_message_id(w, m.id);
  w.put_u32(m.holder);
}
template <typename W>
void encode_body(W& w, const Handoff& m) {
  w.put_varint(m.messages.size());
  for (const Data& d : m.messages) encode_data_core(w, d);
}
template <typename W>
void encode_body(W& w, const History& m) {
  w.put_u32(m.member);
  w.put_varint(m.sources.size());
  for (const SourceHistory& s : m.sources) {
    w.put_u32(s.source);
    w.put_u64(s.next_expected);
    w.put_varint(s.bitmap.size());
    for (std::uint64_t word : s.bitmap) w.put_u64(word);
  }
}
template <typename W>
void encode_body(W& w, const BufferDigest& m) {
  w.put_u32(m.member);
  w.put_u64(m.bytes_in_use);
  w.put_varint(m.window_outstanding);
  w.put_varint(m.ranges.size());
  for (const DigestRange& r : m.ranges) {
    w.put_u32(r.source);
    w.put_u64(r.first_seq);
    w.put_varint(r.count);
  }
  put_view_gen(w, m.view_gen);
}
template <typename W>
void encode_body(W& w, const Shed& m) {
  w.put_u32(m.from);
  encode_data_core(w, m.message);
}
template <typename W>
void encode_body(W& w, const Escalate& m) {
  put_message_id(w, m.id);
  w.put_u32(m.requester);
  w.put_varint(m.hop);
}
template <typename W>
void encode_body(W& w, const CreditAck& m) {
  w.put_u32(m.member);
  w.put_u64(m.bytes_in_use);
  w.put_u64(m.budget_bytes);
  w.put_varint(m.cursors.size());
  for (const ReceiveCursor& c : m.cursors) {
    w.put_u32(c.source);
    w.put_varint(c.cursor);
  }
  put_view_gen(w, m.view_gen);
}

bool decode_data_core(ByteReader& r, Data& m) {
  m.id = get_message_id(r);
  m.payload = r.get_shared_bytes();
  return r.ok();
}
bool decode_body(ByteReader& r, Data& m) {
  if (!decode_data_core(r, m)) return false;
  return get_cursor_block(r, m.cursors);
}
bool decode_body(ByteReader& r, Session& m) {
  m.source = r.get_u32();
  m.highest_seq = r.get_u64();
  if (!r.ok()) return false;
  return get_cursor_block(r, m.cursors);
}
bool decode_body(ByteReader& r, LocalRequest& m) {
  m.id = get_message_id(r);
  m.requester = r.get_u32();
  return r.ok();
}
bool decode_body(ByteReader& r, RemoteRequest& m) {
  m.id = get_message_id(r);
  m.requester = r.get_u32();
  return r.ok();
}
bool decode_body(ByteReader& r, Repair& m) {
  m.id = get_message_id(r);
  m.payload = r.get_shared_bytes();
  m.remote = r.get_u8() != 0;
  return r.ok();
}
bool decode_body(ByteReader& r, RegionalRepair& m) {
  m.id = get_message_id(r);
  m.payload = r.get_shared_bytes();
  m.relayer = r.get_u32();
  return r.ok();
}
bool decode_body(ByteReader& r, SearchRequest& m) {
  m.id = get_message_id(r);
  m.remote_requester = r.get_u32();
  return r.ok();
}
bool decode_body(ByteReader& r, SearchFound& m) {
  m.id = get_message_id(r);
  m.holder = r.get_u32();
  return r.ok();
}
bool decode_body(ByteReader& r, Handoff& m) {
  std::uint64_t n = r.get_varint();
  if (!r.ok() || n > kMaxRepeated) return false;
  m.messages.resize(n);
  for (Data& d : m.messages) {
    if (!decode_data_core(r, d)) return false;
  }
  return r.ok();
}
bool decode_body(ByteReader& r, History& m) {
  m.member = r.get_u32();
  std::uint64_t n = r.get_varint();
  if (!r.ok() || n > kMaxRepeated) return false;
  m.sources.resize(n);
  for (SourceHistory& s : m.sources) {
    s.source = r.get_u32();
    s.next_expected = r.get_u64();
    std::uint64_t words = r.get_varint();
    if (!r.ok() || words > kMaxRepeated) return false;
    s.bitmap.resize(words);
    for (std::uint64_t& word : s.bitmap) word = r.get_u64();
  }
  return r.ok();
}
bool decode_body(ByteReader& r, BufferDigest& m) {
  m.member = r.get_u32();
  m.bytes_in_use = r.get_u64();
  m.window_outstanding = r.get_varint();
  std::uint64_t n = r.get_varint();
  if (!r.ok() || n > kMaxRepeated) return false;
  std::vector<DigestRange> ranges(n);
  for (DigestRange& dr : ranges) {
    dr.source = r.get_u32();
    dr.first_seq = r.get_u64();
    dr.count = r.get_varint();
    // An empty run advertises nothing; a well-formed digest never emits one.
    if (!r.ok() || dr.count == 0) return false;
  }
  m.ranges = std::move(ranges);
  return get_view_gen(r, m.view_gen);
}
bool decode_body(ByteReader& r, Shed& m) {
  m.from = r.get_u32();
  return decode_data_core(r, m.message);
}
bool decode_body(ByteReader& r, Escalate& m) {
  m.id = get_message_id(r);
  m.requester = r.get_u32();
  m.hop = static_cast<std::uint32_t>(r.get_varint());
  return r.ok();
}
bool decode_body(ByteReader& r, CreditAck& m) {
  m.member = r.get_u32();
  m.bytes_in_use = r.get_u64();
  m.budget_bytes = r.get_u64();
  std::uint64_t n = r.get_varint();
  if (!r.ok() || n > kMaxRepeated) return false;
  m.cursors.resize(n);
  for (ReceiveCursor& c : m.cursors) {
    c.source = r.get_u32();
    c.cursor = r.get_varint();
  }
  return get_view_gen(r, m.view_gen);
}

template <typename T>
std::optional<Message> decode_as(ByteReader& r) {
  T m;
  if (!decode_body(r, m) || !r.done()) return std::nullopt;
  return Message{std::move(m)};
}

std::optional<Message> decode_from(ByteReader& r) {
  auto tag = static_cast<MessageType>(r.get_u8());
  if (!r.ok()) return std::nullopt;
  switch (tag) {
    case MessageType::kData: return decode_as<Data>(r);
    case MessageType::kSession: return decode_as<Session>(r);
    case MessageType::kLocalRequest: return decode_as<LocalRequest>(r);
    case MessageType::kRemoteRequest: return decode_as<RemoteRequest>(r);
    case MessageType::kRepair: return decode_as<Repair>(r);
    case MessageType::kRegionalRepair: return decode_as<RegionalRepair>(r);
    case MessageType::kSearchRequest: return decode_as<SearchRequest>(r);
    case MessageType::kSearchFound: return decode_as<SearchFound>(r);
    case MessageType::kHandoff: return decode_as<Handoff>(r);
    case MessageType::kHistory: return decode_as<History>(r);
    case MessageType::kBufferDigest: return decode_as<BufferDigest>(r);
    case MessageType::kShed: return decode_as<Shed>(r);
    case MessageType::kCreditAck: return decode_as<CreditAck>(r);
    case MessageType::kEscalate: return decode_as<Escalate>(r);
  }
  return std::nullopt;
}

}  // namespace

MessageType type_of(const Message& m) {
  return std::visit(
      [](const auto& v) -> MessageType {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, Data>) return MessageType::kData;
        if constexpr (std::is_same_v<T, Session>) return MessageType::kSession;
        if constexpr (std::is_same_v<T, LocalRequest>)
          return MessageType::kLocalRequest;
        if constexpr (std::is_same_v<T, RemoteRequest>)
          return MessageType::kRemoteRequest;
        if constexpr (std::is_same_v<T, Repair>) return MessageType::kRepair;
        if constexpr (std::is_same_v<T, RegionalRepair>)
          return MessageType::kRegionalRepair;
        if constexpr (std::is_same_v<T, SearchRequest>)
          return MessageType::kSearchRequest;
        if constexpr (std::is_same_v<T, SearchFound>)
          return MessageType::kSearchFound;
        if constexpr (std::is_same_v<T, Handoff>) return MessageType::kHandoff;
        if constexpr (std::is_same_v<T, History>) return MessageType::kHistory;
        if constexpr (std::is_same_v<T, BufferDigest>)
          return MessageType::kBufferDigest;
        if constexpr (std::is_same_v<T, Shed>) return MessageType::kShed;
        if constexpr (std::is_same_v<T, CreditAck>)
          return MessageType::kCreditAck;
        if constexpr (std::is_same_v<T, Escalate>)
          return MessageType::kEscalate;
      },
      m);
}

const char* type_name(MessageType t) {
  switch (t) {
    case MessageType::kData: return "DATA";
    case MessageType::kSession: return "SESSION";
    case MessageType::kLocalRequest: return "LOCAL_REQ";
    case MessageType::kRemoteRequest: return "REMOTE_REQ";
    case MessageType::kRepair: return "REPAIR";
    case MessageType::kRegionalRepair: return "REGIONAL_REPAIR";
    case MessageType::kSearchRequest: return "SEARCH_REQ";
    case MessageType::kSearchFound: return "SEARCH_FOUND";
    case MessageType::kHandoff: return "HANDOFF";
    case MessageType::kHistory: return "HISTORY";
    case MessageType::kBufferDigest: return "BUFFER_DIGEST";
    case MessageType::kShed: return "SHED";
    case MessageType::kCreditAck: return "CREDIT_ACK";
    case MessageType::kEscalate: return "ESCALATE";
  }
  return "UNKNOWN";
}

std::vector<std::uint8_t> encode(const Message& m) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(type_of(m)));
  std::visit([&w](const auto& v) { encode_body(w, v); }, m);
  return w.take();
}

std::optional<Message> decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  return decode_from(r);
}

SharedBytes encode_shared(const Message& m) { return SharedBytes(encode(m)); }

std::optional<Message> decode_shared(const SharedBytes& wire) {
  ByteReader r(wire);
  return decode_from(r);
}

std::optional<MessageId> peek_data_id(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  if (r.get_u8() != static_cast<std::uint8_t>(MessageType::kData)) {
    return std::nullopt;
  }
  MessageId id = get_message_id(r);
  if (!r.ok()) return std::nullopt;
  return id;
}

std::size_t encoded_size(const Message& m) {
  SizeCounter c;
  std::visit([&c](const auto& v) { encode_body(c, v); }, m);
  return 1 + c.size();  // + the type tag
}

std::size_t encoded_size(const Data& d) {
  SizeCounter c;
  encode_body(c, d);
  return 1 + c.size();
}

}  // namespace rrmp::proto
