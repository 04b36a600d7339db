// Unit tests: wire codec — round-trips for every message type, malformed
// input rejection, truncation fuzzing.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/random.h"
#include "proto/codec.h"

namespace rrmp::proto {
namespace {

template <typename T>
T round_trip(const T& msg) {
  auto bytes = encode(Message{msg});
  auto decoded = decode(bytes);
  EXPECT_TRUE(decoded.has_value());
  const T* out = std::get_if<T>(&*decoded);
  EXPECT_NE(out, nullptr);
  return *out;
}

TEST(CodecTest, DataRoundTrip) {
  Data d{MessageId{3, 99}, {1, 2, 3, 4, 5}};
  EXPECT_EQ(round_trip(d), d);
}

TEST(CodecTest, DataEmptyPayloadRoundTrip) {
  Data d{MessageId{0, 1}, {}};
  EXPECT_EQ(round_trip(d), d);
}

TEST(CodecTest, DataLargePayloadRoundTrip) {
  Data d{MessageId{1, 2}, std::vector<std::uint8_t>(70000, 0xCD)};
  EXPECT_EQ(round_trip(d), d);
}

TEST(CodecTest, SessionRoundTrip) {
  Session s{42, 0xFFFFFFFFFFULL};
  EXPECT_EQ(round_trip(s), s);
}

TEST(CodecTest, LocalRequestRoundTrip) {
  LocalRequest r{MessageId{7, 8}, 55};
  EXPECT_EQ(round_trip(r), r);
}

TEST(CodecTest, RemoteRequestRoundTrip) {
  RemoteRequest r{MessageId{1, 1000000}, 9};
  EXPECT_EQ(round_trip(r), r);
}

TEST(CodecTest, RepairRoundTripBothFlags) {
  Repair r1{MessageId{2, 3}, {9, 8, 7}, true};
  EXPECT_EQ(round_trip(r1), r1);
  Repair r2{MessageId{2, 3}, {9, 8, 7}, false};
  EXPECT_EQ(round_trip(r2), r2);
}

TEST(CodecTest, RegionalRepairRoundTrip) {
  RegionalRepair r{MessageId{5, 6}, {0xFF}, 77};
  EXPECT_EQ(round_trip(r), r);
}

TEST(CodecTest, SearchRequestRoundTrip) {
  SearchRequest r{MessageId{9, 10}, 123};
  EXPECT_EQ(round_trip(r), r);
}

TEST(CodecTest, SearchFoundRoundTrip) {
  SearchFound f{MessageId{11, 12}, 456};
  EXPECT_EQ(round_trip(f), f);
}

TEST(CodecTest, HandoffRoundTrip) {
  Handoff h;
  h.messages.push_back(Data{MessageId{1, 1}, {1}});
  h.messages.push_back(Data{MessageId{1, 2}, {2, 2}});
  h.messages.push_back(Data{MessageId{2, 1}, {}});
  EXPECT_EQ(round_trip(h), h);
}

TEST(CodecTest, EmptyHandoffRoundTrip) {
  Handoff h;
  EXPECT_EQ(round_trip(h), h);
}

TEST(CodecTest, HistoryRoundTrip) {
  History h;
  h.member = 13;
  SourceHistory s1{1, 500, {0xDEADBEEFULL, 0x1ULL}};
  SourceHistory s2{2, 1, {}};
  h.sources = {s1, s2};
  EXPECT_EQ(round_trip(h), h);
}

TEST(CodecTest, BufferDigestRoundTrip) {
  BufferDigest d;
  d.member = 17;
  d.bytes_in_use = 123456789;
  d.window_outstanding = 31;
  d.ranges = {{1, 5, 3}, {1, 100, 1}, {2, 1, 40}};
  EXPECT_EQ(round_trip(d), d);
}

TEST(CodecTest, EmptyBufferDigestRoundTrip) {
  // A member advertising an empty buffer (it is the ideal shed target).
  BufferDigest d{9, 0, 0, {}};
  EXPECT_EQ(round_trip(d), d);
}

TEST(CodecTest, ShedRoundTrip) {
  Shed s{4, Data{MessageId{2, 77}, {1, 2, 3, 4}}};
  EXPECT_EQ(round_trip(s), s);
}

TEST(CodecTest, CreditAckRoundTrip) {
  CreditAck a{7, 4096, 65536, {{2, 10}, {3, 0}, {9, 1ULL << 40}}};
  EXPECT_EQ(round_trip(a), a);
}

TEST(CodecTest, EmptyCreditAckRoundTrip) {
  CreditAck a{1, 0, 0, {}};
  EXPECT_EQ(round_trip(a), a);
}

TEST(CodecTest, EscalateRoundTrip) {
  Escalate e{MessageId{4, 1ULL << 20}, 77, 3};
  EXPECT_EQ(round_trip(e), e);
  Escalate zero_hop{MessageId{0, 1}, 2, 0};
  EXPECT_EQ(round_trip(zero_hop), zero_hop);
}

TEST(CodecTest, EscalateEncodedSizeIsExact) {
  Escalate e{MessageId{12, 999}, 5, 16};
  EXPECT_EQ(encoded_size(Message{e}), encode(Message{e}).size());
}

TEST(CodecTest, ViewGenerationRoundTrips) {
  // The fault-injection connectivity generation rides both coordination
  // frames as an optional trailing varint (absent when 0).
  BufferDigest d{17, 4096, 3, {{1, 5, 2}}};
  d.view_gen = 7;
  EXPECT_EQ(round_trip(d), d);
  d.view_gen = 1ULL << 40;  // multi-byte varint
  EXPECT_EQ(round_trip(d), d);

  CreditAck a{7, 4096, 65536, {{2, 10}, {3, 0}}};
  a.view_gen = 2;
  EXPECT_EQ(round_trip(a), a);
  a.cursors.clear();  // trailing field after an empty repeated block
  EXPECT_EQ(round_trip(a), a);
}

TEST(CodecTest, ViewGenerationSizesAreExact) {
  BufferDigest d{17, 4096, 3, {{1, 5, 2}}};
  CreditAck a{7, 4096, 65536, {{2, 10}}};
  std::size_t digest_base = encoded_size(Message{d});
  std::size_t ack_base = encoded_size(Message{a});
  d.view_gen = 300;  // 2-byte varint
  a.view_gen = 300;
  EXPECT_EQ(encoded_size(Message{d}), encode(Message{d}).size());
  EXPECT_EQ(encoded_size(Message{a}), encode(Message{a}).size());
  EXPECT_EQ(encoded_size(Message{d}), digest_base + 2);
  EXPECT_EQ(encoded_size(Message{a}), ack_base + 2);
}

TEST(CodecTest, TypeTagsAreStable) {
  // Wire compatibility: these values must never change.
  EXPECT_EQ(static_cast<int>(type_of(Message{Data{}})), 1);
  EXPECT_EQ(static_cast<int>(type_of(Message{Session{}})), 2);
  EXPECT_EQ(static_cast<int>(type_of(Message{LocalRequest{}})), 3);
  EXPECT_EQ(static_cast<int>(type_of(Message{RemoteRequest{}})), 4);
  EXPECT_EQ(static_cast<int>(type_of(Message{Repair{}})), 5);
  EXPECT_EQ(static_cast<int>(type_of(Message{RegionalRepair{}})), 6);
  EXPECT_EQ(static_cast<int>(type_of(Message{SearchRequest{}})), 7);
  EXPECT_EQ(static_cast<int>(type_of(Message{SearchFound{}})), 8);
  EXPECT_EQ(static_cast<int>(type_of(Message{Handoff{}})), 9);
  // 10 is reserved (the retired gossip heartbeat frame).
  EXPECT_EQ(static_cast<int>(type_of(Message{History{}})), 11);
  EXPECT_EQ(static_cast<int>(type_of(Message{BufferDigest{}})), 12);
  EXPECT_EQ(static_cast<int>(type_of(Message{Shed{}})), 13);
  EXPECT_EQ(static_cast<int>(type_of(Message{CreditAck{}})), 14);
  EXPECT_EQ(static_cast<int>(type_of(Message{Escalate{}})), 15);
}

TEST(CodecTest, TypeNamesAreDistinct) {
  // Every live tag (1-9 and 11-15) has its own name; reserved 10 has none.
  std::set<std::string> names;
  for (int t = 1; t <= 15; ++t) {
    if (t == 10) continue;
    std::string name = type_name(static_cast<MessageType>(t));
    EXPECT_NE(name, "UNKNOWN") << "tag " << t;
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 14u);
  EXPECT_STREQ(type_name(static_cast<MessageType>(10)), "UNKNOWN");
}

TEST(CodecTest, EncodedSizeMatchesEncoding) {
  Message m{Data{MessageId{1, 2}, std::vector<std::uint8_t>(300, 7)}};
  EXPECT_EQ(encoded_size(m), encode(m).size());
}

TEST(CodecTest, EncodedSizeMatchesEncodingForEveryType) {
  // encoded_size is computed arithmetically (no buffer materialized); it
  // must agree with the real encoder byte for byte, including varint-width
  // boundaries in blob lengths and repeated-field counts.
  std::vector<Message> msgs = {
      Message{Data{MessageId{1, 2}, std::vector<std::uint8_t>(127, 1)}},
      Message{Data{MessageId{1, 2}, std::vector<std::uint8_t>(128, 1)}},
      Message{Session{7, 1ULL << 40}},
      Message{LocalRequest{MessageId{3, 4}, 9}},
      Message{RemoteRequest{MessageId{3, 4}, 9}},
      Message{Repair{MessageId{5, 6}, {1, 2, 3}, true}},
      Message{RegionalRepair{MessageId{5, 6}, {}, 2}},
      Message{SearchRequest{MessageId{7, 8}, 1}},
      Message{SearchFound{MessageId{7, 8}, 1}},
      Message{Handoff{{Data{MessageId{1, 1}, {1}},
                       Data{MessageId{1, 2}, std::vector<std::uint8_t>(200, 2)}}}},
      Message{History{1, {SourceHistory{2, 10, {0xFF, 0x00}}}}},
      Message{BufferDigest{3, 1ULL << 33, 129, {{1, 5, 127}, {2, 1, 128}}}},
      Message{Shed{4, Data{MessageId{1, 2}, std::vector<std::uint8_t>(128, 9)}}},
      Message{CreditAck{5, 1ULL << 20, 1ULL << 21, {{1, 127}, {2, 128}}}},
  };
  for (const Message& m : msgs) {
    EXPECT_EQ(encoded_size(m), encode(m).size()) << type_name(m);
  }
}

TEST(CodecTest, DecodeSharedAliasesPayloadBlobs) {
  // Zero-copy decode: payload fields borrow the wire buffer instead of
  // copying, for both top-level and Handoff-nested Data.
  Data d{MessageId{3, 99}, {10, 20, 30}};
  SharedBytes wire = encode_shared(Message{d});
  auto decoded = decode_shared(wire);
  ASSERT_TRUE(decoded.has_value());
  const Data& out = std::get<Data>(*decoded);
  EXPECT_EQ(out, d);
  EXPECT_TRUE(out.payload.shares_owner_with(wire));

  SharedBytes rep_wire =
      encode_shared(Message{Repair{MessageId{1, 2}, {7, 8}, true}});
  auto rep = decode_shared(rep_wire);
  ASSERT_TRUE(rep.has_value());
  EXPECT_TRUE(std::get<Repair>(*rep).payload.shares_owner_with(rep_wire));

  SharedBytes ho_wire = encode_shared(
      Message{Handoff{{Data{MessageId{1, 1}, {1, 2}},
                       Data{MessageId{1, 2}, {3, 4}}}}});
  auto ho = decode_shared(ho_wire);
  ASSERT_TRUE(ho.has_value());
  for (const Data& nested : std::get<Handoff>(*ho).messages) {
    EXPECT_TRUE(nested.payload.shares_owner_with(ho_wire));
  }
}

TEST(CodecTest, DecodeSharedRejectsLikeDecode) {
  // Same accept/reject behaviour as decode(span) on malformed input.
  EXPECT_FALSE(decode_shared(SharedBytes()).has_value());
  EXPECT_FALSE(decode_shared(SharedBytes({0xEE, 1, 2})).has_value());
  SharedBytes truncated({static_cast<std::uint8_t>(MessageType::kData), 1});
  EXPECT_FALSE(decode_shared(truncated).has_value());
}

// --------------------------------------------------------- malformed input ----

TEST(CodecFuzzTest, EmptyInputRejected) {
  EXPECT_FALSE(decode({}).has_value());
}

TEST(CodecFuzzTest, UnknownTagRejected) {
  std::vector<std::uint8_t> bytes = {0xEE, 1, 2, 3};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecFuzzTest, TrailingGarbageRejected) {
  auto bytes = encode(Message{Session{1, 2}});
  bytes.push_back(0x00);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecFuzzTest, EveryTruncationOfEveryTypeRejected) {
  std::vector<Message> msgs = {
      Message{Data{MessageId{3, 4}, {1, 2, 3}}},
      Message{Session{1, 99}},
      Message{LocalRequest{MessageId{1, 2}, 3}},
      Message{RemoteRequest{MessageId{1, 2}, 3}},
      Message{Repair{MessageId{1, 2}, {4, 5}, true}},
      Message{RegionalRepair{MessageId{1, 2}, {4}, 6}},
      Message{SearchRequest{MessageId{1, 2}, 3}},
      Message{SearchFound{MessageId{1, 2}, 3}},
      Message{Handoff{{Data{MessageId{1, 1}, {1}}}}},
      Message{History{1, {SourceHistory{1, 2, {0xFF}}}}},
      Message{BufferDigest{1, 64, 2, {DigestRange{1, 2, 3}}}},
      Message{Shed{1, Data{MessageId{1, 1}, {7, 8}}}},
      Message{CreditAck{1, 64, 128, {{2, 3}}}},
  };
  for (const Message& m : msgs) {
    auto bytes = encode(m);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      std::span<const std::uint8_t> prefix(bytes.data(), cut);
      auto decoded = decode(prefix);
      EXPECT_FALSE(decoded.has_value())
          << type_name(m) << " accepted truncation at " << cut;
    }
  }
}

TEST(CodecFuzzTest, RandomBytesNeverCrash) {
  RandomEngine rng(0xFACE);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
    (void)decode(bytes);  // must not crash or overread (ASAN-clean)
  }
}

TEST(CodecFuzzTest, RandomMutationOfValidMessageNeverCrashes) {
  RandomEngine rng(0xBEEF);
  auto base = encode(Message{Handoff{{Data{MessageId{1, 1}, {1, 2, 3, 4}}}}});
  for (int trial = 0; trial < 5000; ++trial) {
    auto bytes = base;
    std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<std::uint8_t>(rng.next_u32());
    auto decoded = decode(bytes);
    if (decoded) {
      // If it decodes, re-encoding must be well-formed too.
      (void)encode(*decoded);
    }
  }
}

TEST(CodecFuzzTest, HostileRepeatedFieldCountRejectedWithoutAllocation) {
  // Hand-craft a Handoff claiming 2^40 messages.
  std::vector<std::uint8_t> bytes;
  bytes.push_back(9);  // kHandoff
  std::uint64_t v = 1ULL << 40;
  while (v >= 0x80) {
    bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes.push_back(static_cast<std::uint8_t>(v));
  EXPECT_FALSE(decode(bytes).has_value());
}

// ------------------------------------------- hand-crafted hostile frames ----
//
// These build malformed frames byte-by-byte (wire layout: 1-byte tag,
// little-endian fixed-width ints, varint length prefixes) and must fail to
// decode without crashing, allocating per the claimed length, or reading
// past the buffer. Run them under the `asan` preset to get the over-read
// guarantee checked, not just asserted.

void append_varint(std::vector<std::uint8_t>& bytes, std::uint64_t v) {
  while (v >= 0x80) {
    bytes.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes.push_back(static_cast<std::uint8_t>(v));
}

void append_u32(std::vector<std::uint8_t>& bytes, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& bytes, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_message_id(std::vector<std::uint8_t>& bytes, std::uint32_t source,
                       std::uint64_t seq) {
  append_u32(bytes, source);
  append_u64(bytes, seq);
}

TEST(CodecNegativeTest, EveryGarbageTypeByteRejected) {
  for (int tag = 0; tag <= 255; ++tag) {
    if (tag >= 1 && tag <= 14) continue;  // valid wire tags
    std::vector<std::uint8_t> lone = {static_cast<std::uint8_t>(tag)};
    EXPECT_FALSE(decode(lone).has_value()) << "bare tag " << tag;
    std::vector<std::uint8_t> padded(17, 0x00);
    padded[0] = static_cast<std::uint8_t>(tag);
    EXPECT_FALSE(decode(padded).has_value()) << "padded tag " << tag;
  }
}

TEST(CodecNegativeTest, EveryValidTagWithEmptyBodyRejected) {
  // Every message type has a non-empty body, so a bare valid tag is always
  // a truncated frame.
  for (int tag = 1; tag <= 14; ++tag) {
    std::vector<std::uint8_t> bytes = {static_cast<std::uint8_t>(tag)};
    EXPECT_FALSE(decode(bytes).has_value()) << "tag " << tag;
  }
}

TEST(CodecNegativeTest, PayloadLengthBeyondRemainingBytesRejected) {
  // A Data frame whose payload length prefix claims more bytes than the
  // frame holds.
  std::vector<std::uint8_t> bytes = {1};  // kData
  append_message_id(bytes, 7, 42);
  append_varint(bytes, 1000);
  bytes.push_back(0xAA);  // only 1 of the claimed 1000 payload bytes
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecNegativeTest, HostilePayloadLengthRejectedForEveryBlobType) {
  // 2^40 claimed payload bytes on each blob-carrying frame: decode must
  // reject on the bounds check, never allocate the claimed size.
  for (std::uint8_t tag : {std::uint8_t{1}, std::uint8_t{5}, std::uint8_t{6}}) {
    // kData / kRepair / kRegionalRepair all start with id + payload.
    std::vector<std::uint8_t> bytes = {tag};
    append_message_id(bytes, 1, 2);
    append_varint(bytes, 1ULL << 40);
    EXPECT_FALSE(decode(bytes).has_value()) << "tag " << int(tag);
  }
}

TEST(CodecNegativeTest, TruncatedVarintLengthPrefixRejected) {
  // The payload length varint ends mid-value (continuation bit set on the
  // final byte of the frame).
  std::vector<std::uint8_t> bytes = {1};  // kData
  append_message_id(bytes, 3, 4);
  bytes.push_back(0xFF);  // continuation bit set, then nothing
  EXPECT_FALSE(decode(bytes).has_value());

  // Same for a varint that never terminates within the 10-byte u64 limit.
  std::vector<std::uint8_t> runaway = {1};
  append_message_id(runaway, 3, 4);
  for (int i = 0; i < 12; ++i) runaway.push_back(0x80);
  runaway.push_back(0x01);
  EXPECT_FALSE(decode(runaway).has_value());
}

TEST(CodecNegativeTest, ReservedTagTenRejected) {
  // Tag 10 carried the retired gossip heartbeat frame: no body decodes under
  // it, neither the old well-formed layout nor a hostile count.
  std::vector<std::uint8_t> bare = {10};
  EXPECT_FALSE(decode(bare).has_value());
  std::vector<std::uint8_t> old_frame = {10};
  append_u32(old_frame, 5);          // from
  append_varint(old_frame, 1);       // one heartbeat
  append_u32(old_frame, 2);          // member
  append_u64(old_frame, 3);          // counter
  EXPECT_FALSE(decode(old_frame).has_value());
  EXPECT_FALSE(decode_shared(SharedBytes(old_frame)).has_value());
  std::vector<std::uint8_t> hostile = {10};
  append_u32(hostile, 5);
  append_varint(hostile, 1ULL << 41);  // beats count
  EXPECT_FALSE(decode(hostile).has_value());
}

TEST(CodecNegativeTest, HostileHistoryBitmapLengthRejected) {
  std::vector<std::uint8_t> bytes = {11};  // kHistory
  append_u32(bytes, 9);                    // member
  append_varint(bytes, 1);                 // one SourceHistory
  append_u32(bytes, 1);                    // source
  append_u64(bytes, 100);                  // next_expected
  append_varint(bytes, 1ULL << 50);        // bitmap word count
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecNegativeTest, RepeatedCountJustAboveCapRejected) {
  // kMaxRepeated itself is the cap; one above must be rejected even though
  // the varint is well-formed.
  std::vector<std::uint8_t> bytes = {9};  // kHandoff
  append_varint(bytes, kMaxRepeated + 1);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecNegativeTest, NestedHandoffPayloadTruncationRejected) {
  // A Handoff whose second nested Data frame is cut off mid-payload.
  std::vector<std::uint8_t> bytes = {9};  // kHandoff
  append_varint(bytes, 2);
  append_message_id(bytes, 1, 1);
  append_varint(bytes, 1);
  bytes.push_back(0x42);          // first Data, complete
  append_message_id(bytes, 1, 2);
  append_varint(bytes, 5);
  bytes.push_back(0x43);          // second Data claims 5 bytes, has 1
  EXPECT_FALSE(decode(bytes).has_value());
}

// -------------------- coordination frames: golden vectors + hostile input ----
//
// Byte-exact encode vectors pin the BufferDigest/Shed wire layout (tag,
// little-endian fixed ints, varint counts) the way the Data/Repair corpus
// pins the original frames: any codec change that moves a byte fails here,
// not in an interop incident.

TEST(CodecGoldenTest, BufferDigestEncodesByteExact) {
  BufferDigest d;
  d.member = 5;
  d.bytes_in_use = 0x1234;
  d.window_outstanding = 200;
  d.ranges = {{2, 7, 3}, {3, 1, 200}};

  std::vector<std::uint8_t> want = {12};  // kBufferDigest
  append_u32(want, 5);                    // member
  append_u64(want, 0x1234);               // bytes_in_use
  append_varint(want, 200);               // window_outstanding (2-byte varint)
  append_varint(want, 2);                 // range count
  append_u32(want, 2);                    // range 0: source
  append_u64(want, 7);                    //          first_seq
  append_varint(want, 3);                 //          count (1-byte varint)
  append_u32(want, 3);                    // range 1: source
  append_u64(want, 1);                    //          first_seq
  append_varint(want, 200);               //          count (2-byte varint)
  EXPECT_EQ(encode(Message{d}), want);
  EXPECT_EQ(encoded_size(Message{d}), want.size());
  auto decoded = decode(want);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<BufferDigest>(*decoded), d);
}

TEST(CodecGoldenTest, EmptyBufferDigestEncodesByteExact) {
  BufferDigest d{9, 0, 0, {}};
  std::vector<std::uint8_t> want = {12};
  append_u32(want, 9);
  append_u64(want, 0);
  append_varint(want, 0);  // window_outstanding
  append_varint(want, 0);  // range count
  EXPECT_EQ(encode(Message{d}), want);
}

TEST(CodecGoldenTest, CreditAckEncodesByteExact) {
  CreditAck a;
  a.member = 6;
  a.bytes_in_use = 0x55;
  a.budget_bytes = 0x1000;
  a.cursors = {{2, 9}, {4, 300}};

  std::vector<std::uint8_t> want = {14};  // kCreditAck
  append_u32(want, 6);                    // member
  append_u64(want, 0x55);                 // bytes_in_use
  append_u64(want, 0x1000);               // budget_bytes
  append_varint(want, 2);                 // cursor count
  append_u32(want, 2);                    // cursor 0: source
  append_varint(want, 9);                 //           cursor (1-byte varint)
  append_u32(want, 4);                    // cursor 1: source
  append_varint(want, 300);               //           cursor (2-byte varint)
  EXPECT_EQ(encode(Message{a}), want);
  EXPECT_EQ(encoded_size(Message{a}), want.size());
  auto decoded = decode(want);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<CreditAck>(*decoded), a);
}

TEST(CodecGoldenTest, ViewGenExtendsLegacyLayoutByOneTrailingVarint) {
  // Fault-free traffic (view_gen == 0, struct default) must keep the exact
  // legacy byte layout — the golden vectors above pin that. A nonzero
  // generation appends one varint and nothing else, so legacy decoders
  // would reject it cleanly and new decoders read old frames unchanged.
  CreditAck a;
  a.member = 6;
  a.bytes_in_use = 0x55;
  a.budget_bytes = 0x1000;
  a.cursors = {{2, 9}};

  std::vector<std::uint8_t> legacy = encode(Message{a});
  a.view_gen = 300;
  std::vector<std::uint8_t> want = legacy;
  append_varint(want, 300);
  EXPECT_EQ(encode(Message{a}), want);
  auto decoded = decode(want);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<CreditAck>(*decoded), a);

  BufferDigest d{5, 0x1234, 200, {{2, 7, 3}}};
  legacy = encode(Message{d});
  d.view_gen = 4;
  want = legacy;
  append_varint(want, 4);
  EXPECT_EQ(encode(Message{d}), want);
  decoded = decode(want);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<BufferDigest>(*decoded), d);
}

TEST(CodecNegativeTest, ExplicitZeroViewGenRejected) {
  // An encoder never emits generation 0 (it omits the field); a trailing
  // zero varint is a malformed frame, not a legacy one.
  std::vector<std::uint8_t> ack = encode(Message{CreditAck{1, 64, 128, {{2, 3}}}});
  append_varint(ack, 0);
  EXPECT_FALSE(decode(ack).has_value());

  std::vector<std::uint8_t> digest =
      encode(Message{BufferDigest{1, 64, 2, {DigestRange{1, 2, 3}}}});
  append_varint(digest, 0);
  EXPECT_FALSE(decode(digest).has_value());
}

TEST(CodecGoldenTest, ShedEncodesByteExact) {
  Shed s{9, Data{MessageId{3, 99}, {0xAA, 0xBB}}};
  std::vector<std::uint8_t> want = {13};  // kShed
  append_u32(want, 9);                    // from
  append_message_id(want, 3, 99);         // nested Data: id
  append_varint(want, 2);                 //              payload length
  want.push_back(0xAA);
  want.push_back(0xBB);
  EXPECT_EQ(encode(Message{s}), want);
  EXPECT_EQ(encoded_size(Message{s}), want.size());
  auto decoded = decode(want);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<Shed>(*decoded), s);
}

TEST(CodecNegativeTest, HostileDigestRangeCountRejected) {
  // A digest claiming 2^40 ranges: rejected at the bounds check, never
  // allocated.
  std::vector<std::uint8_t> bytes = {12};  // kBufferDigest
  append_u32(bytes, 1);                    // member
  append_u64(bytes, 64);                   // bytes_in_use
  append_varint(bytes, 1ULL << 40);        // range count
  EXPECT_FALSE(decode(bytes).has_value());

  // Just above the cap, with a well-formed varint.
  std::vector<std::uint8_t> capped = {12};
  append_u32(capped, 1);
  append_u64(capped, 64);
  append_varint(capped, kMaxRepeated + 1);
  EXPECT_FALSE(decode(capped).has_value());
}

TEST(CodecNegativeTest, ZeroLengthDigestRangeRejected) {
  // count = 0 advertises nothing; a well-formed digest never emits it, so
  // decode treats it as hostile rather than silently carrying dead ranges.
  std::vector<std::uint8_t> bytes = {12};  // kBufferDigest
  append_u32(bytes, 1);
  append_u64(bytes, 64);
  append_varint(bytes, 1);  // one range
  append_u32(bytes, 2);     // source
  append_u64(bytes, 5);     // first_seq
  append_varint(bytes, 0);  // count = 0
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecNegativeTest, DigestTruncatedMidRangeRejected) {
  // The advertised range count exceeds the ranges actually present.
  std::vector<std::uint8_t> bytes = {12};  // kBufferDigest
  append_u32(bytes, 1);
  append_u64(bytes, 64);
  append_varint(bytes, 2);  // claims two ranges
  append_u32(bytes, 2);
  append_u64(bytes, 5);
  append_varint(bytes, 3);  // only one follows
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecNegativeTest, ShedHostilePayloadLengthRejected) {
  // A Shed whose nested Data claims 2^40 payload bytes.
  std::vector<std::uint8_t> bytes = {13};  // kShed
  append_u32(bytes, 4);                    // from
  append_message_id(bytes, 1, 2);
  append_varint(bytes, 1ULL << 40);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecNegativeTest, ShedTrailingGarbageRejected) {
  auto bytes = encode(Message{Shed{1, Data{MessageId{1, 1}, {7}}}});
  bytes.push_back(0x00);
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecNegativeTest, HostileCreditAckCursorCountRejected) {
  // A CreditAck claiming 2^40 cursors: rejected on the bounds check, never
  // allocated.
  std::vector<std::uint8_t> bytes = {14};  // kCreditAck
  append_u32(bytes, 1);                    // member
  append_u64(bytes, 64);                   // bytes_in_use
  append_u64(bytes, 128);                  // budget_bytes
  append_varint(bytes, 1ULL << 40);        // cursor count
  EXPECT_FALSE(decode(bytes).has_value());

  // Just above the cap, with a well-formed varint.
  std::vector<std::uint8_t> capped = {14};
  append_u32(capped, 1);
  append_u64(capped, 64);
  append_u64(capped, 128);
  append_varint(capped, kMaxRepeated + 1);
  EXPECT_FALSE(decode(capped).has_value());
}

TEST(CodecNegativeTest, CreditAckTruncatedMidCursorRejected) {
  // The advertised cursor count exceeds the cursors actually present.
  std::vector<std::uint8_t> bytes = {14};  // kCreditAck
  append_u32(bytes, 1);
  append_u64(bytes, 64);
  append_u64(bytes, 128);
  append_varint(bytes, 2);  // claims two cursors
  append_u32(bytes, 2);
  append_varint(bytes, 5);  // only one follows
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecFuzzTest, RandomMutationOfValidDigestNeverCrashes) {
  RandomEngine rng(0xD16E57);
  auto base =
      encode(Message{BufferDigest{3, 512, 6, {{1, 1, 16}, {2, 9, 4}}}});
  for (int trial = 0; trial < 5000; ++trial) {
    auto bytes = base;
    std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<std::uint8_t>(rng.next_u32());
    auto decoded = decode(bytes);
    if (decoded) {
      (void)encode(*decoded);
    }
  }
}

// --------------- piggybacked cursor block on Data/Session (flow control) ----
//
// The cursor block is an *optional trailing* field: an empty vector encodes
// to exactly the pre-piggyback byte layout (zero extra bytes — this is what
// keeps every legacy golden vector and bench baseline bit-identical), and a
// non-empty one appends a varint count followed by {u32 source, varint
// cursor} pairs. One structural consequence, pinned below: truncating a
// cursor-carrying frame exactly at the core/block boundary yields a *valid*
// cursor-free frame, so Data/Session-with-cursors do NOT belong in the
// every-truncation-rejected corpus.

TEST(CodecTest, DataWithCursorsRoundTrip) {
  Data d{MessageId{3, 99}, {1, 2, 3}, {{1, 40}, {2, 0}, {7, 1ULL << 33}}};
  EXPECT_EQ(round_trip(d), d);
}

TEST(CodecTest, SessionWithCursorsRoundTrip) {
  Session s{42, 17, {{3, 16}, {5, 300}}};
  EXPECT_EQ(round_trip(s), s);
}

TEST(CodecTest, CursorBlockCountedByEncodedSize) {
  std::vector<Message> msgs = {
      Message{Data{MessageId{1, 2}, std::vector<std::uint8_t>(127, 1),
                   {{2, 127}, {3, 128}}}},
      Message{Session{7, 1ULL << 40, {{1, 1ULL << 40}}}},
  };
  for (const Message& m : msgs) {
    EXPECT_EQ(encoded_size(m), encode(m).size()) << type_name(m);
  }
}

TEST(CodecGoldenTest, DataWithoutCursorsKeepsLegacyLayout) {
  // The load-bearing bit-identity guarantee: a cursor-free Data frame must
  // encode to the exact pre-piggyback byte sequence, not even a zero count.
  Data d{MessageId{3, 99}, {0xAA, 0xBB}};
  std::vector<std::uint8_t> want = {1};  // kData
  append_message_id(want, 3, 99);
  append_varint(want, 2);  // payload length
  want.push_back(0xAA);
  want.push_back(0xBB);
  EXPECT_EQ(encode(Message{d}), want);
  EXPECT_EQ(encoded_size(Message{d}), want.size());
}

TEST(CodecGoldenTest, SessionWithoutCursorsKeepsLegacyLayout) {
  Session s{6, 0x1234};
  std::vector<std::uint8_t> want = {2};  // kSession
  append_u32(want, 6);
  append_u64(want, 0x1234);
  EXPECT_EQ(encode(Message{s}), want);
  EXPECT_EQ(encoded_size(Message{s}), want.size());
}

TEST(CodecGoldenTest, DataWithCursorsEncodesByteExact) {
  Data d{MessageId{3, 99}, {0xAA}, {{2, 9}, {4, 300}}};
  std::vector<std::uint8_t> want = {1};  // kData
  append_message_id(want, 3, 99);
  append_varint(want, 1);  // payload length
  want.push_back(0xAA);
  append_varint(want, 2);    // cursor count
  append_u32(want, 2);       // cursor 0: source
  append_varint(want, 9);    //           cursor (1-byte varint)
  append_u32(want, 4);       // cursor 1: source
  append_varint(want, 300);  //           cursor (2-byte varint)
  EXPECT_EQ(encode(Message{d}), want);
  EXPECT_EQ(encoded_size(Message{d}), want.size());
  auto decoded = decode(want);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<Data>(*decoded), d);
}

TEST(CodecGoldenTest, SessionWithCursorsEncodesByteExact) {
  Session s{6, 0x1234, {{1, 5}}};
  std::vector<std::uint8_t> want = {2};  // kSession
  append_u32(want, 6);
  append_u64(want, 0x1234);
  append_varint(want, 1);  // cursor count
  append_u32(want, 1);     // cursor 0: source
  append_varint(want, 5);  //           cursor
  EXPECT_EQ(encode(Message{s}), want);
  EXPECT_EQ(encoded_size(Message{s}), want.size());
  auto decoded = decode(want);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<Session>(*decoded), s);
}

TEST(CodecTest, CoreBoundaryCutOfCursorCarryingFrameIsTheCursorFreeFrame) {
  // The one valid truncation of a cursor-carrying frame: cutting exactly at
  // the core/block boundary produces the legacy cursor-free frame. This is
  // by construction (the block is optional-trailing), pinned here so the
  // truncation-fuzz corpus's exclusion of these frames stays explained.
  Data d{MessageId{3, 99}, {0xAA}, {{2, 9}}};
  Data core{MessageId{3, 99}, {0xAA}};
  auto full = encode(Message{d});
  auto core_bytes = encode(Message{core});
  ASSERT_LT(core_bytes.size(), full.size());
  std::span<const std::uint8_t> cut(full.data(), core_bytes.size());
  auto decoded = decode(cut);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<Data>(*decoded), core);
  // Every *other* truncation of the block still rejects.
  for (std::size_t n = core_bytes.size() + 1; n < full.size(); ++n) {
    std::span<const std::uint8_t> prefix(full.data(), n);
    EXPECT_FALSE(decode(prefix).has_value()) << "cut at " << n;
  }
}

TEST(CodecTest, HandoffAndShedNestingStripsCursors) {
  // Data nested inside Handoff/Shed is parsed sequentially without a length
  // prefix, so the optional trailing block cannot exist there: the nested
  // encoding is always the cursor-free core, and cursors on an input Data
  // are dropped by design (buffered copies are cursor-free anyway).
  Data d{MessageId{1, 1}, {7, 8}, {{2, 9}}};
  Data stripped{MessageId{1, 1}, {7, 8}};

  auto ho = decode(encode(Message{Handoff{{d}}}));
  ASSERT_TRUE(ho.has_value());
  ASSERT_EQ(std::get<Handoff>(*ho).messages.size(), 1u);
  EXPECT_EQ(std::get<Handoff>(*ho).messages[0], stripped);

  auto sh = decode(encode(Message{Shed{4, d}}));
  ASSERT_TRUE(sh.has_value());
  EXPECT_EQ(std::get<Shed>(*sh).message, stripped);
}

TEST(CodecNegativeTest, HostileDataCursorCountRejected) {
  // A Data frame whose trailing block claims 2^40 cursors: rejected on the
  // bounds check, never allocated.
  std::vector<std::uint8_t> bytes = {1};  // kData
  append_message_id(bytes, 7, 42);
  append_varint(bytes, 1);  // payload length
  bytes.push_back(0xAA);
  append_varint(bytes, 1ULL << 40);  // cursor count
  EXPECT_FALSE(decode(bytes).has_value());

  std::vector<std::uint8_t> capped = {1};
  append_message_id(capped, 7, 42);
  append_varint(capped, 0);  // empty payload
  append_varint(capped, kMaxRepeated + 1);
  EXPECT_FALSE(decode(capped).has_value());
}

TEST(CodecNegativeTest, ZeroCursorCountRejected) {
  // A present-but-empty block is never emitted (empty encodes as absent),
  // so a zero count is hostile — and rejecting it is what keeps the old
  // trailing-garbage property: legacy frame + 0x00 still fails to decode.
  for (std::uint8_t tag : {std::uint8_t{1}, std::uint8_t{2}}) {
    std::vector<std::uint8_t> bytes =
        tag == 1 ? encode(Message{Data{MessageId{3, 4}, {1, 2}}})
                 : encode(Message{Session{1, 99}});
    bytes.push_back(0x00);  // cursor count = 0
    EXPECT_FALSE(decode(bytes).has_value()) << "tag " << int(tag);
  }
}

TEST(CodecNegativeTest, DataTruncatedMidCursorBlockRejected) {
  // The advertised cursor count exceeds the cursors actually present.
  std::vector<std::uint8_t> bytes = {1};  // kData
  append_message_id(bytes, 7, 42);
  append_varint(bytes, 0);  // empty payload
  append_varint(bytes, 2);  // claims two cursors
  append_u32(bytes, 2);
  append_varint(bytes, 5);  // only one follows
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(CodecFuzzTest, RandomMutationOfCursorCarryingDataNeverCrashes) {
  RandomEngine rng(0xC0C05);
  auto base = encode(
      Message{Data{MessageId{1, 1}, {1, 2, 3}, {{2, 40}, {3, 1ULL << 20}}}});
  for (int trial = 0; trial < 5000; ++trial) {
    auto bytes = base;
    std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<std::uint8_t>(rng.next_u32());
    auto decoded = decode(bytes);
    if (decoded) {
      (void)encode(*decoded);
    }
  }
}

}  // namespace
}  // namespace rrmp::proto
