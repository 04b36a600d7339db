// Binary codec for proto::Message.
//
// Layout: 1-byte MessageType tag followed by the type-specific body.
// Integers are little-endian fixed width; blobs and repeated fields are
// varint-length-prefixed. decode() returns nullopt on any malformed input
// (unknown tag, truncation, trailing garbage, oversized repeated field) —
// it never throws and never reads out of bounds.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "proto/messages.h"

namespace rrmp::proto {

/// Hard cap on elements in any repeated field, so a hostile length prefix
/// cannot force a huge allocation before the bounds check trips.
inline constexpr std::uint64_t kMaxRepeated = 1u << 20;

std::vector<std::uint8_t> encode(const Message& m);
std::optional<Message> decode(std::span<const std::uint8_t> bytes);

/// Encode into a refcounted immutable buffer (one allocation, shareable
/// across fan-out recipients and lanes).
SharedBytes encode_shared(const Message& m);

/// Zero-copy decode: blob fields (Data/Repair/RegionalRepair payloads) alias
/// `wire`'s refcounted owner instead of copying. Identical accept/reject
/// behaviour to decode(span).
std::optional<Message> decode_shared(const SharedBytes& wire);

/// The id of a Data frame, read from its header without decoding the rest;
/// nullopt for any other frame type and for a frame too short to hold the
/// id. A hit does not mean the whole frame decodes.
std::optional<MessageId> peek_data_id(std::span<const std::uint8_t> frame);

/// Encoded size without materializing the buffer (used by traffic metrics).
/// Exactly encode(m).size(): the same encoder runs against a byte counter.
std::size_t encoded_size(const Message& m);

/// Encoded size of a Data frame without constructing a Message variant —
/// the one definition of "how many bytes does this message cost" shared by
/// traffic accounting and buffer-occupancy accounting (buffer::BufferStore).
std::size_t encoded_size(const Data& d);

}  // namespace rrmp::proto
