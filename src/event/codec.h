// Binary wire codec for values, events, and subscriptions.
//
// The broker prototype (Section 4.2) marshals events onto the wire and
// un-marshals them against the pre-defined event schema; subscriptions are
// propagated between brokers in the same format. The encoding is a simple
// explicit little-endian TLV format — portable, versionable, and independent
// of host struct layout.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "event/event.h"
#include "event/subscription.h"

namespace gryphon {

/// Thrown when decoding runs off the end of the buffer or meets a bad tag.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& message) : std::runtime_error(message) {}
};

/// Append-only encoder over a growable byte buffer.
class Encoder {
 public:
  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  void put_string(std::string_view v);
  void put_bytes(std::span<const std::uint8_t> v);

  void put_value(const Value& v);
  /// Encodes only the values — the receiver decodes against the schema it
  /// already holds for the information space (events never carry schemas).
  void put_event(const Event& e);
  void put_test(const AttributeTest& t);
  void put_subscription(const Subscription& s);

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Sequential decoder over a fixed byte span.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  std::string get_string();
  std::vector<std::uint8_t> get_bytes();
  /// As get_string / get_bytes, but borrowing from the decoded buffer.
  std::string_view get_string_view();
  std::span<const std::uint8_t> get_bytes_view();

  Value get_value();
  Event get_event(const SchemaPtr& schema);
  AttributeTest get_test();
  Subscription get_subscription(const SchemaPtr& schema);

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

/// Round-trip helpers used by tests and the broker wire protocol.
std::vector<std::uint8_t> encode_event(const Event& e);
Event decode_event(const SchemaPtr& schema, std::span<const std::uint8_t> data);
std::vector<std::uint8_t> encode_subscription(const Subscription& s);
Subscription decode_subscription(const SchemaPtr& schema, std::span<const std::uint8_t> data);

}  // namespace gryphon
