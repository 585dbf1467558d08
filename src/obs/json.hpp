// Minimal JSON value type with a writer and a parser.
//
// The observability layer emits machine-readable artifacts — registry
// snapshots, BENCH_*.json, Chrome traces — and the CI schema checker reads
// them back. No external JSON dependency is available in the toolchain, so
// this is a small, strict implementation: UTF-8 pass-through strings with
// standard escapes, 64-bit integers preserved exactly (counters must
// round-trip bit-for-bit), objects keeping insertion order so emitted files
// are deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace herd::obs {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kUint,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Json(std::uint64_t u) : kind_(Kind::kUint), uint_(u) {}  // NOLINT
  Json(std::int64_t i) : kind_(Kind::kInt), int_(i) {}     // NOLINT
  Json(int i) : kind_(Kind::kInt), int_(i) {}              // NOLINT
  Json(unsigned u) : kind_(Kind::kUint), uint_(u) {}       // NOLINT
  Json(double d) : kind_(Kind::kDouble), double_(d) {}     // NOLINT
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : kind_(Kind::kString), str_(s) {}             // NOLINT

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kUint || kind_ == Kind::kInt ||
           kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  /// Numeric value as uint64 (negative/fractional values truncate toward 0).
  std::uint64_t as_uint() const;
  double as_double() const;
  const std::string& as_string() const { return str_; }

  // --- Object access (insertion-ordered) -----------------------------------
  /// Inserts (null) or fetches the member `key`. Converts a null value to an
  /// object on first use.
  Json& operator[](std::string_view key);
  /// Member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& items() const {
    return obj_;
  }

  // --- Array access --------------------------------------------------------
  void push_back(Json v);
  const std::vector<Json>& elements() const { return arr_; }
  std::size_t size() const {
    return kind_ == Kind::kObject ? obj_.size() : arr_.size();
  }

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Strict parse of a complete JSON document; throws std::runtime_error
  /// with a byte offset on malformed input.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace herd::obs
