// Minimal self-contained JSON support for the campaign subsystem's
// JSON Lines result files.
//
// The writer is deterministic: object keys keep insertion order and
// doubles are formatted with %.17g, so serializing the same value twice
// yields byte-identical text — the property the campaign determinism
// guarantee (identical records for any worker count) rests on. The parser
// is a strict recursive-descent reader of standard JSON; it returns
// nullopt on malformed input instead of throwing, because resume must
// tolerate a truncated trailing line in a results file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rair::campaign {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Ordered key/value list (insertion order is serialization order).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

  JsonValue() : kind_(Kind::Null) {}
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(double n) : kind_(Kind::Number), num_(n) {}
  JsonValue(std::uint64_t n)
      : kind_(Kind::Number), num_(static_cast<double>(n)) {}
  JsonValue(int n) : kind_(Kind::Number), num_(n) {}
  JsonValue(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
  JsonValue(const char* s) : kind_(Kind::String), str_(s) {}
  JsonValue(Array a) : kind_(Kind::Array), arr_(std::move(a)) {}
  JsonValue(Object o) : kind_(Kind::Object), obj_(std::move(o)) {}

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::Null; }
  bool isNumber() const { return kind_ == Kind::Number; }
  bool isString() const { return kind_ == Kind::String; }
  bool isArray() const { return kind_ == Kind::Array; }
  bool isObject() const { return kind_ == Kind::Object; }

  /// Typed accessors; RAIR_CHECK on kind mismatch.
  bool asBool() const;
  double asNumber() const;
  const std::string& asString() const;
  const Array& asArray() const;
  const Object& asObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Appends a member to an object value (RAIR_CHECK otherwise).
  void set(std::string key, JsonValue value);

  /// Serializes to compact single-line JSON (no whitespace).
  std::string dump() const;

  /// Parses a complete JSON document; trailing garbage or any syntax
  /// error yields nullopt.
  static std::optional<JsonValue> parse(std::string_view text);

 private:
  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
std::string jsonEscape(std::string_view s);

/// Deterministic round-trippable double formatting (%.17g; "inf"-free:
/// non-finite values serialize as null when dumped through JsonValue).
std::string formatJsonDouble(double v);

}  // namespace rair::campaign
