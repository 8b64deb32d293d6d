#pragma once
// Minimal JSON reader used to validate exported traces.
//
// The exporters write JSON by hand (no third-party dependency policy); this
// parser closes the loop so tests and the watchdog tooling can check that
// what we emit is actually well-formed and carries the expected fields. It
// parses the full grammar into a small DOM. Not a performance-critical
// path; traces are validated, not streamed, through this.

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hp::obs {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(JsonArray a)
      : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}
  explicit JsonValue(JsonObject o)
      : type_(Type::kObject),
        object_(std::make_shared<JsonObject>(std::move(o))) {}

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }
  [[nodiscard]] const JsonArray& as_array() const noexcept { return *array_; }
  [[nodiscard]] const JsonObject& as_object() const noexcept { return *object_; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const noexcept;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Deepest array/object nesting json_parse accepts. The parser recurses
/// once per level, so the cap keeps hostile input from overflowing the
/// stack; the documents this repo emits nest a handful of levels.
inline constexpr int kJsonMaxDepth = 256;

/// Parse a complete JSON document. On failure returns false and describes
/// the first error (with character offset) in `*error`. Nesting deeper
/// than kJsonMaxDepth is an error.
bool json_parse(const std::string& text, JsonValue* out, std::string* error);

}  // namespace hp::obs
