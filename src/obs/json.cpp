#include "obs/json.hpp"

#include <cctype>
#include <cstdlib>

namespace hp::obs {

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (!is_object()) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool parse_document(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue* out) {
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kJsonMaxDepth) {
          return fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
                      " levels");
        }
        ++depth_;
        const bool ok = peek() == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          *out = JsonValue(true);
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          *out = JsonValue(false);
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          *out = JsonValue();
          return true;
        }
        return fail("bad literal");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    if (!consume('{')) return false;
    JsonObject object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      *out = JsonValue(std::move(object));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (!consume('}')) return false;
    *out = JsonValue(std::move(object));
    return true;
  }

  bool parse_array(JsonValue* out) {
    if (!consume('[')) return false;
    JsonArray array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      *out = JsonValue(std::move(array));
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(&value)) return false;
      array.push_back(std::move(value));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (!consume(']')) return false;
    *out = JsonValue(std::move(array));
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // \uXXXX: decode the code unit; non-ASCII becomes '?' (the
            // exporters only ever emit ASCII, this is for robustness).
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            const std::string hex = text_.substr(pos_, 4);
            pos_ += 4;
            char* end = nullptr;
            const long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return fail("bad \\u escape");
            out->push_back(code < 128 ? static_cast<char>(code) : '?');
            break;
          }
          default: return fail("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    char* end = nullptr;
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    *out = JsonValue(value);
    return true;
  }

  const std::string& text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects currently open
};

}  // namespace

bool json_parse(const std::string& text, JsonValue* out, std::string* error) {
  Parser parser(text, error);
  return parser.parse_document(out);
}

}  // namespace hp::obs
