#include "serve/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace sdf {
namespace serve {

Json Json::boolean(bool value) {
    Json j;
    j.kind_ = Kind::boolean;
    j.boolean_ = value;
    return j;
}

Json Json::integer(std::int64_t value) {
    Json j;
    j.kind_ = Kind::integer;
    j.integer_ = value;
    return j;
}

Json Json::real(double value) {
    Json j;
    j.kind_ = Kind::real;
    j.real_ = value;
    return j;
}

Json Json::string(std::string value) {
    Json j;
    j.kind_ = Kind::string;
    j.string_ = std::move(value);
    return j;
}

Json Json::array() {
    Json j;
    j.kind_ = Kind::array;
    return j;
}

Json Json::object() {
    Json j;
    j.kind_ = Kind::object;
    return j;
}

namespace {

[[noreturn]] void kind_error(const char* wanted) {
    throw JsonParseError(std::string("JSON value is not ") + wanted);
}

}  // namespace

bool Json::as_boolean() const {
    if (kind_ != Kind::boolean) {
        kind_error("a boolean");
    }
    return boolean_;
}

std::int64_t Json::as_integer() const {
    if (kind_ != Kind::integer) {
        kind_error("an integer");
    }
    return integer_;
}

double Json::as_real() const {
    if (kind_ == Kind::integer) {
        return static_cast<double>(integer_);
    }
    if (kind_ != Kind::real) {
        kind_error("a number");
    }
    return real_;
}

const std::string& Json::as_string() const {
    if (kind_ != Kind::string) {
        kind_error("a string");
    }
    return string_;
}

const std::vector<Json>& Json::items() const {
    if (kind_ != Kind::array) {
        kind_error("an array");
    }
    return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
    if (kind_ != Kind::object) {
        kind_error("an object");
    }
    return members_;
}

const Json* Json::find(const std::string& key) const {
    if (kind_ != Kind::object) {
        return nullptr;
    }
    for (const auto& [name, value] : members_) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

void Json::push_back(Json value) {
    if (kind_ != Kind::array) {
        kind_error("an array");
    }
    items_.push_back(std::move(value));
}

void Json::set(const std::string& key, Json value) {
    if (kind_ != Kind::object) {
        kind_error("an object");
    }
    for (auto& [name, existing] : members_) {
        if (name == key) {
            existing = std::move(value);
            return;
        }
    }
    members_.emplace_back(key, std::move(value));
}

// ---- writer -----------------------------------------------------------

namespace {

void dump_string(const std::string& text, std::string& out) {
    out += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;  // UTF-8 bytes pass through verbatim
                }
        }
    }
    out += '"';
}

}  // namespace

void Json::write(std::string& out, const char* comma, const char* colon) const {
    switch (kind_) {
        case Kind::null:
            out += "null";
            break;
        case Kind::boolean:
            out += boolean_ ? "true" : "false";
            break;
        case Kind::integer:
            out += std::to_string(integer_);
            break;
        case Kind::real: {
            // Shortest representation that round-trips; integral doubles
            // keep a ".0" so the kind survives a parse.
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", real_);
            double back = 0;
            if (std::sscanf(buf, "%lf", &back) == 1 && back == real_) {
                for (int precision = 1; precision < 17; ++precision) {
                    char shorter[32];
                    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, real_);
                    if (std::sscanf(shorter, "%lf", &back) == 1 && back == real_) {
                        std::snprintf(buf, sizeof(buf), "%s", shorter);
                        break;
                    }
                }
            }
            out += buf;
            if (std::strpbrk(buf, ".eE") == nullptr) {
                out += ".0";
            }
            break;
        }
        case Kind::string:
            dump_string(string_, out);
            break;
        case Kind::array: {
            out += "[";
            for (std::size_t i = 0; i < items_.size(); ++i) {
                if (i > 0) {
                    out += comma;
                }
                items_[i].write(out, comma, colon);
            }
            out += "]";
            break;
        }
        case Kind::object: {
            out += "{";
            for (std::size_t i = 0; i < members_.size(); ++i) {
                if (i > 0) {
                    out += comma;
                }
                dump_string(members_[i].first, out);
                out += colon;
                members_[i].second.write(out, comma, colon);
            }
            out += "}";
            break;
        }
    }
}

std::string Json::dump() const {
    std::string out;
    write(out, ",", ":");
    return out;
}

std::string Json::dump_report() const {
    std::string out = "{";
    const char* separator = "\n  ";
    for (const auto& [key, value] : members()) {
        out += separator;
        separator = ",\n  ";
        dump_string(key, out);
        out += ": ";
        if (!value.is_array() || value.items_.empty()) {
            value.write(out, ", ", ": ");
            continue;
        }
        const char* item_separator = "[\n    ";
        for (const Json& item : value.items_) {
            out += item_separator;
            item_separator = ",\n    ";
            item.write(out, ", ", ": ");
        }
        out += "\n  ]";
    }
    out += members_.empty() ? "}\n" : "\n}\n";
    return out;
}

// ---- parser -----------------------------------------------------------

namespace {

/// Recursive-descent parser over one in-memory line; positions in error
/// messages are byte offsets (requests are single lines, so offsets beat
/// line numbers).
class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    Json parse_document() {
        Json value = parse_value(0);
        skip_whitespace();
        if (pos_ != text_.size()) {
            fail("trailing characters after the JSON value");
        }
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw JsonParseError("JSON error at offset " + std::to_string(pos_) + ": " +
                             what);
    }

    void skip_whitespace() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() {
        skip_whitespace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        ++pos_;
    }

    bool consume_keyword(const char* keyword) {
        const std::size_t length = std::string(keyword).size();
        if (text_.compare(pos_, length, keyword) == 0) {
            pos_ += length;
            return true;
        }
        return false;
    }

    Json parse_value(int depth) {
        if (depth > 64) {
            fail("nesting deeper than 64 levels");
        }
        const char c = peek();
        switch (c) {
            case '{': return parse_object(depth);
            case '[': return parse_array(depth);
            case '"': return Json::string(parse_string());
            case 't':
                if (consume_keyword("true")) {
                    return Json::boolean(true);
                }
                fail("invalid literal");
            case 'f':
                if (consume_keyword("false")) {
                    return Json::boolean(false);
                }
                fail("invalid literal");
            case 'n':
                if (consume_keyword("null")) {
                    return Json::make_null();
                }
                fail("invalid literal");
            default:
                return parse_number();
        }
    }

    Json parse_object(int depth) {
        expect('{');
        Json object = Json::object();
        if (peek() == '}') {
            ++pos_;
            return object;
        }
        for (;;) {
            if (peek() != '"') {
                fail("object keys must be strings");
            }
            std::string key = parse_string();
            if (object.find(key) != nullptr) {
                fail("duplicate object key \"" + key + "\"");
            }
            expect(':');
            object.set(key, parse_value(depth + 1));
            const char next = peek();
            if (next == ',') {
                ++pos_;
                continue;
            }
            if (next == '}') {
                ++pos_;
                return object;
            }
            fail("expected ',' or '}' in object");
        }
    }

    Json parse_array(int depth) {
        expect('[');
        Json array = Json::array();
        if (peek() == ']') {
            ++pos_;
            return array;
        }
        for (;;) {
            array.push_back(parse_value(depth + 1));
            const char next = peek();
            if (next == ',') {
                ++pos_;
                continue;
            }
            if (next == ']') {
                ++pos_;
                return array;
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
            }
            const char escape = text_[pos_++];
            switch (escape) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code += static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code += static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code += static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("invalid \\u escape digit");
                        }
                    }
                    // Encode the code point as UTF-8; surrogate pairs are
                    // combined when both halves are present.
                    unsigned long cp = code;
                    if (code >= 0xD800 && code <= 0xDBFF) {
                        if (pos_ + 6 <= text_.size() && text_[pos_] == '\\' &&
                            text_[pos_ + 1] == 'u') {
                            pos_ += 2;
                            unsigned low = 0;
                            for (int i = 0; i < 4; ++i) {
                                const char h = text_[pos_++];
                                low <<= 4;
                                if (h >= '0' && h <= '9') {
                                    low += static_cast<unsigned>(h - '0');
                                } else if (h >= 'a' && h <= 'f') {
                                    low += static_cast<unsigned>(h - 'a' + 10);
                                } else if (h >= 'A' && h <= 'F') {
                                    low += static_cast<unsigned>(h - 'A' + 10);
                                } else {
                                    fail("invalid \\u escape digit");
                                }
                            }
                            if (low < 0xDC00 || low > 0xDFFF) {
                                fail("unpaired surrogate");
                            }
                            cp = 0x10000UL + ((code - 0xD800UL) << 10) + (low - 0xDC00UL);
                        } else {
                            fail("unpaired surrogate");
                        }
                    } else if (code >= 0xDC00 && code <= 0xDFFF) {
                        fail("unpaired surrogate");
                    }
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else if (cp < 0x10000) {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xF0 | (cp >> 18));
                        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default:
                    fail("invalid escape character");
            }
        }
    }

    Json parse_number() {
        skip_whitespace();
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            fail("invalid number");
        }
        // Leading zeros are invalid JSON ("01"), a lone zero is fine.
        if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
            fail("leading zero in number");
        }
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        bool integral = true;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            integral = false;
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("digit required after decimal point");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("digit required in exponent");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        const std::string token = text_.substr(start, pos_ - start);
        if (integral) {
            std::int64_t value = 0;
            const auto [ptr, ec] =
                std::from_chars(token.data(), token.data() + token.size(), value);
            if (ec == std::errc() && ptr == token.data() + token.size()) {
                return Json::integer(value);
            }
            // Falls through to double for magnitudes beyond int64.
        }
        errno = 0;
        char* end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || !std::isfinite(value)) {
            fail("invalid number");
        }
        return Json::real(value);
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
    return Parser(text).parse_document();
}

}  // namespace serve
}  // namespace sdf
