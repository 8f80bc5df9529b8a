#include "io/xml_node.hpp"

#include <tuple>
#include <utility>

#include "base/errors.hpp"

namespace sdf {

std::optional<std::string> XmlNode::attribute(const std::string& key) const {
    const auto it = attributes.find(key);
    if (it == attributes.end()) {
        return std::nullopt;
    }
    return it->second;
}

const std::string& XmlNode::required_attribute(const std::string& key) const {
    const auto it = attributes.find(key);
    if (it == attributes.end()) {
        throw ParseError("element <" + name + "> misses attribute '" + key + "'");
    }
    return it->second;
}

const XmlNode* XmlNode::child(const std::string& tag) const {
    for (const XmlNode& c : children) {
        if (c.name == tag) {
            return &c;
        }
    }
    return nullptr;
}

std::vector<const XmlNode*> XmlNode::children_named(const std::string& tag) const {
    std::vector<const XmlNode*> result;
    for (const XmlNode& c : children) {
        if (c.name == tag) {
            result.push_back(&c);
        }
    }
    return result;
}

namespace {

/// Recursive-descent depth cap: real SDF3 documents nest a handful of
/// levels; anything deeper is hostile input and is refused with a typed
/// error before the per-level recursion can exhaust the stack (which is
/// much shallower under sanitizers).
constexpr int kMaxElementDepth = 256;

class Parser {
public:
    explicit Parser(const std::string& text) : text_(text) {}

    XmlNode parse_document() {
        skip_misc();
        XmlNode root = parse_element();
        skip_misc();
        if (pos_ != text_.size()) {
            fail("trailing content after root element");
        }
        return root;
    }

private:
    /// Line and column (1-based) of `offset`.  Queries arrive in roughly
    /// increasing offset order, so the scan memoises its last position and
    /// only walks forward — amortised linear over a whole parse.
    std::pair<std::size_t, std::size_t> location_at(std::size_t offset) {
        if (offset < scanned_to_) {
            scanned_to_ = 0;
            scanned_line_ = 1;
            scanned_line_start_ = 0;
        }
        while (scanned_to_ < offset && scanned_to_ < text_.size()) {
            if (text_[scanned_to_] == '\n') {
                ++scanned_line_;
                scanned_line_start_ = scanned_to_ + 1;
            }
            ++scanned_to_;
        }
        return {scanned_line_, offset - scanned_line_start_ + 1};
    }

    [[noreturn]] void fail(const std::string& message) {
        const auto [line, column] = location_at(pos_);
        throw ParseError("xml: " + message + " (line " + std::to_string(line) +
                         ", column " + std::to_string(column) + ")");
    }

    [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
    [[nodiscard]] char peek() const { return text_[pos_]; }

    void skip_whitespace() {
        while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r')) {
            ++pos_;
        }
    }

    /// Skips whitespace, comments, XML declarations and processing
    /// instructions between elements.
    void skip_misc() {
        while (true) {
            skip_whitespace();
            if (starts_with("<!--")) {
                const std::size_t end = text_.find("-->", pos_ + 4);
                if (end == std::string::npos) {
                    fail("unterminated comment");
                }
                pos_ = end + 3;
            } else if (starts_with("<?")) {
                const std::size_t end = text_.find("?>", pos_ + 2);
                if (end == std::string::npos) {
                    fail("unterminated processing instruction");
                }
                pos_ = end + 2;
            } else {
                return;
            }
        }
    }

    [[nodiscard]] bool starts_with(const std::string& prefix) const {
        return text_.compare(pos_, prefix.size(), prefix) == 0;
    }

    [[nodiscard]] static bool is_name_char(char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
               c == '_' || c == '-' || c == '.' || c == ':';
    }

    std::string parse_name() {
        const std::size_t start = pos_;
        while (!eof() && is_name_char(peek())) {
            ++pos_;
        }
        if (pos_ == start) {
            fail("expected a name");
        }
        return text_.substr(start, pos_ - start);
    }

    std::string parse_attribute_value() {
        if (eof() || peek() != '"') {
            fail("expected '\"' starting an attribute value");
        }
        ++pos_;
        std::string value;
        while (!eof() && peek() != '"') {
            if (peek() == '&') {
                value += parse_entity();
            } else {
                value += peek();
                ++pos_;
            }
        }
        if (eof()) {
            fail("unterminated attribute value");
        }
        ++pos_;  // closing quote
        return value;
    }

    char parse_entity() {
        const std::size_t end = text_.find(';', pos_);
        if (end == std::string::npos) {
            fail("unterminated entity");
        }
        const std::string entity = text_.substr(pos_, end - pos_ + 1);
        pos_ = end + 1;
        if (entity == "&amp;") return '&';
        if (entity == "&lt;") return '<';
        if (entity == "&gt;") return '>';
        if (entity == "&quot;") return '"';
        if (entity == "&apos;") return '\'';
        fail("unsupported entity '" + entity + "'");
    }

    XmlNode parse_element() {
        if (depth_ >= kMaxElementDepth) {
            fail("element nesting deeper than " + std::to_string(kMaxElementDepth) +
                 " levels");
        }
        ++depth_;
        const DepthGuard guard{depth_};
        if (eof() || peek() != '<') {
            fail("expected '<'");
        }
        XmlNode node;
        std::tie(node.line, node.column) = location_at(pos_);
        ++pos_;
        node.name = parse_name();
        while (true) {
            skip_whitespace();
            if (eof()) {
                fail("unterminated start tag <" + node.name + ">");
            }
            if (peek() == '>') {
                ++pos_;
                break;
            }
            if (starts_with("/>")) {
                pos_ += 2;
                return node;  // self-closing
            }
            const std::string key = parse_name();
            skip_whitespace();
            if (eof() || peek() != '=') {
                fail("expected '=' after attribute '" + key + "'");
            }
            ++pos_;
            skip_whitespace();
            node.attributes[key] = parse_attribute_value();
        }
        // Content: child elements until the matching end tag; text is
        // skipped.
        while (true) {
            // Skip character data.
            while (!eof() && peek() != '<') {
                ++pos_;
            }
            if (eof()) {
                fail("missing end tag </" + node.name + ">");
            }
            if (starts_with("</")) {
                pos_ += 2;
                const std::string closing = parse_name();
                if (closing != node.name) {
                    fail("mismatched end tag </" + closing + "> for <" + node.name + ">");
                }
                skip_whitespace();
                if (eof() || peek() != '>') {
                    fail("malformed end tag </" + closing + ">");
                }
                ++pos_;
                return node;
            }
            if (starts_with("<!--")) {
                const std::size_t end = text_.find("-->", pos_ + 4);
                if (end == std::string::npos) {
                    fail("unterminated comment");
                }
                pos_ = end + 3;
                continue;
            }
            node.children.push_back(parse_element());
        }
    }

    struct DepthGuard {
        int& depth;
        ~DepthGuard() { --depth; }
    };

    const std::string& text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    // Memoised newline scan for location_at().
    std::size_t scanned_to_ = 0;
    std::size_t scanned_line_ = 1;
    std::size_t scanned_line_start_ = 0;
};

}  // namespace

XmlNode parse_xml(const std::string& text) {
    Parser parser(text);
    return parser.parse_document();
}

std::string xml_escape(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    append_xml_escaped(out, text);
    return out;
}

void append_xml_escaped(std::string& out, std::string_view text) {
    // Each run of plain characters is one append.
    std::size_t plain = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        std::string_view entity;
        switch (text[i]) {
            case '&': entity = "&amp;"; break;
            case '<': entity = "&lt;"; break;
            case '>': entity = "&gt;"; break;
            case '"': entity = "&quot;"; break;
            case '\'': entity = "&apos;"; break;
            default: continue;
        }
        out.append(text.substr(plain, i - plain));
        out.append(entity);
        plain = i + 1;
    }
    out.append(text.substr(plain));
}

}  // namespace sdf
