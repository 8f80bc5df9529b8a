// xml_node.hpp — a minimal XML document model and parser.
//
// Supports exactly what the SDF3-style graph format needs: nested elements,
// double-quoted attributes, self-closing tags, comments, XML declarations
// and the five predefined entities.  No namespaces, CDATA or DTDs.  Element
// text content is ignored (the graph format carries everything in
// attributes).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sdf {

/// One XML element.
class XmlNode {
public:
    std::string name;
    std::size_t line = 0;    ///< 1-based line of the opening '<'; 0 = unknown
    std::size_t column = 0;  ///< 1-based column of the opening '<'
    std::map<std::string, std::string> attributes;
    std::vector<XmlNode> children;

    /// Attribute value, if present.
    [[nodiscard]] std::optional<std::string> attribute(const std::string& key) const;

    /// Attribute value; throws ParseError when missing.
    [[nodiscard]] const std::string& required_attribute(const std::string& key) const;

    /// First child element with the given tag name, if any.
    [[nodiscard]] const XmlNode* child(const std::string& tag) const;

    /// All child elements with the given tag name.
    [[nodiscard]] std::vector<const XmlNode*> children_named(const std::string& tag) const;
};

/// Parses one XML document and returns its root element; throws ParseError
/// on malformed input.
XmlNode parse_xml(const std::string& text);

/// Escapes &, <, >, " and ' for attribute values.
std::string xml_escape(const std::string& text);

/// Appends xml_escape(text) to `out` without a temporary.
void append_xml_escaped(std::string& out, std::string_view text);

}  // namespace sdf
