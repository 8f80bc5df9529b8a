// text.hpp — a plain-text SDF graph format.
//
// Line-oriented, whitespace-separated, '#' starts a comment:
//
//     graph h263decoder
//     actor VLD 26018
//     actor IQ  559
//     channel VLD IQ 594 1 0     # src dst production consumption tokens
//
// Actors must be declared before the channels that use them.  The format
// round-trips exactly (tested) and exists so experiments and examples can
// be driven from files without the XML machinery.
#pragma once

#include <iosfwd>
#include <string>

#include "io/source_map.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// Parses a graph from the text format; throws ParseError with a
/// line-numbered message on malformed input.  When `locations` is non-null
/// it receives the line of every actor and channel declaration (and the
/// file path, for the file reader).  Lines end at '\n'; fields are split
/// on the bytes std::isspace accepts in the C locale, so the '\r' of a
/// CRLF line ending is whitespace.  The string reader scans the text in place, with no
/// stream and no per-line allocation; the stream and file readers read
/// everything first and then parse it the same way.
Graph read_text(std::istream& input, SourceMap* locations = nullptr);
Graph read_text_string(const std::string& text, SourceMap* locations = nullptr);
Graph read_text_file(const std::string& path, SourceMap* locations = nullptr);

/// Writes the text format: the graph line (if the graph has a name), then
/// actors and channels in id order, one per line.  write_text_string
/// builds the text in one reserved string; the stream and file writers
/// write that string.
void write_text(std::ostream& output, const Graph& graph);
std::string write_text_string(const Graph& graph);
void write_text_file(const std::string& path, const Graph& graph);

}  // namespace sdf
