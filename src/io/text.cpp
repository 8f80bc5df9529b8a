#include "io/text.hpp"

#include <array>
#include <fstream>
#include <sstream>
#include <string_view>

#include "base/errors.hpp"
#include "base/string_util.hpp"

namespace sdf {

namespace {

[[noreturn]] void parse_fail(std::size_t line, const std::string& message) {
    throw ParseError("line " + std::to_string(line) + ": " + message);
}

Int parse_int_or_fail(std::string_view field, std::size_t line, const char* what) {
    const auto value = parse_int(field);
    if (!value) {
        parse_fail(line, "expected integer for " + std::string(what) + ", got '" +
                             std::string(field) + "'");
    }
    return *value;
}

/// A line holds at most 6 fields; a 7th only has to be seen to reject it.
constexpr std::size_t kMaxFields = 7;

/// The whitespace-separated fields of `line`, views into it.  `count` stops
/// at kMaxFields, which every field-count check reads as "too many".
struct Fields {
    std::array<std::string_view, kMaxFields> field;
    std::size_t count = 0;
};

Fields split_fields(std::string_view line) {
    Fields fields;
    std::size_t i = 0;
    while (fields.count < kMaxFields) {
        while (i < line.size() && is_space(line[i])) {
            ++i;
        }
        if (i == line.size()) {
            break;
        }
        const std::size_t start = i;
        while (i < line.size() && !is_space(line[i])) {
            ++i;
        }
        fields.field[fields.count++] = line.substr(start, i - start);
    }
    return fields;
}

/// Makes room in `graph` for the lines that start with "actor " and
/// "channel ", so that it grows its arrays and its name index once.  A hint
/// only: an indented declaration is not counted, and the graph grows as
/// needed for it.
void reserve_lines(Graph& graph, std::string_view text) {
    std::size_t actors = 0;
    std::size_t channels = 0;
    for (std::size_t pos = 0; pos < text.size(); ++pos) {
        if (text.compare(pos, 6, "actor ") == 0) {
            ++actors;
        } else if (text.compare(pos, 8, "channel ") == 0) {
            ++channels;
        }
        pos = text.find('\n', pos);
        if (pos == std::string_view::npos) {
            break;
        }
    }
    graph.reserve(actors, channels);
}

Graph parse_text(std::string_view text, SourceMap* locations) {
    Graph graph;
    reserve_lines(graph, text);
    std::size_t line_number = 0;
    std::size_t pos = 0;
    // Lines end at '\n' like std::getline's: a final newline opens no line.
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string_view::npos) {
            end = text.size();
        }
        std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        ++line_number;
        line = line.substr(0, line.find('#'));
        const Fields fields = split_fields(line);
        if (fields.count == 0) {
            continue;
        }
        const auto& f = fields.field;
        const std::string_view keyword = f[0];
        if (keyword == "graph") {
            if (fields.count != 2) {
                parse_fail(line_number, "graph takes exactly one name");
            }
            graph.set_name(std::string(f[1]));
        } else if (keyword == "actor") {
            if (fields.count != 3) {
                parse_fail(line_number, "actor takes a name and an execution time");
            }
            const Int time = parse_int_or_fail(f[2], line_number, "execution time");
            try {
                graph.add_actor(std::string(f[1]), time);
            } catch (const InvalidGraphError& e) {
                parse_fail(line_number, e.what());
            }
            if (locations != nullptr) {
                locations->actors.push_back(SourceLoc{line_number, 1});
            }
        } else if (keyword == "channel") {
            if (fields.count != 6) {
                parse_fail(line_number,
                           "channel takes src dst production consumption tokens");
            }
            const auto src = graph.find_actor(f[1]);
            const auto dst = graph.find_actor(f[2]);
            if (!src) {
                parse_fail(line_number, "unknown source actor '" + std::string(f[1]) + "'");
            }
            if (!dst) {
                parse_fail(line_number,
                           "unknown destination actor '" + std::string(f[2]) + "'");
            }
            // Checked from the last field to the first: when several are
            // malformed, the message names the last one.
            const Int tokens = parse_int_or_fail(f[5], line_number, "tokens");
            const Int consumption = parse_int_or_fail(f[4], line_number, "consumption");
            const Int production = parse_int_or_fail(f[3], line_number, "production");
            try {
                graph.add_channel(*src, *dst, production, consumption, tokens);
            } catch (const InvalidGraphError& e) {
                parse_fail(line_number, e.what());
            }
            if (locations != nullptr) {
                locations->channels.push_back(SourceLoc{line_number, 1});
            }
        } else {
            parse_fail(line_number, "unknown keyword '" + std::string(keyword) + "'");
        }
    }
    return graph;
}

std::string read_all(std::istream& input) {
    std::ostringstream buffer;
    buffer << input.rdbuf();
    return buffer.str();
}

}  // namespace

Graph read_text(std::istream& input, SourceMap* locations) {
    return parse_text(read_all(input), locations);
}

Graph read_text_string(const std::string& text, SourceMap* locations) {
    return parse_text(text, locations);
}

Graph read_text_file(const std::string& path, SourceMap* locations) {
    std::ifstream stream(path);
    if (!stream) {
        throw ParseError("cannot open '" + path + "'");
    }
    Graph graph = parse_text(read_all(stream), locations);
    if (locations != nullptr) {
        locations->file = path;
    }
    return graph;
}

void write_text(std::ostream& output, const Graph& graph) {
    const std::string text = write_text_string(graph);
    output.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string write_text_string(const Graph& graph) {
    // Room for every name and keyword plus short numbers; longer numbers
    // grow the string geometrically.
    constexpr std::size_t kNumber = 4;
    const std::vector<Actor>& actors = graph.actors();
    std::size_t size = graph.name().size() + 7;
    for (const Actor& a : actors) {
        size += a.name.size() + 8 + kNumber;
    }
    for (const Channel& c : graph.channels()) {
        size += actors[c.src].name.size() + actors[c.dst].name.size() + 13 + 3 * kNumber;
    }
    std::string out;
    out.reserve(size);
    if (!graph.name().empty()) {
        out += "graph ";
        out += graph.name();
        out += '\n';
    }
    for (const Actor& a : actors) {
        out += "actor ";
        out += a.name;
        out += ' ';
        append_decimal(out, a.execution_time);
        out += '\n';
    }
    for (const Channel& c : graph.channels()) {
        out += "channel ";
        out += actors[c.src].name;
        out += ' ';
        out += actors[c.dst].name;
        out += ' ';
        append_decimal(out, c.production);
        out += ' ';
        append_decimal(out, c.consumption);
        out += ' ';
        append_decimal(out, c.initial_tokens);
        out += '\n';
    }
    return out;
}

void write_text_file(const std::string& path, const Graph& graph) {
    std::ofstream stream(path);
    if (!stream) {
        throw ParseError("cannot open '" + path + "' for writing");
    }
    write_text(stream, graph);
}

}  // namespace sdf
