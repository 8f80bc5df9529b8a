#include "io/xml.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "base/errors.hpp"
#include "base/string_util.hpp"
#include "io/xml_node.hpp"

namespace sdf {

namespace {

Int parse_int_attr(const XmlNode& node, const std::string& key, Int fallback) {
    const auto text = node.attribute(key);
    if (!text) {
        return fallback;
    }
    const auto value = parse_int(*text);
    if (!value) {
        throw ParseError("attribute " + key + "=\"" + *text + "\" is not an integer");
    }
    return *value;
}

}  // namespace

Graph read_xml_string(const std::string& text, SourceMap* locations) {
    const XmlNode root = parse_xml(text);
    if (root.name != "sdf3") {
        throw ParseError("root element must be <sdf3>, got <" + root.name + ">");
    }
    const XmlNode* app = root.child("applicationGraph");
    if (app == nullptr) {
        throw ParseError("<sdf3> misses <applicationGraph>");
    }
    const XmlNode* sdf_node = app->child("sdf");
    if (sdf_node == nullptr) {
        throw ParseError("<applicationGraph> misses <sdf>");
    }

    Graph graph(app->attribute("name").value_or(sdf_node->attribute("name").value_or("")));

    // Execution times from <sdfProperties>, keyed by actor name.
    std::map<std::string, Int> execution_time;
    if (const XmlNode* properties = app->child("sdfProperties")) {
        for (const XmlNode* actor_props : properties->children_named("actorProperties")) {
            const std::string& actor = actor_props->required_attribute("actor");
            for (const XmlNode* processor : actor_props->children_named("processor")) {
                if (const XmlNode* et = processor->child("executionTime")) {
                    execution_time[actor] = parse_int_attr(*et, "time", 0);
                }
            }
        }
    }

    // Actors and their port rates.
    std::map<std::pair<std::string, std::string>, Int> port_rate;
    for (const XmlNode* actor : sdf_node->children_named("actor")) {
        const std::string& name = actor->required_attribute("name");
        const auto et = execution_time.find(name);
        graph.add_actor(name, et == execution_time.end() ? 0 : et->second);
        if (locations != nullptr) {
            locations->actors.push_back(SourceLoc{actor->line, actor->column});
        }
        for (const XmlNode* port : actor->children_named("port")) {
            port_rate[{name, port->required_attribute("name")}] =
                parse_int_attr(*port, "rate", 1);
        }
    }

    // Channels: rates resolve through the named ports.
    for (const XmlNode* channel : sdf_node->children_named("channel")) {
        const std::string& src = channel->required_attribute("srcActor");
        const std::string& dst = channel->required_attribute("dstActor");
        const auto src_id = graph.find_actor(src);
        const auto dst_id = graph.find_actor(dst);
        if (!src_id || !dst_id) {
            throw ParseError("channel references unknown actor '" + (src_id ? dst : src) +
                             "'");
        }
        const auto rate_of = [&](const std::string& actor,
                                 const std::string& port_attr) -> Int {
            const auto port = channel->attribute(port_attr);
            if (!port) {
                return 1;
            }
            const auto it = port_rate.find({actor, *port});
            if (it == port_rate.end()) {
                throw ParseError("channel references unknown port '" + *port +
                                 "' of actor '" + actor + "'");
            }
            return it->second;
        };
        graph.add_channel(*src_id, *dst_id, rate_of(src, "srcPort"), rate_of(dst, "dstPort"),
                          parse_int_attr(*channel, "initialTokens", 0));
        if (locations != nullptr) {
            locations->channels.push_back(SourceLoc{channel->line, channel->column});
        }
    }
    return graph;
}

Graph read_xml_file(const std::string& path, SourceMap* locations) {
    std::ifstream stream(path);
    if (!stream) {
        throw ParseError("cannot open '" + path + "'");
    }
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    Graph graph = read_xml_string(buffer.str(), locations);
    if (locations != nullptr) {
        locations->file = path;
    }
    return graph;
}

std::string write_xml_string(const Graph& graph) {
    const std::vector<Actor>& actors = graph.actors();
    const std::vector<Channel>& channels = graph.channels();
    // One output port per outgoing channel, one input port per incoming, in
    // channel order: actor a's ports are port[port_begin[a] .. port_begin[a+1]),
    // each 2c for out-port c or 2c+1 for in-port c.  One pass over the
    // channels fills every actor's list.
    std::vector<std::size_t> port_begin(actors.size() + 1, 0);
    for (const Channel& ch : channels) {
        ++port_begin[ch.src + 1];
        ++port_begin[ch.dst + 1];
    }
    for (std::size_t a = 0; a < actors.size(); ++a) {
        port_begin[a + 1] += port_begin[a];
    }
    std::vector<std::size_t> port(2 * channels.size());
    std::vector<std::size_t> next(port_begin.begin(), port_begin.end() - 1);
    for (ChannelId c = 0; c < channels.size(); ++c) {
        port[next[channels[c].src]++] = 2 * c;
        port[next[channels[c].dst]++] = 2 * c + 1;
    }

    std::string out;
    const auto quoted = [&out](std::string_view text) {
        out += '"';
        append_xml_escaped(out, text);
        out += '"';
    };
    const std::string name = graph.name().empty() ? "graph" : graph.name();
    out += "<?xml version=\"1.0\"?>\n";
    out += "<sdf3 type=\"sdf\" version=\"1.0\">\n";
    out += "  <applicationGraph name=";
    quoted(name);
    out += ">\n    <sdf name=";
    quoted(name);
    out += " type=";
    quoted(name);
    out += ">\n";
    for (ActorId a = 0; a < actors.size(); ++a) {
        out += "      <actor name=";
        quoted(actors[a].name);
        out += " type=";
        quoted(actors[a].name);
        out += ">\n";
        for (std::size_t p = port_begin[a]; p < port_begin[a + 1]; ++p) {
            const ChannelId c = port[p] / 2;
            const bool is_out = port[p] % 2 == 0;
            out += is_out ? "        <port name=\"out" : "        <port name=\"in";
            append_decimal(out, c);
            out += is_out ? "\" type=\"out\" rate=\"" : "\" type=\"in\" rate=\"";
            append_decimal(out, is_out ? channels[c].production : channels[c].consumption);
            out += "\"/>\n";
        }
        out += "      </actor>\n";
    }
    for (ChannelId c = 0; c < channels.size(); ++c) {
        const Channel& ch = channels[c];
        out += "      <channel name=\"ch";
        append_decimal(out, c);
        out += "\" srcActor=";
        quoted(actors[ch.src].name);
        out += " srcPort=\"out";
        append_decimal(out, c);
        out += "\" dstActor=";
        quoted(actors[ch.dst].name);
        out += " dstPort=\"in";
        append_decimal(out, c);
        out += '"';
        if (ch.initial_tokens > 0) {
            out += " initialTokens=\"";
            append_decimal(out, ch.initial_tokens);
            out += '"';
        }
        out += "/>\n";
    }
    out += "    </sdf>\n";
    out += "    <sdfProperties>\n";
    for (const Actor& actor : actors) {
        out += "      <actorProperties actor=";
        quoted(actor.name);
        out += ">\n";
        out += "        <processor type=\"proc_0\" default=\"true\">\n";
        out += "          <executionTime time=\"";
        append_decimal(out, actor.execution_time);
        out += "\"/>\n";
        out += "        </processor>\n";
        out += "      </actorProperties>\n";
    }
    out += "    </sdfProperties>\n";
    out += "  </applicationGraph>\n";
    out += "</sdf3>\n";
    return out;
}

void write_xml_file(const std::string& path, const Graph& graph) {
    std::ofstream stream(path);
    if (!stream) {
        throw ParseError("cannot open '" + path + "' for writing");
    }
    stream << write_xml_string(graph);
}

}  // namespace sdf
