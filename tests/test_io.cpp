// Unit tests for the I/O layer: text format, SDF3-style XML, DOT export.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/errors.hpp"
#include "gen/benchmarks.hpp"
#include "gen/random_sdf.hpp"
#include "gen/regular.hpp"
#include "io/dot.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "io/xml_node.hpp"
#include "transform/compare.hpp"
#include "transform/hsdf_reduced.hpp"

namespace sdf {
namespace {

std::string read_bytes(const std::string& path) {
    std::ifstream stream(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    return buffer.str();
}

/// The message read_text_string throws for `text`, or "" when it parses.
std::string parse_error_of(const std::string& text) {
    try {
        read_text_string(text);
    } catch (const ParseError& e) {
        return e.what();
    }
    return "";
}

TEST(TextIo, ParsesWellFormedInput) {
    const Graph g = read_text_string(
        "# a comment\n"
        "graph demo\n"
        "actor a 3\n"
        "actor b 0   # trailing comment\n"
        "channel a b 2 3 1\n");
    EXPECT_EQ(g.name(), "demo");
    EXPECT_EQ(g.actor_count(), 2u);
    ASSERT_EQ(g.channel_count(), 1u);
    EXPECT_EQ(g.channel(0).production, 2);
    EXPECT_EQ(g.channel(0).consumption, 3);
    EXPECT_EQ(g.channel(0).initial_tokens, 1);
    EXPECT_EQ(g.actor(0).execution_time, 3);
}

TEST(TextIo, ErrorsCarryLineNumbers) {
    try {
        read_text_string("actor a 3\nchannel a nosuch 1 1 0\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(TextIo, RejectsMalformedLines) {
    EXPECT_THROW(read_text_string("bogus x\n"), ParseError);
    EXPECT_THROW(read_text_string("actor a\n"), ParseError);
    EXPECT_THROW(read_text_string("actor a twelve\n"), ParseError);
    EXPECT_THROW(read_text_string("graph a b\n"), ParseError);
    EXPECT_THROW(read_text_string("actor a 1\nchannel a a 1 1\n"), ParseError);
    EXPECT_THROW(read_text_string("actor a 1\nactor a 2\n"), ParseError);
    EXPECT_THROW(read_text_file("/nonexistent/path.sdf"), ParseError);
}

TEST(TextIo, RoundTripsAllBenchmarks) {
    for (const BenchmarkCase& bench : table1_benchmarks()) {
        const Graph parsed = read_text_string(write_text_string(bench.graph));
        EXPECT_TRUE(structurally_equal(parsed, bench.graph)) << bench.label;
        EXPECT_EQ(parsed.name(), bench.graph.name()) << bench.label;
    }
}

TEST(TextIo, ReducedGoldensRenderByteForByte) {
    std::vector<std::string> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(std::string(SDFRED_DATA_DIR) + "/reduced")) {
        if (entry.path().extension() == ".sdf") {
            files.push_back(entry.path().string());
        }
    }
    ASSERT_GE(files.size(), 10u);
    for (const std::string& file : files) {
        EXPECT_EQ(write_text_string(read_text_file(file)), read_bytes(file)) << file;
    }
}

TEST(TextIo, RandomGraphsRoundTripCanonically) {
    for (unsigned seed = 1; seed <= 200; ++seed) {
        std::mt19937 rng(seed);
        Graph g = random_sdf(rng);
        if (seed % 2 == 0) {
            g.set_name("random" + std::to_string(seed));
        }
        const std::string text = write_text_string(g);
        const Graph parsed = read_text_string(text);
        EXPECT_TRUE(structurally_equal(parsed, g)) << "seed " << seed;
        EXPECT_EQ(parsed.name(), g.name()) << "seed " << seed;
        EXPECT_EQ(write_text_string(parsed), text) << "seed " << seed;
    }
}

TEST(TextIo, LineEndingsTabsAndCommentsDoNotChangeTheGraph) {
    const std::string canonical =
        "graph demo\n"
        "actor a 3\n"
        "actor b 0\n"
        "channel a b 2 3 1\n"
        "channel b a 3 2 0\n";
    const std::vector<std::string> variants = {
        // CRLF line endings.
        "graph demo\r\nactor a 3\r\nactor b 0\r\nchannel a b 2 3 1\r\n"
        "channel b a 3 2 0\r\n",
        // Tabs, vertical tabs and form feeds between and around fields.
        "\tgraph\tdemo\t\nactor  a\t3\nactor\vb\f0\n"
        "channel a b\t2 3\t1 \nchannel b a 3 2 0\n",
        // Comment-only lines, blank lines, trailing comments.
        "# header\n\ngraph demo # name\n   # indented comment\nactor a 3\n"
        "actor b 0#tight\n\n\nchannel a b 2 3 1\nchannel b a 3 2 0 # last\n",
        // No final newline.
        "graph demo\nactor a 3\nactor b 0\nchannel a b 2 3 1\nchannel b a 3 2 0",
        // Explicit signs and leading zeros that from_chars reads as the value.
        "graph demo\nactor a 03\nactor b -0\nchannel a b 2 3 001\nchannel b a 3 2 0\n",
    };
    for (const std::string& text : variants) {
        EXPECT_EQ(write_text_string(read_text_string(text)), canonical) << text;
    }
}

TEST(TextIo, LineNumbersCountEveryLine) {
    SourceMap map;
    const Graph g = read_text_string(
        "# comment\r\n\r\nactor a 1\r\n  \t\n# x\nactor b 2\nchannel a b 1 1 0", &map);
    EXPECT_EQ(g.actor_count(), 2u);
    ASSERT_EQ(map.actors.size(), 2u);
    ASSERT_EQ(map.channels.size(), 1u);
    EXPECT_EQ(map.actors[0].line, 3u);
    EXPECT_EQ(map.actors[1].line, 6u);
    EXPECT_EQ(map.channels[0].line, 7u);
}

TEST(TextIo, NumbersAndNames) {
    // int64 bounds: the largest value parses, one more overflows.
    const Graph big = read_text_string("actor a 9223372036854775807\n");
    EXPECT_EQ(big.actor(0).execution_time, 9223372036854775807);
    EXPECT_EQ(write_text_string(big), "actor a 9223372036854775807\n");
    EXPECT_NE(parse_error_of("actor a 9223372036854775808\n"), "");
    EXPECT_NE(parse_error_of("actor a +5\n"), "");
    // An unnamed graph writes no graph line; names are taken byte for byte.
    Graph unnamed;
    unnamed.add_actor("\xc3\xa9t\xc3\xa9", 1);
    unnamed.add_actor("a-b.c[0]", 2);
    EXPECT_EQ(write_text_string(unnamed), "actor \xc3\xa9t\xc3\xa9 1\nactor a-b.c[0] 2\n");
    EXPECT_TRUE(structurally_equal(read_text_string(write_text_string(unnamed)), unnamed));
    EXPECT_EQ(write_text_string(Graph()), "");
    EXPECT_EQ(read_text_string("").actor_count(), 0u);
    EXPECT_EQ(read_text_string("\n\n# only comments\n").actor_count(), 0u);
}

TEST(TextIo, ParseErrorMessagesArePinned) {
    // Each message, line number included, as the stream-based reader
    // printed it.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"bogus x\n", "line 1: unknown keyword 'bogus'"},
        {"Actor a 1\n", "line 1: unknown keyword 'Actor'"},
        {"x\n", "line 1: unknown keyword 'x'"},
        {"actor a\n", "line 1: actor takes a name and an execution time"},
        {"actor a#x 1\n", "line 1: actor takes a name and an execution time"},
        {"actor a 1 2 3 4 5 6 7\n", "line 1: actor takes a name and an execution time"},
        {"actor a 1\rchannel a a 1 1 0\n",
         "line 1: actor takes a name and an execution time"},
        {"actor a twelve\n", "line 1: expected integer for execution time, got 'twelve'"},
        {"actor a 1.5\n", "line 1: expected integer for execution time, got '1.5'"},
        {"actor a 0x10\n", "line 1: expected integer for execution time, got '0x10'"},
        {"actor a +5\n", "line 1: expected integer for execution time, got '+5'"},
        {"actor a 9223372036854775807\nactor b 9223372036854775808\n",
         "line 2: expected integer for execution time, got '9223372036854775808'"},
        {"actor a 99999999999999999999\n",
         "line 1: expected integer for execution time, got '99999999999999999999'"},
        {"actor a -1\n", "line 1: actor 'a' has negative execution time"},
        {"graph a b\n", "line 1: graph takes exactly one name"},
        {"graph\n", "line 1: graph takes exactly one name"},
        {"graph g h i j k l m n\n", "line 1: graph takes exactly one name"},
        {"channel\n", "line 1: channel takes src dst production consumption tokens"},
        {"actor a 1\nchannel a a 1 1\n",
         "line 2: channel takes src dst production consumption tokens"},
        {"actor a 1\nchannel a a 1 1 0 9\n",
         "line 2: channel takes src dst production consumption tokens"},
        {"actor a 1\nactor a 2\n", "line 2: duplicate actor name 'a'"},
        {"actor a 1\nchannel a a 1 1 0\nactor a 2\n", "line 3: duplicate actor name 'a'"},
        {"actor a 3\nchannel a nosuch 1 1 0\n", "line 2: unknown destination actor 'nosuch'"},
        {"actor a 3\nchannel nosuch a 1 1 0\n", "line 2: unknown source actor 'nosuch'"},
        {"actor a 3\nchannel x y 1 1 0\n", "line 2: unknown source actor 'x'"},
        {"actor\ta\t1\nchannel\ta\tb 1 1 0\n", "line 2: unknown destination actor 'b'"},
        {"actor a 1\n\n\n\n\n\n\n\n\n\nchannel a b 1 1 0\n",
         "line 11: unknown destination actor 'b'"},
        {"actor a 1\nchannel a a 0 1 0\n", "line 2: channel production rate must be positive"},
        {"actor a 1\nchannel a a 1 0 0\n",
         "line 2: channel consumption rate must be positive"},
        {"actor a 1\nchannel a a 1 1 -1\n",
         "line 2: channel initial tokens must be non-negative"},
        // The last field is checked first.
        {"actor a 1\nchannel a a x y z\n", "line 2: expected integer for tokens, got 'z'"},
        {"actor a 1\nchannel a a 1 1 x\n", "line 2: expected integer for tokens, got 'x'"},
        {"actor a 1\nchannel a a 1 y 0\n",
         "line 2: expected integer for consumption, got 'y'"},
        {"actor a 1\nchannel a a x 1 0\n", "line 2: expected integer for production, got 'x'"},
        {"actor a 1\nchannel a a +1 1 0\n",
         "line 2: expected integer for production, got '+1'"},
        {"actor a 1\nchannel a a 1 1 9223372036854775808\n",
         "line 2: expected integer for tokens, got '9223372036854775808'"},
        {"actor a 1\r\n\r\nbogus\r\n", "line 3: unknown keyword 'bogus'"},
        {"actor a 1 # c\n# only comment\n  \t \nactor b x",
         "line 4: expected integer for execution time, got 'x'"},
        {"actor a 1\v\f\nbogus\n", "line 2: unknown keyword 'bogus'"},
    };
    for (const auto& [text, message] : cases) {
        EXPECT_EQ(parse_error_of(text), message) << text;
    }
}

TEST(TextIo, StreamAndFileReadersMatchTheStringReader) {
    const Graph g = samplerate_converter();
    const std::string text = "# leading comment\n" + write_text_string(g);
    std::istringstream stream(text);
    SourceMap from_stream;
    SourceMap from_string;
    EXPECT_EQ(write_text_string(read_text(stream, &from_stream)),
              write_text_string(read_text_string(text, &from_string)));
    ASSERT_EQ(from_stream.actors.size(), g.actor_count());
    for (std::size_t a = 0; a < g.actor_count(); ++a) {
        EXPECT_EQ(from_stream.actors[a].line, from_string.actors[a].line);
    }
    std::ostringstream out;
    write_text(out, g);
    EXPECT_EQ(out.str(), write_text_string(g));
    const std::string path = ::testing::TempDir() + "/reader.sdf";
    write_text_file(path, g);
    EXPECT_EQ(read_bytes(path), write_text_string(g));
    SourceMap from_file;
    EXPECT_TRUE(structurally_equal(read_text_file(path, &from_file), g));
    EXPECT_EQ(from_file.file, path);
}

TEST(XmlNode, ParsesElementsAttributesAndComments) {
    const XmlNode root = parse_xml(
        "<?xml version=\"1.0\"?>\n"
        "<!-- header comment -->\n"
        "<top a=\"1\" b=\"x &amp; y\">\n"
        "  <child/>\n"
        "  <!-- inner comment -->\n"
        "  <child name=\"two\">text is skipped</child>\n"
        "</top>\n");
    EXPECT_EQ(root.name, "top");
    EXPECT_EQ(root.required_attribute("a"), "1");
    EXPECT_EQ(root.required_attribute("b"), "x & y");
    EXPECT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children_named("child").size(), 2u);
    EXPECT_EQ(root.children[1].attribute("name"), "two");
    EXPECT_EQ(root.attribute("missing"), std::nullopt);
    EXPECT_THROW(root.required_attribute("missing"), ParseError);
}

TEST(XmlNode, RejectsMalformedDocuments) {
    EXPECT_THROW(parse_xml("<a><b></a>"), ParseError);
    EXPECT_THROW(parse_xml("<a attr=1></a>"), ParseError);
    EXPECT_THROW(parse_xml("<a>"), ParseError);
    EXPECT_THROW(parse_xml("<a/><b/>"), ParseError);
    EXPECT_THROW(parse_xml("<a x=\"&bogus;\"/>"), ParseError);
}

TEST(XmlNode, EscapeRoundTrip) {
    EXPECT_EQ(xml_escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(XmlIo, RoundTripsAllBenchmarks) {
    for (const BenchmarkCase& bench : table1_benchmarks()) {
        const Graph parsed = read_xml_string(write_xml_string(bench.graph));
        EXPECT_TRUE(structurally_equal(parsed, bench.graph)) << bench.label;
    }
}

TEST(XmlIo, ParsesHandWrittenSdf3Document) {
    const Graph g = read_xml_string(
        "<sdf3 type=\"sdf\" version=\"1.0\">"
        " <applicationGraph name=\"tiny\">"
        "  <sdf name=\"tiny\" type=\"tiny\">"
        "   <actor name=\"a\" type=\"a\"><port name=\"p\" type=\"out\" rate=\"2\"/></actor>"
        "   <actor name=\"b\" type=\"b\"><port name=\"q\" type=\"in\" rate=\"3\"/></actor>"
        "   <channel name=\"ch\" srcActor=\"a\" srcPort=\"p\" dstActor=\"b\" dstPort=\"q\""
        "            initialTokens=\"4\"/>"
        "  </sdf>"
        "  <sdfProperties>"
        "   <actorProperties actor=\"a\">"
        "    <processor type=\"p0\" default=\"true\"><executionTime time=\"11\"/></processor>"
        "   </actorProperties>"
        "  </sdfProperties>"
        " </applicationGraph>"
        "</sdf3>");
    EXPECT_EQ(g.name(), "tiny");
    ASSERT_EQ(g.channel_count(), 1u);
    EXPECT_EQ(g.channel(0).production, 2);
    EXPECT_EQ(g.channel(0).consumption, 3);
    EXPECT_EQ(g.channel(0).initial_tokens, 4);
    EXPECT_EQ(g.actor(*g.find_actor("a")).execution_time, 11);
    EXPECT_EQ(g.actor(*g.find_actor("b")).execution_time, 0);  // defaulted
}

TEST(XmlIo, RejectsStructurallyWrongDocuments) {
    EXPECT_THROW(read_xml_string("<nope/>"), ParseError);
    EXPECT_THROW(read_xml_string("<sdf3></sdf3>"), ParseError);
    EXPECT_THROW(read_xml_string("<sdf3><applicationGraph name=\"g\"/></sdf3>"),
                 ParseError);
    EXPECT_THROW(read_xml_string(
                     "<sdf3><applicationGraph name=\"g\"><sdf name=\"g\" type=\"g\">"
                     "<channel srcActor=\"x\" dstActor=\"y\"/>"
                     "</sdf></applicationGraph></sdf3>"),
                 ParseError);
}

TEST(XmlIo, ReducedModemBytesArePinned) {
    const Graph modem = read_xml_file(std::string(SDFRED_DATA_DIR) + "/modem.xml");
    const std::string xml = write_xml_string(to_hsdf_reduced(modem));
    EXPECT_EQ(xml, read_bytes(std::string(SDFRED_GOLDEN_DIR) + "/modem.reduced.xml"));
}

TEST(XmlIo, SelfLoopPortsAndEscapesArePinned) {
    // A self-loop gives its actor the out port, then the in port; names
    // carry every escaped character.
    const std::string golden = std::string(SDFRED_GOLDEN_DIR) + "/escaped_selfloops";
    const Graph g = read_text_file(golden + ".sdf");
    const std::string xml = write_xml_string(g);
    EXPECT_EQ(xml, read_bytes(golden + ".xml"));
    const Graph back = read_xml_string(xml);
    EXPECT_TRUE(structurally_equal(back, g));
    EXPECT_EQ(back.name(), g.name());
}

TEST(DotIo, ContainsActorsAndLabels) {
    const std::string dot = write_dot_string(figure1_abstract());
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("A\\n(5)"), std::string::npos);
    EXPECT_NE(dot.find("d=2"), std::string::npos);
    // Homogeneous channels omit the rate label.
    EXPECT_EQ(dot.find("1:1"), std::string::npos);
}

TEST(DotIo, RatedChannelsAreLabelled) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 2, 3, 1);
    const std::string dot = write_dot_string(g);
    EXPECT_NE(dot.find("2:3 d=1"), std::string::npos);
}

TEST(FileIo, TextAndXmlAndDotFilesRoundTrip) {
    const Graph g = samplerate_converter();
    const std::string dir = ::testing::TempDir();
    write_text_file(dir + "/g.sdf", g);
    EXPECT_TRUE(structurally_equal(read_text_file(dir + "/g.sdf"), g));
    write_xml_file(dir + "/g.xml", g);
    EXPECT_TRUE(structurally_equal(read_xml_file(dir + "/g.xml"), g));
    write_dot_file(dir + "/g.dot", g);
    EXPECT_THROW(write_text_file("/nonexistent/dir/g.sdf", g), ParseError);
}

}  // namespace
}  // namespace sdf
