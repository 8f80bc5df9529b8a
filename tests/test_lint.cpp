// Tests for the lint subsystem (src/lint): rule registry invariants,
// individual rules on constructed graphs, golden-file JSON diagnostics on
// the deliberately broken models under data/bad/, and the property that
// every shipped data file lints without errors.  SDFRED_DATA_DIR and
// SDFRED_DOCS_DIR are injected by the build system.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "io/text.hpp"
#include "io/xml.hpp"
#include "lint/lint.hpp"
#include "lint/registry.hpp"
#include "lint/render.hpp"
#include "serve/ops.hpp"

namespace sdf {
namespace {

const std::string kDataDir = SDFRED_DATA_DIR;
const std::string kDocsDir = SDFRED_DOCS_DIR;

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

bool has_rule(const LintReport& report, const std::string& id) {
    for (const Diagnostic& d : report.diagnostics) {
        if (d.rule == id) {
            return true;
        }
    }
    return false;
}

TEST(LintRegistry, AtLeastTwelveRulesWithUniqueStableIds) {
    const std::vector<Rule>& rules = lint_rules();
    EXPECT_GE(rules.size(), 12u);
    std::set<std::string> ids;
    for (const Rule& rule : rules) {
        EXPECT_EQ(rule.id.size(), 6u) << rule.id;
        EXPECT_EQ(rule.id.substr(0, 3), "SDF") << rule.id;
        EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate id " << rule.id;
        EXPECT_FALSE(rule.title.empty()) << rule.id;
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
        EXPECT_EQ(find_rule(rule.id), &rule);
    }
    EXPECT_EQ(find_rule("SDF999"), nullptr);
}

TEST(LintRegistry, RuleTableMatchesDocs) {
    const std::string docs = slurp(kDocsDir + "/LINT_RULES.md");
    for (const Rule& rule : lint_rules()) {
        EXPECT_NE(docs.find(rule.id), std::string::npos)
            << rule.id << " missing from docs/LINT_RULES.md";
        EXPECT_NE(docs.find(rule.title), std::string::npos)
            << rule.title << " missing from docs/LINT_RULES.md";
    }
}

TEST(LintRules, EmptyGraphIsAnError) {
    const LintReport report = lint_graph(Graph("empty"));
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].rule, "SDF001");
    EXPECT_EQ(report.diagnostics[0].severity, Severity::error);
    EXPECT_EQ(report.worst(), Severity::error);
}

TEST(LintRules, CleanRingHasNoFindingsAboveNote) {
    Graph ring;
    const ActorId a = ring.add_actor("a", 3);
    const ActorId b = ring.add_actor("b", 4);
    ring.add_channel(a, b, 0);
    ring.add_channel(b, a, 1);
    const LintReport report = lint_graph(ring);
    EXPECT_FALSE(report.has_at_least(Severity::warning)) << render_text(report, "");
    EXPECT_TRUE(has_rule(report, "SDF011"));  // no self-loops: note only
}

TEST(LintRules, ActorOffCycleAndDisconnected) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 1, 1, 0);  // chain, no feedback
    g.add_actor("lonely", 1);      // second component, no channels
    const LintReport report = lint_graph(g);
    EXPECT_TRUE(has_rule(report, "SDF004"));
    EXPECT_TRUE(has_rule(report, "SDF005"));
    EXPECT_TRUE(has_rule(report, "SDF006"));
}

TEST(LintRules, ZeroExecutionTimeOnlyFlaggedInTimedGraphs) {
    Graph untimed;
    const ActorId a = untimed.add_actor("a", 0);
    untimed.add_channel(a, a, 1, 1, 1);
    EXPECT_FALSE(has_rule(lint_graph(untimed), "SDF007"));

    Graph timed;
    const ActorId t0 = timed.add_actor("t0", 0);
    const ActorId t1 = timed.add_actor("t1", 5);
    timed.add_channel(t0, t1, 1, 1, 0);
    timed.add_channel(t1, t0, 1, 1, 1);
    EXPECT_TRUE(has_rule(lint_graph(timed), "SDF007"));
}

TEST(LintRules, RedundantParallelChannel) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 1, 1, 0);
    g.add_channel(a, b, 1, 1, 3);  // dominated: equal rates, more tokens
    g.add_channel(b, a, 1, 1, 1);
    const LintReport report = lint_graph(g);
    EXPECT_TRUE(has_rule(report, "SDF015"));
}

TEST(LintRules, InvalidNameDerivedAbstraction) {
    // "fir1"/"fir2" suggest a group, but unequal repetition entries violate
    // Definition 3 (same shape as the shipped samplerate benchmark).
    Graph g;
    const ActorId f1 = g.add_actor("fir1", 1);
    const ActorId f2 = g.add_actor("fir2", 1);
    g.add_channel(f1, f2, 2, 3, 6);
    g.add_channel(f2, f1, 3, 2, 6);
    const LintReport report = lint_graph(g);
    EXPECT_TRUE(has_rule(report, "SDF014"));
    EXPECT_FALSE(report.has_at_least(Severity::error)) << render_text(report, "");
}

TEST(LintRules, RuleSelectionFiltersFindings) {
    Graph dead;
    const ActorId a = dead.add_actor("a", 1);
    const ActorId b = dead.add_actor("b", 1);
    dead.add_channel(a, b, 0);
    dead.add_channel(b, a, 0);
    LintOptions only_cycle;
    only_cycle.rules = {"SDF016"};
    const LintReport report = lint_graph(dead, nullptr, only_cycle);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].rule, "SDF016");
}

TEST(LintRules, ThresholdsAreTunable) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 5, 1, 0);
    g.add_channel(b, a, 1, 5, 5);
    LintOptions strict;
    strict.max_hsdf_actors = 4;  // iteration has 6 firings
    strict.overflow_limit = 4;   // 5 tokens per iteration on each channel
    const LintReport report = lint_graph(g, nullptr, strict);
    EXPECT_TRUE(has_rule(report, "SDF008"));
    EXPECT_TRUE(has_rule(report, "SDF009"));  // N(N+2) = 35 > 4
    EXPECT_TRUE(has_rule(report, "SDF010"));
}

TEST(LintRender, TextUsesCompilerConvention) {
    SourceMap map;
    Graph dead;
    std::ifstream in(kDataDir + "/bad/deadlocked.sdf");
    ASSERT_TRUE(in.is_open());
    dead = read_text(in, &map);
    const LintReport report = lint_graph(dead, &map);
    const std::string text = render_text(report, "deadlocked.sdf");
    EXPECT_NE(text.find("deadlocked.sdf:6:1: error:"), std::string::npos) << text;
    EXPECT_NE(text.find("[SDF003]"), std::string::npos) << text;
    EXPECT_NE(text.find("hint:"), std::string::npos) << text;
}

TEST(LintRender, EmptyReportRendersEmptyJson) {
    const std::string json = serve::ops::lint_json(LintReport{}, "f.sdf", "g").dump_report();
    EXPECT_NE(json.find("\"diagnostics\": []"), std::string::npos) << json;
    EXPECT_NE(json.find("\"counts\": {\"error\": 0, \"warning\": 0, \"note\": 0}"),
              std::string::npos)
        << json;
}

// Golden-file tests: the JSON diagnostics for every model under data/bad/
// are part of the contract (rule ids, severities, line numbers, order).
class LintGolden : public ::testing::TestWithParam<const char*> {};

TEST_P(LintGolden, JsonDiagnosticsMatchGoldenFile) {
    const std::string name = GetParam();
    const std::string path = kDataDir + "/bad/" + name;
    SourceMap map;
    Graph graph;
    if (path.size() > 4 && path.substr(path.size() - 4) == ".xml") {
        graph = read_xml_file(path, &map);
    } else {
        graph = read_text_file(path, &map);
    }
    const LintReport report = lint_graph(graph, &map);
    // Goldens store the basename so the test is location-independent.
    const std::string json =
        serve::ops::lint_json(report, name, graph.name()).dump_report();
    const std::string golden =
        slurp(kDataDir + "/bad/" + name.substr(0, name.rfind('.')) + ".expected.json");
    EXPECT_EQ(json, golden);
}

INSTANTIATE_TEST_SUITE_P(BadModels, LintGolden,
                         ::testing::Values("inconsistent.xml", "deadlocked.sdf",
                                           "overflow.sdf", "starved_selfloop.sdf"));

TEST(LintGoldenCoverage, BadModelsTriggerTheirIntendedRules) {
    const auto lint_file = [](const std::string& path) {
        SourceMap map;
        const Graph graph = path.size() > 4 && path.substr(path.size() - 4) == ".xml"
                                ? read_xml_file(path, &map)
                                : read_text_file(path, &map);
        return lint_graph(graph, &map);
    };
    EXPECT_TRUE(has_rule(lint_file(kDataDir + "/bad/inconsistent.xml"), "SDF002"));
    EXPECT_TRUE(has_rule(lint_file(kDataDir + "/bad/deadlocked.sdf"), "SDF003"));
    EXPECT_TRUE(has_rule(lint_file(kDataDir + "/bad/deadlocked.sdf"), "SDF016"));
    const LintReport overflow = lint_file(kDataDir + "/bad/overflow.sdf");
    EXPECT_TRUE(has_rule(overflow, "SDF008"));
    EXPECT_TRUE(has_rule(overflow, "SDF009"));
    EXPECT_TRUE(has_rule(overflow, "SDF010"));
    EXPECT_TRUE(has_rule(lint_file(kDataDir + "/bad/starved_selfloop.sdf"), "SDF013"));
}

// Property: every shipped benchmark model lints without errors — the lint
// front door must never reject inputs the analyses accept.
TEST(LintProperty, AllShippedDataFilesLintWithoutErrors) {
    std::size_t checked = 0;
    for (const auto& entry : std::filesystem::directory_iterator(kDataDir)) {
        if (!entry.is_regular_file()) {
            continue;  // data/bad/ is deliberately broken and skipped
        }
        const std::string path = entry.path().string();
        const std::string ext = entry.path().extension().string();
        if (ext != ".xml" && ext != ".sdf") {
            continue;
        }
        SourceMap map;
        const Graph graph =
            ext == ".xml" ? read_xml_file(path, &map) : read_text_file(path, &map);
        const LintReport report = lint_graph(graph, &map);
        EXPECT_FALSE(report.has_at_least(Severity::error))
            << path << "\n" << render_text(report, path);
        ++checked;
    }
    EXPECT_GE(checked, 10u);  // all shipped models were actually visited
}

}  // namespace
}  // namespace sdf
