// End-to-end tests for tools/sdfred_cli.cpp: drive the installed binary on
// real files and check outputs and exit codes.  The binary path comes from
// the build system (SDFRED_CLI_PATH).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "csdf/graph.hpp"
#include "gen/benchmarks.hpp"
#include "io/csdf_xml.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "transform/compare.hpp"

namespace sdf {
namespace {

struct CliResult {
    int exit_code = -1;
    std::string output;  // stdout + stderr
};

CliResult run_cli(const std::string& arguments, const std::string& env_prefix = {}) {
    const std::string log = ::testing::TempDir() + "/cli_out.txt";
    const std::string command =
        env_prefix + std::string(SDFRED_CLI_PATH) + " " + arguments + " > " + log + " 2>&1";
    const int status = std::system(command.c_str());
    CliResult result;
    result.exit_code = WEXITSTATUS(status);
    std::ifstream in(log);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    result.output = buffer.str();
    return result;
}

class CliTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = ::testing::TempDir();
        write_text_file(dir_ + "/h263.sdf", h263_decoder());
        write_xml_file(dir_ + "/h263.xml", h263_decoder());
    }
    std::string dir_;
};

TEST_F(CliTest, NoArgumentsPrintsUsage) {
    const CliResult r = run_cli("");
    EXPECT_EQ(r.exit_code, 2);
    EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UsageListsEveryCommand) {
    const CliResult r = run_cli("");
    for (const char* command :
         {"info", "analyze", "deadlock", "schedule", "convert", "pipeline", "unfold",
          "sensitivity", "storage", "pareto", "csdf-analyze", "csdf-reduce", "lint", "fuzz",
          "serve"}) {
        const std::string synopsis = std::string("sdfred_cli ") + command + " ";
        EXPECT_NE(r.output.find(synopsis), std::string::npos) << command;
    }
}

TEST_F(CliTest, FlagsACommandDoesNotTakeAreInvocationErrors) {
    // Each of these used to run and ignore the flag: without the budget the
    // user set, or without writing the file the user asked for.
    const std::string model = dir_ + "/h263.sdf";
    const std::string out = dir_ + "/never_written.sdf";
    std::filesystem::remove(out);
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"info " + model + " --certify", "error: info does not take --certify"},
        {"sensitivity " + model + " --max-steps 1",
         "error: sensitivity does not take --max-steps"},
        {"deadlock " + model + " -o " + out, "error: deadlock does not take -o"},
        {"convert " + model + " --to text --json", "error: convert does not take --json"},
    };
    for (const auto& [arguments, message] : cases) {
        SCOPED_TRACE(arguments);
        const CliResult r = run_cli(arguments);
        EXPECT_EQ(r.exit_code, 2);
        EXPECT_EQ(r.output.rfind(message + "\nusage:", 0), 0u) << r.output;
    }
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST_F(CliTest, ValueFlagsWithoutAValueAreInvocationErrors) {
    // A value flag as the last token used to become a positional, so lint
    // and analyze opened it as the model file and exited 3.
    const std::string model = dir_ + "/h263.sdf";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"lint --format", "error: --format needs a value"},
        {"analyze --max-steps", "error: --max-steps needs a value"},
        {"lint " + model + " --rules", "error: --rules needs a value"},
    };
    for (const auto& [arguments, message] : cases) {
        SCOPED_TRACE(arguments);
        const CliResult r = run_cli(arguments);
        EXPECT_EQ(r.exit_code, 2);
        EXPECT_EQ(r.output.rfind(message + "\nusage:", 0), 0u) << r.output;
    }
}

TEST_F(CliTest, SdfredIsaOverrideIsValidatedAtStartup) {
    // A typo'd tier must be a fast bad-invocation failure (exit 2), even on
    // commands that never reach a SIMD kernel — not a silent no-op.
    const CliResult bad = run_cli("info " + dir_ + "/h263.sdf", "SDFRED_ISA=sse2 ");
    EXPECT_EQ(bad.exit_code, 2);
    EXPECT_NE(bad.output.find("unknown ISA tier"), std::string::npos);
    const CliResult good = run_cli("info " + dir_ + "/h263.sdf", "SDFRED_ISA=scalar ");
    EXPECT_EQ(good.exit_code, 0);
}

TEST_F(CliTest, InfoOnTextFile) {
    const CliResult r = run_cli("info " + dir_ + "/h263.sdf");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("actors     : 4"), std::string::npos);
    EXPECT_NE(r.output.find("iteration  : 1190 firings"), std::string::npos);
    EXPECT_NE(r.output.find("live       : yes"), std::string::npos);
}

TEST_F(CliTest, InfoOnXmlFileMatchesTextFile) {
    const CliResult text = run_cli("info " + dir_ + "/h263.sdf");
    const CliResult xml = run_cli("info " + dir_ + "/h263.xml");
    EXPECT_EQ(xml.exit_code, 0);
    EXPECT_EQ(text.output, xml.output);
}

TEST_F(CliTest, AnalyzeReportsPeriodAndThroughput) {
    const CliResult r = run_cli("analyze " + dir_ + "/h263.sdf");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("iteration period:"), std::string::npos);
    EXPECT_NE(r.output.find("VLD:"), std::string::npos);
    EXPECT_NE(r.output.find("iteration makespan:"), std::string::npos);
}

TEST_F(CliTest, ConvertToReducedHsdfRoundTrips) {
    const std::string out = dir_ + "/reduced.sdf";
    const CliResult r =
        run_cli("convert --to reduced-hsdf " + dir_ + "/h263.sdf -o " + out);
    EXPECT_EQ(r.exit_code, 0);
    const Graph reduced = read_text_file(out);
    EXPECT_TRUE(reduced.is_homogeneous());
    EXPECT_LE(reduced.actor_count(), 15u);  // N(N+2) with N = 3
}

TEST_F(CliTest, ConvertToDotAndXml) {
    const std::string dot = dir_ + "/g.dot";
    EXPECT_EQ(run_cli("convert --to dot " + dir_ + "/h263.sdf -o " + dot).exit_code, 0);
    std::ifstream in(dot);
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_NE(first_line.find("digraph"), std::string::npos);

    const std::string xml = dir_ + "/g2.xml";
    EXPECT_EQ(run_cli("convert --to xml " + dir_ + "/h263.sdf -o " + xml).exit_code, 0);
    EXPECT_TRUE(structurally_equal(read_xml_file(xml), h263_decoder()));

    // An explicit --to wins over the -o extension.
    const std::string xml_as_txt = dir_ + "/as_xml.txt";
    EXPECT_EQ(run_cli("convert --to xml " + dir_ + "/h263.sdf -o " + xml_as_txt).exit_code,
              0);
    EXPECT_TRUE(structurally_equal(read_xml_file(xml_as_txt), h263_decoder()));
    const std::string dot_as_xml = dir_ + "/as_dot.xml";
    EXPECT_EQ(run_cli("convert --to dot " + dir_ + "/h263.sdf -o " + dot_as_xml).exit_code,
              0);
    std::ifstream dot_in(dot_as_xml);
    std::getline(dot_in, first_line);
    EXPECT_NE(first_line.find("digraph"), std::string::npos) << first_line;
}

TEST_F(CliTest, UnfoldWritesLargerGraph) {
    const std::string out = dir_ + "/unfolded.sdf";
    const CliResult r = run_cli("unfold 3 " + dir_ + "/h263.sdf -o " + out);
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_EQ(read_text_file(out).actor_count(), 12u);
}

TEST_F(CliTest, DeadlockDiagnosisViaCli) {
    Graph dead;
    const ActorId a = dead.add_actor("a", 1);
    const ActorId b = dead.add_actor("b", 1);
    dead.add_channel(a, b, 0);
    dead.add_channel(b, a, 0);
    write_text_file(dir_ + "/dead.sdf", dead);
    const CliResult r = run_cli("deadlock " + dir_ + "/dead.sdf");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("deadlock"), std::string::npos);
    EXPECT_NE(r.output.find("blocked on channel"), std::string::npos);
}

TEST_F(CliTest, ScheduleOnHomogeneousGraph) {
    Graph ring;
    const ActorId a = ring.add_actor("a", 3);
    const ActorId b = ring.add_actor("b", 4);
    ring.add_channel(a, b, 0);
    ring.add_channel(b, a, 1);
    write_text_file(dir_ + "/ring.sdf", ring);
    const CliResult r = run_cli("schedule " + dir_ + "/ring.sdf");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("period: 7"), std::string::npos);
}

TEST_F(CliTest, SensitivityAndStorage) {
    Graph ring;
    const ActorId a = ring.add_actor("a", 3);
    const ActorId b = ring.add_actor("b", 4);
    ring.add_channel(a, b, 0);
    ring.add_channel(b, a, 1);
    write_text_file(dir_ + "/ring.sdf", ring);

    const CliResult sens = run_cli("sensitivity " + dir_ + "/ring.sdf");
    EXPECT_EQ(sens.exit_code, 0);
    EXPECT_NE(sens.output.find("a: +1  [critical]"), std::string::npos);

    const CliResult storage = run_cli("storage " + dir_ + "/ring.sdf");
    EXPECT_EQ(storage.exit_code, 0);
    EXPECT_NE(storage.output.find("a -> b: 1 tokens"), std::string::npos);
    EXPECT_NE(storage.output.find("total (excluding self-loops): 2"),
              std::string::npos);

    const CliResult pareto = run_cli("pareto " + dir_ + "/ring.sdf");
    EXPECT_EQ(pareto.exit_code, 0);
    EXPECT_NE(pareto.output.find("total buffer"), std::string::npos);
}

TEST_F(CliTest, CsdfAnalyzeAndReduce) {
    CsdfGraph g("cs");
    const CsdfActorId a = g.add_actor("stage", {3, 1, 2});
    g.add_channel(a, a, {1, 1, 1}, {1, 1, 1}, 1);
    write_csdf_xml_file(dir_ + "/cs.xml", g);

    const CliResult analyze = run_cli("csdf-analyze " + dir_ + "/cs.xml");
    EXPECT_EQ(analyze.exit_code, 0);
    EXPECT_NE(analyze.output.find("iteration period: 6"), std::string::npos);
    EXPECT_NE(analyze.output.find("stage: 1 (3 phases)"), std::string::npos);

    const std::string out = dir_ + "/cs_reduced.sdf";
    const CliResult reduce = run_cli("csdf-reduce " + dir_ + "/cs.xml -o " + out);
    EXPECT_EQ(reduce.exit_code, 0);
    const Graph reduced = read_text_file(out);
    EXPECT_TRUE(reduced.is_homogeneous());
    EXPECT_EQ(reduced.total_initial_tokens(), 1);
}

TEST_F(CliTest, ExitCodesDistinguishFailureKinds) {
    // 3: the input could not be parsed at all (missing or malformed file).
    const CliResult missing = run_cli("info /nonexistent/file.sdf");
    EXPECT_EQ(missing.exit_code, 3);
    EXPECT_NE(missing.output.find("parse error:"), std::string::npos);

    std::ofstream(dir_ + "/garbage.sdf") << "graph g\nactor a 1\nchannel a ?\n";
    const CliResult garbage = run_cli("info " + dir_ + "/garbage.sdf");
    EXPECT_EQ(garbage.exit_code, 3);
    EXPECT_NE(garbage.output.find("parse error:"), std::string::npos);
    EXPECT_NE(garbage.output.find("line 3"), std::string::npos);

    // 1: the input parsed but an analysis failed.
    Graph inconsistent;
    const ActorId a = inconsistent.add_actor("a", 1);
    const ActorId b = inconsistent.add_actor("b", 1);
    inconsistent.add_channel(a, b, 2, 3, 0);
    inconsistent.add_channel(b, a, 1, 1, 0);
    write_text_file(dir_ + "/bad.sdf", inconsistent);
    const CliResult analysis = run_cli("analyze " + dir_ + "/bad.sdf");
    EXPECT_EQ(analysis.exit_code, 1);
    EXPECT_NE(analysis.output.find("error:"), std::string::npos);

    // 2: the invocation itself was malformed.
    const CliResult bad_format =
        run_cli("convert --to bogus " + dir_ + "/h263.sdf");
    EXPECT_EQ(bad_format.exit_code, 2);
}

TEST_F(CliTest, VersionFlagPrintsToolVersion) {
    const CliResult r = run_cli("--version");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("sdfred_cli "), std::string::npos);
    EXPECT_EQ(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, LintCleanModelExitsZero) {
    const CliResult r = run_cli("lint " + dir_ + "/h263.sdf");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("0 errors"), std::string::npos);
}

TEST_F(CliTest, LintBrokenModelReportsRuleWithLocation) {
    const std::string path = std::string(SDFRED_DATA_DIR) + "/bad/deadlocked.sdf";
    const CliResult r = run_cli("lint " + path);
    EXPECT_EQ(r.exit_code, 1);  // errors at the default --fail-on
    EXPECT_NE(r.output.find("deadlocked.sdf:6:1: error:"), std::string::npos);
    EXPECT_NE(r.output.find("[SDF003]"), std::string::npos);
}

TEST_F(CliTest, LintJsonFormatIsStable) {
    const std::string path = std::string(SDFRED_DATA_DIR) + "/bad/inconsistent.xml";
    const CliResult r = run_cli("lint " + path + " --format json");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.output.find("\"rule\": \"SDF002\""), std::string::npos);
    EXPECT_NE(r.output.find("\"graph\": \"inconsistent\""), std::string::npos);
    EXPECT_NE(r.output.find("\"counts\": "), std::string::npos);
    // The summary object carries per-severity counts and the worst severity.
    EXPECT_NE(r.output.find("\"summary\": {\"total\": "), std::string::npos);
    EXPECT_NE(r.output.find("\"worst\": \"error\""), std::string::npos);
    // Deterministic ordering: two runs render byte-identical reports.
    EXPECT_EQ(r.output, run_cli("lint " + path + " --format json").output);
}

TEST_F(CliTest, AnalyzeCertifyReportsIntervalsAndVerifiedCertificate) {
    const CliResult r = run_cli("analyze " + dir_ + "/h263.sdf --certify");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("token intervals"), std::string::npos);
    EXPECT_NE(r.output.find("certified buffer bounds:"), std::string::npos);
    EXPECT_NE(r.output.find("certificate: VERIFIED"), std::string::npos);
}

TEST_F(CliTest, AnalyzeCertifyJsonIsMachineReadable) {
    const CliResult r = run_cli("analyze " + dir_ + "/h263.sdf --certify --json");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("\"certificate\": {\"verified\": true"), std::string::npos);
    EXPECT_NE(r.output.find("\"verdicts\": {\"dead_actor\": false"), std::string::npos);
    EXPECT_NE(r.output.find("\"certified_bound\": "), std::string::npos);
    // Deterministic: identical runs render byte-identical JSON.
    EXPECT_EQ(r.output,
              run_cli("analyze " + dir_ + "/h263.sdf --certify --json").output);
}

TEST_F(CliTest, AnalyzeJsonEscapesControlCharactersInNames) {
    // Text-format names are whitespace-delimited tokens, so a control byte
    // can sit inside one.  The JSON report must stay valid JSON and carry
    // the names back exactly.
    const std::string ctl = "\x01";
    const std::string graph_name = "g" + ctl + "x";
    const std::string actor = "a" + ctl + "b";
    const std::string path = dir_ + "/control.sdf";
    std::ofstream(path) << "graph " << graph_name << "\nactor " << actor
                        << " 1\nactor c 2\nchannel " << actor << " c 1 1 0\n"
                        << "channel c " << actor << " 1 1 1\n";
    const CliResult r = run_cli("analyze " + path + " --certify --json");
    ASSERT_EQ(r.exit_code, 0) << r.output;
    const serve::Json report = serve::Json::parse(r.output);
    EXPECT_EQ(report.find("graph")->as_string(), graph_name);
    const std::vector<serve::Json>& channels = report.find("channels")->items();
    ASSERT_EQ(channels.size(), 2u);
    EXPECT_EQ(channels[0].find("src")->as_string(), actor);
    EXPECT_EQ(channels[0].find("dst")->as_string(), "c");
    EXPECT_EQ(channels[1].find("dst")->as_string(), actor);
    EXPECT_EQ(report.find("actors")->items()[0].find("name")->as_string(), actor);
}

TEST_F(CliTest, CliAndServeAgreeOnEveryShippedModel) {
    // Both front ends call the same ops (serve/ops.hpp): serve `certify`
    // equals `analyze --certify --json` member for member with the same
    // exit code, and serve `throughput` reports the period `analyze` prints.
    std::vector<std::string> models;
    for (const std::string& dir :
         {std::string(SDFRED_DATA_DIR), std::string(SDFRED_DATA_DIR) + "/bad"}) {
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            const std::string ext = entry.path().extension().string();
            if (entry.is_regular_file() && (ext == ".xml" || ext == ".sdf")) {
                models.push_back(entry.path().string());
            }
        }
    }
    std::sort(models.begin(), models.end());
    EXPECT_EQ(models.size(), 14u);  // 10 shipped models, 4 broken ones

    serve::ServeCore core;
    const auto ask = [&core](const char* op, const std::string& path) {
        serve::Json request = serve::Json::object();
        request.set("op", serve::Json::string(op));
        request.set("model_path", serve::Json::string(path));
        return serve::Json::parse(core.handle_line(request.dump()));
    };
    for (const std::string& path : models) {
        SCOPED_TRACE(path);
        const serve::Json certify = ask("certify", path);
        const CliResult cli = run_cli("analyze " + path + " --certify --json");
        ASSERT_LE(cli.exit_code, 1) << cli.output;
        EXPECT_EQ(certify.find("exit")->as_integer(), cli.exit_code);
        ASSERT_NE(certify.find("result"), nullptr) << certify.dump();
        const serve::Json report = serve::Json::parse(cli.output);
        const auto& served = certify.find("result")->members();
        const auto& printed = report.members();
        ASSERT_EQ(served.size(), printed.size());
        for (std::size_t i = 0; i < served.size(); ++i) {
            EXPECT_EQ(served[i].first, printed[i].first);
            EXPECT_EQ(served[i].second.dump(), printed[i].second.dump()) << served[i].first;
        }

        const serve::Json throughput = ask("throughput", path);
        const CliResult analyze = run_cli("analyze " + path);
        EXPECT_EQ(throughput.find("exit")->as_integer(), analyze.exit_code);
        const serve::Json* result = throughput.find("result");
        const serve::Json* period = result != nullptr ? result->find("period") : nullptr;
        const std::string label = "iteration period: ";
        const std::size_t at = analyze.output.find(label);
        if (period == nullptr) {
            EXPECT_EQ(at, std::string::npos) << analyze.output;
            continue;
        }
        ASSERT_NE(at, std::string::npos) << analyze.output;
        const std::size_t from = at + label.size();
        EXPECT_EQ(analyze.output.substr(from, analyze.output.find('\n', from) - from),
                  period->as_string());
    }
}

TEST_F(CliTest, AnalyzeCertifyFlagsProvenlyBrokenModels) {
    const std::string bad = std::string(SDFRED_DATA_DIR) + "/bad";
    const CliResult dead = run_cli("analyze " + bad + "/deadlocked.sdf --certify");
    EXPECT_EQ(dead.exit_code, 1);
    EXPECT_NE(dead.output.find("provably never fires"), std::string::npos);
    const CliResult starved =
        run_cli("analyze " + bad + "/starved_selfloop.sdf --certify");
    EXPECT_EQ(starved.exit_code, 1);
    const CliResult inconsistent =
        run_cli("analyze " + bad + "/inconsistent.xml --certify");
    EXPECT_EQ(inconsistent.exit_code, 1);
    EXPECT_NE(inconsistent.output.find("inconsistent"), std::string::npos);
}

TEST_F(CliTest, AnalyzeCertifyUnderAStarvedBudgetExitsFour) {
    const CliResult r =
        run_cli("analyze " + dir_ + "/h263.sdf --certify --max-steps 2");
    EXPECT_EQ(r.exit_code, 4);
    EXPECT_NE(r.output.find("aborted by resource budget"), std::string::npos);
}

TEST_F(CliTest, LintRuleSelectionAndFailOn) {
    const std::string path = std::string(SDFRED_DATA_DIR) + "/bad/overflow.sdf";
    // overflow.sdf has only warnings and notes: clean at the default gate...
    EXPECT_EQ(run_cli("lint " + path).exit_code, 0);
    // ...but fails when the gate is lowered to warnings.
    EXPECT_EQ(run_cli("lint " + path + " --fail-on warning").exit_code, 1);
    // Restricting to a note-severity rule passes even the warning gate.
    const CliResult filtered =
        run_cli("lint " + path + " --rules SDF012 --fail-on warning");
    EXPECT_EQ(filtered.exit_code, 0);
    // Unknown rule ids are an invocation error.
    EXPECT_EQ(run_cli("lint " + path + " --rules SDF999").exit_code, 2);
}

TEST_F(CliTest, LintListEnumeratesRules) {
    const CliResult r = run_cli("lint --list");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("SDF001"), std::string::npos);
    EXPECT_NE(r.output.find("SDF012"), std::string::npos);
}

TEST_F(CliTest, ConvertWithoutFormatIsATargetedInvocationError) {
    const CliResult r = run_cli("convert " + dir_ + "/h263.sdf");
    EXPECT_EQ(r.exit_code, 2);
    // Not the generic usage dump: a diagnostic naming the missing flag.
    EXPECT_NE(r.output.find("--to"), std::string::npos);
    EXPECT_NE(r.output.find("requires an output format"), std::string::npos);
}

TEST_F(CliTest, PipelineRunsAndReportsPerPass) {
    const CliResult r = run_cli("pipeline " + dir_ + "/h263.sdf --passes " +
                                "\"selfloops,prune,hsdf-reduced\" --time-passes");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("selfloops"), std::string::npos);
    EXPECT_NE(r.output.find("hsdf-reduced"), std::string::npos);
    EXPECT_NE(r.output.find("iteration period:"), std::string::npos);
    EXPECT_NE(r.output.find("ms"), std::string::npos);  // --time-passes
}

TEST_F(CliTest, PipelineMatchesAnalyzeOfTheClosedGraph) {
    // The pipeline route and the direct route agree exactly: selfloops
    // closes the graph, so compare against analyze of the closed model.
    const std::string closed = dir_ + "/closed.sdf";
    ASSERT_EQ(run_cli("pipeline " + dir_ + "/h263.sdf --passes selfloops -o " +
                      closed)
                  .exit_code,
              0);
    const CliResult direct = run_cli("analyze " + closed);
    const CliResult via = run_cli("pipeline " + dir_ + "/h263.sdf --passes " +
                                  "\"selfloops,prune,hsdf-reduced\"");
    ASSERT_EQ(direct.exit_code, 0);
    ASSERT_EQ(via.exit_code, 0);
    const auto period_of = [](const std::string& output) {
        const std::size_t at = output.find("iteration period: ");
        EXPECT_NE(at, std::string::npos);
        return output.substr(at, output.find('\n', at) - at);
    };
    EXPECT_EQ(period_of(via.output), period_of(direct.output));
}

TEST_F(CliTest, PipelineSpecErrorsAreInvocationErrors) {
    const CliResult unknown = run_cli("pipeline " + dir_ + "/h263.sdf --passes bogus");
    EXPECT_EQ(unknown.exit_code, 2);
    EXPECT_NE(unknown.output.find("unknown-pass"), std::string::npos);
    const CliResult malformed =
        run_cli("pipeline " + dir_ + "/h263.sdf --passes \"unfold(x)\"");
    EXPECT_EQ(malformed.exit_code, 2);
    EXPECT_NE(malformed.output.find("malformed-parameter"), std::string::npos);
    // --passes itself is required.
    EXPECT_EQ(run_cli("pipeline " + dir_ + "/h263.sdf").exit_code, 2);
    // The --list form takes no positionals: usage, not the --passes hint.
    const CliResult listed = run_cli("pipeline --list extra");
    EXPECT_EQ(listed.exit_code, 2);
    EXPECT_NE(listed.output.find("usage:"), std::string::npos);
    EXPECT_EQ(listed.output.find("requires --passes"), std::string::npos) << listed.output;
}

TEST_F(CliTest, PipelineVerifyEachCatchesTheUnsoundPass) {
    const CliResult r = run_cli("pipeline " + dir_ + "/h263.sdf --verify-each " +
                                "--passes selftest-unsound");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.output.find("violated its declaration"), std::string::npos);
    // Without --verify-each the same pipeline runs to completion.
    EXPECT_EQ(run_cli("pipeline " + dir_ + "/h263.sdf --passes selftest-unsound")
                  .exit_code,
              0);
}

TEST_F(CliTest, PipelineListShowsTheCatalogue) {
    const CliResult r = run_cli("pipeline --list");
    EXPECT_EQ(r.exit_code, 0);
    EXPECT_NE(r.output.find("selfloops"), std::string::npos);
    EXPECT_NE(r.output.find("unfold"), std::string::npos);
    EXPECT_NE(r.output.find("preserves"), std::string::npos);
    // The unsound self-test pass stays out of the public catalogue.
    EXPECT_EQ(r.output.find("selftest-unsound"), std::string::npos);
}

TEST_F(CliTest, LintGuardLeavesTheCommandsGraphUntouched) {
    // The guard and the command share one parse, but the analyses the lint
    // rules compute stay with the guard: a pipeline under --lint carries
    // only what it computed itself, exactly as without the guard.
    const std::string pipeline = "pipeline " + std::string(SDFRED_DATA_DIR) +
                                 "/modem.xml --passes selfloops,prune,hsdf-reduced";
    const CliResult plain = run_cli(pipeline);
    const CliResult guarded = run_cli(pipeline + " --lint");
    ASSERT_EQ(plain.exit_code, 0) << plain.output;
    EXPECT_EQ(guarded.exit_code, 0);
    EXPECT_EQ(guarded.output, plain.output);
}

/// Lines a `serve --stdio` daemon wrote for `requests`, run with `flags`.
std::vector<serve::Json> serve_stdio(const std::string& dir, const std::string& flags,
                                     const std::string& requests) {
    const std::string in = dir + "/serve_in.ndjson";
    const std::string out = dir + "/serve_out.ndjson";
    std::ofstream(in) << requests;
    const std::string command = std::string(SDFRED_CLI_PATH) + " serve --stdio " + flags +
                                " < " + in + " > " + out + " 2>/dev/null";
    EXPECT_EQ(WEXITSTATUS(std::system(command.c_str())), 0) << command;
    std::vector<serve::Json> responses;
    std::ifstream lines(out);
    for (std::string line; std::getline(lines, line);) {
        responses.push_back(serve::Json::parse(line));
    }
    return responses;
}

TEST_F(CliTest, ServeFlagsReachTheDaemon) {
    const std::string model_b =
        "graph b\nactor x 2\nactor y 3\nchannel x y 1 1 0\nchannel y x 1 1 1\n";
    serve::Json second = serve::Json::object();
    second.set("id", serve::Json::integer(2));
    second.set("op", serve::Json::string("throughput"));
    second.set("model", serve::Json::string(model_b));
    std::string oversized = "{\"id\":4,\"op\":\"stats\",\"pad\":\"";
    oversized += std::string(300 - oversized.size() - 2, 'x') + "\"}";
    ASSERT_EQ(oversized.size(), 300u);
    const std::string requests = "{\"id\":1,\"op\":\"throughput\",\"model_path\":\"" +
                                 dir_ + "/h263.sdf\"}\n" + second.dump() + "\n" +
                                 "{\"id\":3,\"op\":\"stats\"}\n" + oversized + "\n";
    const std::string flags = "--threads 1 --cache-entries 1 --max-line-bytes 256";
    const std::vector<serve::Json> timed =
        serve_stdio(dir_, flags + " --timings", requests);
    const std::vector<serve::Json> plain = serve_stdio(dir_, flags, requests);
    ASSERT_EQ(timed.size(), 4u);
    ASSERT_EQ(plain.size(), 4u);
    for (std::size_t i = 0; i < timed.size(); ++i) {
        SCOPED_TRACE(timed[i].dump());
        // --timings adds a numeric wall_ms and changes nothing else.
        const serve::Json* wall_ms = timed[i].find("wall_ms");
        ASSERT_NE(wall_ms, nullptr);
        EXPECT_GE(wall_ms->as_real(), 0.0);
        EXPECT_EQ(plain[i].find("wall_ms"), nullptr);
        serve::Json untimed = serve::Json::object();
        for (const auto& [key, value] : timed[i].members()) {
            if (key != "wall_ms") {
                untimed.set(key, value);
            }
        }
        EXPECT_EQ(untimed.dump(), plain[i].dump());
    }
    // --cache-entries 1: the second model evicts the first.
    const serve::Json* cache = timed[2].find("result")->find("cache");
    EXPECT_EQ(cache->find("graph_evictions")->as_integer(), 1);
    // --max-line-bytes 256: the 300-byte line is refused in band.
    EXPECT_EQ(timed[3].find("error")->find("code")->as_integer(), 413);
}

TEST_F(CliTest, LintGuardBlocksBrokenInputs) {
    const std::string path = std::string(SDFRED_DATA_DIR) + "/bad/deadlocked.sdf";
    const CliResult guarded = run_cli("analyze --lint " + path);
    EXPECT_EQ(guarded.exit_code, 1);
    EXPECT_NE(guarded.output.find("[SDF003]"), std::string::npos);
    // The guard is silent on clean inputs and the command runs normally.
    const CliResult clean = run_cli("analyze --lint " + dir_ + "/h263.sdf");
    EXPECT_EQ(clean.exit_code, 0);
    EXPECT_NE(clean.output.find("iteration period:"), std::string::npos);
    EXPECT_EQ(clean.output.find("[SDF"), std::string::npos);
}

}  // namespace
}  // namespace sdf
