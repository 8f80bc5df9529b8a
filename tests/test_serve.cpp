// test_serve.cpp — protocol goldens, cache semantics and concurrency
// stress for the `sdfred serve` daemon stack.
//
// Three layers, mirroring the architecture:
//
//   * GOLDEN tests replay committed request lines (data/serve/*.request)
//     through a ServeCore and demand byte-identical response lines
//     (data/serve/*.golden).  The wire format is a compatibility promise —
//     a member rename or reorder must fail a test, not surprise a client.
//   * CACHE tests pin the content-addressed semantics: byte-different but
//     canonically-equal models share one cache entry, semantic mutations
//     miss, and a tiny capacity evicts LRU entries together with their
//     results.
//   * STRESS tests push N client threads × M mixed requests (valid,
//     pathological, budget-starved, malformed) through Server::submit and
//     check every reply arrives exactly once and equals a fresh one-shot
//     ServeCore's answer for the same line — the daemon must not trade
//     correctness for concurrency.  Run under TSan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/signals.hpp"
#include "gen/structured.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "serve/graph_store.hpp"
#include "serve/json.hpp"
#include "serve/oracle.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "verify/oracles.hpp"

namespace sdf {
namespace serve {
namespace {

std::string data_path(const std::string& relative) {
    return std::string(SDFRED_DATA_DIR) + "/" + relative;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing test input: " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    // Goldens are stored one line per file; the trailing newline is the
    // file format, not part of the response.
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
    }
    return text;
}

/// The committed golden cases, in replay order.  Models are distinct per
/// (model, op) pair so the shared-core replay sees the same cache states
/// as the per-case fresh cores.
const std::vector<std::string> kGoldenCases = {
    "throughput_ok",   "lint_note",      "parse_error", "budget_rejected",
    "unknown_op",      "malformed_json", "certify_ok",  "nul_byte",
    "invalid_utf8",
};

constexpr const char* kCycleModel =
    "graph g\nactor a 2\nactor b 3\n"
    "channel a b 1 1 1\nchannel b a 1 1 1\n";

/// Builds a minimal throughput request line for `model`.
std::string throughput_line(std::int64_t id, const std::string& model) {
    Json request = Json::object();
    request.set("id", Json::integer(id));
    request.set("op", Json::string("throughput"));
    request.set("model", Json::string(model));
    return request.dump();
}

const Json* result_of(const Json& response) { return response.find("result"); }

std::string cache_of(const Json& response) {
    const Json* cache = response.find("cache");
    return cache != nullptr ? cache->as_string() : "";
}

// ---------------------------------------------------------------------------
// Golden protocol tests
// ---------------------------------------------------------------------------

TEST(ServeGolden, EachCaseOnFreshCore) {
    for (const std::string& name : kGoldenCases) {
        SCOPED_TRACE(name);
        ServeCore core;
        const std::string request = read_file(data_path("serve/" + name + ".request"));
        const std::string golden = read_file(data_path("serve/" + name + ".golden"));
        EXPECT_EQ(core.handle_line(request), golden);
    }
}

TEST(ServeGolden, SequentialReplayOnSharedCore) {
    // The same lines through ONE core must still match: the cases are
    // chosen so cross-request caching cannot change any response.
    ServeCore core;
    for (const std::string& name : kGoldenCases) {
        SCOPED_TRACE(name);
        const std::string request = read_file(data_path("serve/" + name + ".request"));
        const std::string golden = read_file(data_path("serve/" + name + ".golden"));
        EXPECT_EQ(core.handle_line(request), golden);
    }
}

TEST(ServeGolden, ResponsesAreCanonicalJson) {
    // Every golden must be parseable and already in canonical dump() form,
    // and must lead with the id/ok/op envelope the spec promises.
    for (const std::string& name : kGoldenCases) {
        SCOPED_TRACE(name);
        const std::string golden = read_file(data_path("serve/" + name + ".golden"));
        const Json response = Json::parse(golden);
        EXPECT_EQ(response.dump(), golden);
        ASSERT_GE(response.members().size(), 5u);
        EXPECT_EQ(response.members()[0].first, "id");
        EXPECT_EQ(response.members()[1].first, "ok");
        EXPECT_EQ(response.members()[2].first, "op");
        EXPECT_EQ(response.members()[3].first, "exit");
        EXPECT_EQ(response.members()[4].first, "cache");
        const bool ok = response.find("ok")->as_boolean();
        EXPECT_EQ(ok, response.find("error") == nullptr);
        EXPECT_EQ(ok, response.find("exit")->as_integer() <= 1);
    }
}

TEST(ServeGolden, StdioTransportMatchesGoldens) {
    // threads == 1 runs inline, so run_stdio must emit responses in
    // request order: exactly the concatenated goldens.
    std::string input;
    std::string expected;
    for (const std::string& name : kGoldenCases) {
        input += read_file(data_path("serve/" + name + ".request")) + "\n";
        expected += read_file(data_path("serve/" + name + ".golden")) + "\n";
    }
    ServeCore core;
    ServerOptions options;
    options.threads = 1;
    Server server(core, options);
    std::istringstream in(input);
    std::ostringstream out;
    EXPECT_EQ(server.run_stdio(in, out), 0);
    EXPECT_EQ(out.str(), expected);
}

TEST(ServeProtocol, PingStatsShutdown) {
    ServeCore core;
    const Json pong = Json::parse(core.handle_line("{\"id\":1,\"op\":\"ping\"}"));
    EXPECT_TRUE(pong.find("ok")->as_boolean());
    EXPECT_TRUE(result_of(pong)->find("pong")->as_boolean());

    core.handle_line(throughput_line(2, kCycleModel));
    const Json stats = Json::parse(core.handle_line("{\"id\":3,\"op\":\"stats\"}"));
    const Json* result = result_of(stats);
    ASSERT_NE(result, nullptr);
    // ping + throughput + this stats request itself
    EXPECT_EQ(result->find("requests")->find("total")->as_integer(), 3);
    EXPECT_EQ(result->find("cache")->find("graphs")->as_integer(), 1);
    EXPECT_EQ(result->find("queue_depth")->as_integer(), 0);

    EXPECT_FALSE(core.shutdown_requested());
    const Json bye = Json::parse(core.handle_line("{\"id\":4,\"op\":\"shutdown\"}"));
    EXPECT_TRUE(bye.find("ok")->as_boolean());
    EXPECT_TRUE(core.shutdown_requested());
}

TEST(ServeProtocol, RequestValidationIsTyped) {
    ServeCore core;
    const auto kind_of = [&](const std::string& line) {
        const Json response = Json::parse(core.handle_line(line));
        const Json* error = response.find("error");
        return error != nullptr ? error->find("kind")->as_string() : std::string();
    };
    // Unknown member, wrong member type, missing model, duplicate key and
    // model/model_path conflict are all 400-class "bad-request" refusals.
    EXPECT_EQ(kind_of("{\"id\":1,\"op\":\"ping\",\"bogus\":1}"), "bad-request");
    EXPECT_EQ(kind_of("{\"id\":1,\"op\":7}"), "bad-request");
    EXPECT_EQ(kind_of("{\"id\":1,\"op\":\"throughput\"}"), "bad-request");
    EXPECT_EQ(kind_of("{\"id\":1,\"id\":2,\"op\":\"ping\"}"), "bad-json");
    EXPECT_EQ(kind_of("{\"id\":1,\"op\":\"lint\",\"model\":\"graph g\\n\","
                      "\"model_path\":\"x\"}"),
              "bad-request");
    EXPECT_EQ(kind_of("{\"id\":1,\"op\":\"throughput\",\"model\":\"graph g\\n\","
                      "\"budget\":{\"max_steps\":0}}"),
              "bad-request");
    EXPECT_EQ(kind_of("{\"id\":1,\"op\":\"throughput\",\"model\":\"graph g\\n"
                      "actor a 1\\n\",\"pipeline\":\"no_such_pass\"}"),
              "bad-pipeline");
}

// ---------------------------------------------------------------------------
// Cache semantics
// ---------------------------------------------------------------------------

TEST(ServeCache, IdenticalResubmissionReplaysBitIdentically) {
    ServeCore core;
    const std::string line = throughput_line(1, kCycleModel);
    const Json first = Json::parse(core.handle_line(line));
    const Json second = Json::parse(core.handle_line(line));
    EXPECT_EQ(cache_of(first), "miss");
    EXPECT_EQ(cache_of(second), "hit");
    ASSERT_NE(result_of(first), nullptr);
    ASSERT_NE(result_of(second), nullptr);
    EXPECT_EQ(result_of(first)->dump(), result_of(second)->dump());
    EXPECT_EQ(first.find("exit")->as_integer(), second.find("exit")->as_integer());

    const StoreStats stats = core.store_stats();
    EXPECT_EQ(stats.graphs, 1u);
    EXPECT_EQ(stats.result_hits, 1u);
    EXPECT_EQ(stats.result_misses, 1u);
}

TEST(ServeCache, CanonicallyEqualModelsShareOneEntry) {
    // Same graph, different bytes: comments and whitespace do not defeat
    // content addressing, so the reformatted resubmission is a result HIT.
    ServeCore core;
    const std::string reformatted =
        "# a comment\ngraph   g\n  actor a 2\nactor b 3\n\n"
        "channel a b 1 1 1\nchannel b a 1 1 1\n";
    ASSERT_EQ(write_text_string(read_text_string(reformatted)),
              write_text_string(read_text_string(kCycleModel)))
        << "test premise: both spell the same canonical model";
    const Json first = Json::parse(core.handle_line(throughput_line(1, kCycleModel)));
    const Json second = Json::parse(core.handle_line(throughput_line(2, reformatted)));
    EXPECT_EQ(cache_of(first), "miss");
    EXPECT_EQ(cache_of(second), "hit");
    EXPECT_EQ(result_of(first)->dump(), result_of(second)->dump());
    EXPECT_EQ(core.store_stats().graphs, 1u);
}

TEST(ServeCache, SemanticMutationMisses) {
    ServeCore core;
    const std::string mutated =
        "graph g\nactor a 2\nactor b 3\n"
        "channel a b 1 1 1\nchannel b a 1 1 2\n";  // one more initial token
    const Json first = Json::parse(core.handle_line(throughput_line(1, kCycleModel)));
    const Json second = Json::parse(core.handle_line(throughput_line(2, mutated)));
    EXPECT_EQ(cache_of(second), "miss");
    EXPECT_NE(result_of(first)->dump(), result_of(second)->dump());
    EXPECT_EQ(core.store_stats().graphs, 2u);
}

TEST(ServeCache, NoCacheBypassesBothWays) {
    ServeCore core;
    Json request = Json::parse(throughput_line(1, kCycleModel));
    request.set("no_cache", Json::boolean(true));
    const Json first = Json::parse(core.handle_line(request.dump()));
    const Json second = Json::parse(core.handle_line(request.dump()));
    EXPECT_EQ(cache_of(first), "bypass");
    EXPECT_EQ(cache_of(second), "bypass");
    // Bypass neither reads nor writes the result cache...
    EXPECT_EQ(core.store_stats().result_hits, 0u);
    // ...but the graph itself is still interned once.
    EXPECT_EQ(core.store_stats().graphs, 1u);
}

TEST(ServeCache, TinyCapacityEvictsLruWithResults) {
    ServeOptions options;
    options.cache_graphs = 2;
    ServeCore core(options);
    const auto model = [](int tokens) {
        return "graph g\nactor a 1\nactor b 1\nchannel a b 1 1 1\n"
               "channel b a 1 1 " + std::to_string(tokens) + "\n";
    };
    EXPECT_EQ(cache_of(Json::parse(core.handle_line(throughput_line(1, model(1))))),
              "miss");
    EXPECT_EQ(cache_of(Json::parse(core.handle_line(throughput_line(2, model(2))))),
              "miss");
    EXPECT_EQ(cache_of(Json::parse(core.handle_line(throughput_line(3, model(3))))),
              "miss");
    StoreStats stats = core.store_stats();
    EXPECT_EQ(stats.graphs, 2u);
    EXPECT_EQ(stats.graph_evictions, 1u);
    // model(1) was the LRU victim: resubmitting it misses again (its
    // cached result went with it) and in turn evicts model(2).
    EXPECT_EQ(cache_of(Json::parse(core.handle_line(throughput_line(4, model(1))))),
              "miss");
    EXPECT_EQ(cache_of(Json::parse(core.handle_line(throughput_line(5, model(2))))),
              "miss");
    // That resubmission evicted model(3) — the LRU once model(1) was
    // touched — leaving {model(2), model(1)} resident, so model(1) is a hit.
    EXPECT_EQ(cache_of(Json::parse(core.handle_line(throughput_line(6, model(1))))),
              "hit");
    stats = core.store_stats();
    EXPECT_EQ(stats.graphs, 2u);
    EXPECT_EQ(stats.graph_evictions, 3u);
    EXPECT_LE(stats.results, 2u);
}

TEST(ServeCache, XmlAndTextSpellingsInternToOneEntry) {
    // Models are sniffed from content — an SDF3 XML submission and the
    // canonical text spelling of the same graph share one cache entry.
    ServeCore core;
    Json by_path = Json::object();
    by_path.set("id", Json::integer(1));
    by_path.set("op", Json::string("throughput"));
    by_path.set("model_path", Json::string(data_path("modem.xml")));
    const Json first = Json::parse(core.handle_line(by_path.dump()));
    ASSERT_TRUE(first.find("ok")->as_boolean()) << core.handle_line(by_path.dump());
    EXPECT_EQ(cache_of(first), "miss");

    const std::string as_text =
        write_text_string(read_xml_file(data_path("modem.xml")));
    const Json second = Json::parse(core.handle_line(throughput_line(2, as_text)));
    EXPECT_EQ(cache_of(second), "hit");
    EXPECT_EQ(result_of(first)->dump(), result_of(second)->dump());
    EXPECT_EQ(core.store_stats().graphs, 1u);
}

TEST(ServeCache, ContentIdIsStable) {
    // The display id is advertised as fnv1a-64 hex; pin one value so a
    // silent hash change cannot slip into logs and stats.
    EXPECT_EQ(GraphStore::content_id(""), "cbf29ce484222325");
    EXPECT_EQ(GraphStore::content_id("sdf"), GraphStore::content_id("sdf"));
    EXPECT_NE(GraphStore::content_id("sdf"), GraphStore::content_id("sdg"));
}

// ---------------------------------------------------------------------------
// The edit op
// ---------------------------------------------------------------------------

constexpr const char* kEditModel =
    "graph g\nactor a 2\nactor b 3\n"
    "channel a b 1 1 0\nchannel b a 1 1 2\n";

/// An `edit` request on `model` applying the JSON array `edits`.
std::string edit_line(std::int64_t id, const std::string& model, const std::string& edits,
                      const std::string& then = "") {
    Json request = Json::object();
    request.set("id", Json::integer(id));
    request.set("op", Json::string("edit"));
    request.set("model", Json::string(model));
    request.set("edits", Json::parse(edits));
    if (!then.empty()) {
        request.set("then", Json::string(then));
    }
    return request.dump();
}

/// The `delta` object of a `stats` response.
Json delta_stats(ServeCore& core) {
    const Json stats = Json::parse(core.handle_line("{\"id\":0,\"op\":\"stats\"}"));
    return *result_of(stats)->find("delta");
}

std::int64_t applied_of(const Json& response) {
    EXPECT_TRUE(response.find("ok")->as_boolean()) << response.dump();
    return result_of(response)->find("applied")->as_integer();
}

TEST(ServeEdit, AppliedCountsRealChangesOfEveryKind) {
    ServeCore core;
    const auto applied = [&](const std::string& edits) {
        return applied_of(Json::parse(core.handle_line(edit_line(1, kEditModel, edits))));
    };
    // Steps that set the values the model already holds change nothing.
    EXPECT_EQ(applied(R"([{"set":"execution-time","actor":"a","time":2},
                          {"set":"initial-tokens","channel":1,"tokens":2},
                          {"set":"rates","channel":0,"production":1,"consumption":1}])"),
              0);
    EXPECT_EQ(applied(R"([{"set":"execution-time","actor":"a","time":5}])"), 1);
    EXPECT_EQ(applied(R"([{"set":"initial-tokens","channel":1,"tokens":3}])"), 1);
    // The second rate step runs on the unshared, empty manager the first
    // one left behind; it still counts.
    EXPECT_EQ(applied(R"([{"set":"rates","channel":0,"production":2,"consumption":1},
                          {"set":"rates","channel":1,"production":1,"consumption":2}])"),
              2);
    EXPECT_EQ(applied(R"([{"set":"rates","channel":0,"production":2,"consumption":1},
                          {"set":"rates","channel":0,"production":2,"consumption":1},
                          {"set":"rates","channel":1,"production":1,"consumption":2}])"),
              2);
}

TEST(ServeEdit, UnknownTargetsAnswer400NamingTheStep) {
    ServeCore core;
    const auto message_of = [&](const std::string& edits) {
        const Json response =
            Json::parse(core.handle_line(edit_line(1, kEditModel, edits)));
        EXPECT_FALSE(response.find("ok")->as_boolean());
        const Json* error = response.find("error");
        if (error == nullptr) {
            ADD_FAILURE() << "no error in " << response.dump();
            return std::string();
        }
        EXPECT_EQ(error->find("code")->as_integer(), 400);
        EXPECT_EQ(error->find("kind")->as_string(), "bad-request");
        return error->find("message")->as_string();
    };
    const std::string actor =
        message_of(R"([{"set":"execution-time","actor":"a","time":4},
                       {"set":"execution-time","actor":"zz","time":1}])");
    EXPECT_NE(actor.find("unknown actor \"zz\""), std::string::npos) << actor;
    EXPECT_NE(actor.find("(edit #1)"), std::string::npos) << actor;
    const std::string channel =
        message_of(R"([{"set":"rates","channel":2,"production":1,"consumption":1}])");
    EXPECT_NE(channel.find("channel 2 out of range"), std::string::npos) << channel;
    EXPECT_NE(channel.find("(edit #0)"), std::string::npos) << channel;
}

TEST(ServeEdit, ThenThroughputEqualsADirectRequestOnTheEditedModel) {
    struct Case {
        const char* edits;
        const char* edited;
    };
    const Case cases[] = {
        {R"([{"set":"execution-time","actor":"a","time":7}])",
         "graph g\nactor a 7\nactor b 3\n"
         "channel a b 1 1 0\nchannel b a 1 1 2\n"},
        {R"([{"set":"rates","channel":0,"production":2,"consumption":1},
            {"set":"rates","channel":1,"production":1,"consumption":2}])",
         "graph g\nactor a 2\nactor b 3\n"
         "channel a b 2 1 0\nchannel b a 1 2 2\n"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.edits);
        ServeCore core;
        const Json edited =
            Json::parse(core.handle_line(edit_line(1, kEditModel, c.edits, "throughput")));
        ASSERT_TRUE(edited.find("ok")->as_boolean()) << edited.dump();
        const Json* then = result_of(edited)->find("then");
        ASSERT_NE(then, nullptr);
        // A fresh core answers the edited text from scratch.
        ServeCore direct_core;
        const Json direct =
            Json::parse(direct_core.handle_line(throughput_line(2, c.edited)));
        ASSERT_NE(result_of(direct), nullptr) << direct.dump();
        EXPECT_EQ(then->find("result")->dump(), result_of(direct)->dump());
    }
}

TEST(ServeEdit, StatsDeltaEditsGrowByTheAppliedSum) {
    ServeCore core;
    const Json before = delta_stats(core);
    std::int64_t applied = 0;
    for (const char* edits :
         {R"([{"set":"execution-time","actor":"a","time":5}])",
          R"([{"set":"execution-time","actor":"b","time":3}])",
          R"([{"set":"initial-tokens","channel":1,"tokens":4},
              {"set":"execution-time","actor":"b","time":6}])"}) {
        applied +=
            applied_of(Json::parse(core.handle_line(edit_line(1, kEditModel, edits))));
    }
    const Json after = delta_stats(core);
    EXPECT_EQ(applied, 3);
    EXPECT_EQ(after.find("edits")->as_integer() - before.find("edits")->as_integer(),
              applied);

    // Rate steps start the child over: nothing is left to keep or refine.
    const std::string rate_steps =
        R"([{"set":"rates","channel":0,"production":2,"consumption":1},
            {"set":"rates","channel":1,"production":1,"consumption":2}])";
    applied =
        applied_of(Json::parse(core.handle_line(edit_line(2, kEditModel, rate_steps))));
    const Json rates = delta_stats(core);
    EXPECT_EQ(applied, 2);
    EXPECT_EQ(rates.find("edits")->as_integer() - after.find("edits")->as_integer(), 2);
    EXPECT_EQ(rates.find("kept")->as_integer(), after.find("kept")->as_integer());
    EXPECT_EQ(rates.find("refined")->as_integer(), after.find("refined")->as_integer());
}

// ---------------------------------------------------------------------------
// Fuzz-smoke op and oracle registration
// ---------------------------------------------------------------------------

TEST(ServeOracle, RegistersAsExtraAndFuzzSmokeSkipsIt) {
    register_serve_oracle();
    register_serve_oracle();  // idempotent: replaces, not duplicates
    int seen = 0;
    bool extra = false;
    for (const Oracle& oracle : oracle_registry()) {
        if (std::string(oracle.id) == "serve-route") {
            ++seen;
            extra = oracle.extra;
        }
    }
    EXPECT_EQ(seen, 1);
    EXPECT_TRUE(extra);

    // The daemon's own fuzz-smoke op must not recurse into the daemon.
    ServeCore core;
    Json request = Json::object();
    request.set("id", Json::integer(1));
    request.set("op", Json::string("fuzz-smoke"));
    request.set("model", Json::string(kCycleModel));
    const Json response = Json::parse(core.handle_line(request.dump()));
    ASSERT_TRUE(response.find("ok")->as_boolean())
        << core.handle_line(request.dump());
    bool saw_serve_route = false;
    for (const Json& entry : result_of(response)->find("oracles")->items()) {
        if (entry.find("id")->as_string() == "serve-route") saw_serve_route = true;
    }
    EXPECT_FALSE(saw_serve_route);
}

// ---------------------------------------------------------------------------
// Adversarial wire input and the request-line bound
// ---------------------------------------------------------------------------

TEST(ServeWire, CrlfLineEndingsAreStrippedOverStdio) {
    // A CRLF client must get byte-identical responses to an LF client.
    const std::string request = read_file(data_path("serve/throughput_ok.request"));
    const std::string golden = read_file(data_path("serve/throughput_ok.golden"));
    ServeCore core;
    ServerOptions options;
    options.threads = 1;
    Server server(core, options);
    std::istringstream in(request + "\r\n");
    std::ostringstream out;
    EXPECT_EQ(server.run_stdio(in, out), 0);
    EXPECT_EQ(out.str(), golden + "\n");
}

TEST(ServeWire, OversizedLineIsRefusedInBandWithoutParsing) {
    ServeOptions options;
    options.max_line_bytes = 64;
    ServeCore core(options);
    const std::string oversized = throughput_line(1, kCycleModel);
    ASSERT_GT(oversized.size(), core.max_line_bytes()) << "test premise";
    const Json refused = Json::parse(core.handle_line(oversized));
    // The line is refused UNPARSED, so not even the id is echoed.
    EXPECT_TRUE(refused.find("id")->is_null());
    EXPECT_FALSE(refused.find("ok")->as_boolean());
    EXPECT_EQ(refused.find("exit")->as_integer(), 2);
    EXPECT_EQ(refused.find("error")->find("code")->as_integer(), 413);
    EXPECT_EQ(refused.find("error")->find("kind")->as_string(),
              "payload-too-large");
    // A line under the bound still works on the same core.
    const Json pong = Json::parse(core.handle_line("{\"id\":2,\"op\":\"ping\"}"));
    EXPECT_TRUE(pong.find("ok")->as_boolean());
    // ...and the refusal is tallied for the health op.
    const Json health = Json::parse(core.handle_line("{\"id\":3,\"op\":\"health\"}"));
    EXPECT_EQ(result_of(health)->find("rejected_oversize")->as_integer(), 1);
}

/// Connects to `path`, retrying while the listener binds.
int connect_unix(const std::string& path) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::snprintf(address.sun_path, sizeof(address.sun_path), "%s",
                  path.c_str());
    for (int attempt = 0; attempt < 200; ++attempt) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)) == 0) {
            return fd;
        }
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

/// Reads from `fd` until one full line arrived; returns it without the
/// newline ("" on EOF before a line completed).
std::string recv_line(int fd) {
    std::string response;
    char buffer[4096];
    while (response.find('\n') == std::string::npos) {
        const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        if (got <= 0) {
            return "";
        }
        response.append(buffer, static_cast<std::size_t>(got));
    }
    return response.substr(0, response.find('\n'));
}

TEST(ServeWire, EndlessLineIsCutOffAtTheBound) {
    // A client streaming a newline-free line past the bound gets a 413 and
    // a closed connection — the buffer must not grow without limit.
    const std::string path =
        "/tmp/sdfred_test_endless_" + std::to_string(::getpid()) + ".sock";
    ServeOptions serve_options;
    serve_options.max_line_bytes = 1024;
    ServeCore core(serve_options);
    ServerOptions options;
    options.threads = 2;
    Server server(core, options);
    std::thread daemon([&] { server.run_unix(path); });

    const int fd = connect_unix(path);
    ASSERT_GE(fd, 0);
    const std::string flood(4096, 'x');  // no newline anywhere
    ASSERT_EQ(::send(fd, flood.data(), flood.size(), 0),
              static_cast<ssize_t>(flood.size()));
    const std::string line = recv_line(fd);
    ASSERT_FALSE(line.empty()) << "expected an in-band 413 before the close";
    const Json refused = Json::parse(line);
    EXPECT_EQ(refused.find("error")->find("code")->as_integer(), 413);
    EXPECT_EQ(refused.find("error")->find("kind")->as_string(),
              "payload-too-large");
    // The server hangs up on the flooding connection.
    char drain_byte;
    EXPECT_EQ(::recv(fd, &drain_byte, 1, 0), 0) << "connection should be closed";
    ::close(fd);

    const int control = connect_unix(path);
    ASSERT_GE(control, 0);
    const std::string shutdown = "{\"id\":1,\"op\":\"shutdown\"}\n";
    ASSERT_EQ(::send(control, shutdown.data(), shutdown.size(), 0),
              static_cast<ssize_t>(shutdown.size()));
    daemon.join();
    ::close(control);
    ::unlink(path.c_str());
}

TEST(ServeWire, SlowLorisClientIsServedNotStalledOn) {
    // A byte-dribbling client exercises the incremental line assembly; the
    // server must answer once the newline finally arrives, and other
    // clients must not be blocked meanwhile (threads=2 covers the slot).
    const std::string path =
        "/tmp/sdfred_test_loris_" + std::to_string(::getpid()) + ".sock";
    ServeCore core;
    ServerOptions options;
    options.threads = 2;
    Server server(core, options);
    std::thread daemon([&] { server.run_unix(path); });

    const int slow = connect_unix(path);
    ASSERT_GE(slow, 0);
    const std::string request = throughput_line(7, kCycleModel) + "\n";
    for (std::size_t at = 0; at < request.size(); at += 16) {
        const std::size_t len = std::min<std::size_t>(16, request.size() - at);
        ASSERT_EQ(::send(slow, request.data() + at, len, 0),
                  static_cast<ssize_t>(len));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const std::string line = recv_line(slow);
    ASSERT_FALSE(line.empty());
    const Json response = Json::parse(line);
    EXPECT_EQ(response.find("id")->as_integer(), 7);
    EXPECT_TRUE(response.find("ok")->as_boolean());
    EXPECT_EQ(result_of(response)->find("period")->as_string(), "5/2");

    const std::string shutdown = "{\"id\":8,\"op\":\"shutdown\"}\n";
    ASSERT_EQ(::send(slow, shutdown.data(), shutdown.size(), 0),
              static_cast<ssize_t>(shutdown.size()));
    daemon.join();
    ::close(slow);
    ::unlink(path.c_str());
}

// ---------------------------------------------------------------------------
// Supervision: health, watchdog, graceful drain
// ---------------------------------------------------------------------------

TEST(ServeHealth, ReportsSupervisionAndPersistenceState) {
    ServeCore volatile_core;
    const Json health =
        Json::parse(volatile_core.handle_line("{\"id\":1,\"op\":\"health\"}"));
    ASSERT_TRUE(health.find("ok")->as_boolean());
    const Json* result = result_of(health);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("status")->as_string(), "ok");
    // in_flight counts the health request reporting it.
    EXPECT_EQ(result->find("in_flight")->as_integer(), 1);
    EXPECT_EQ(result->find("reaped")->as_integer(), 0);
    EXPECT_TRUE(result->find("deadline_ms")->is_null());
    EXPECT_FALSE(result->find("persist")->find("enabled")->as_boolean());

    ServeOptions options;
    options.request_deadline = std::chrono::milliseconds(2500);
    ServeCore supervised(options);
    const Json deadline =
        Json::parse(supervised.handle_line("{\"id\":2,\"op\":\"health\"}"));
    EXPECT_EQ(result_of(deadline)->find("deadline_ms")->as_integer(), 2500);
}

TEST(ServeWatchdog, ArmedTokensAreCancelledDisarmedOnesAreNot) {
    Watchdog watchdog;
    CancellationToken hung;
    CancellationToken prompt;
    const std::uint64_t hung_handle =
        watchdog.arm(hung, std::chrono::milliseconds(5));
    const std::uint64_t prompt_handle =
        watchdog.arm(prompt, std::chrono::milliseconds(60'000));
    watchdog.disarm(prompt_handle);  // "completed" long before its deadline
    // The hung request's token fires within its deadline (plus scheduling
    // slack); the disarmed one never does.
    for (int i = 0; i < 1000 && !hung.cancelled(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(hung.cancelled());
    EXPECT_FALSE(prompt.cancelled());
    EXPECT_EQ(watchdog.reaped(), 1u);
    watchdog.disarm(hung_handle);  // late disarm of a reaped handle: no-op
    EXPECT_EQ(watchdog.reaped(), 1u);
}

TEST(ServeWatchdog, OverrunningRequestAnswers429) {
    // A deliberately heavy analysis against a 1ms hard deadline: whichever
    // observer fires first — the governor's own deadline check or the
    // watchdog's cancellation — the client gets a 429, never a hung worker.
    ServeOptions options;
    options.request_deadline = std::chrono::milliseconds(1);
    ServeCore core(options);
    Json request = Json::parse(
        throughput_line(1, write_text_string(fork_join_graph(1024, 3))));
    request.set("degrade", Json::string("never"));
    const Json response = Json::parse(core.handle_line(request.dump()));
    EXPECT_FALSE(response.find("ok")->as_boolean());
    EXPECT_EQ(response.find("exit")->as_integer(), 4);
    EXPECT_EQ(response.find("error")->find("code")->as_integer(), 429);
    const std::string cause =
        response.find("error")->find("cause")->as_string();
    EXPECT_TRUE(cause == "deadline" || cause == "cancelled") << cause;
}

TEST(ServeWatchdog, DeadlineDoesNotChangeFastResults) {
    // The supervision layer must be invisible to requests that finish in
    // time: a generous deadline yields bit-identical results.
    ServeOptions options;
    options.request_deadline = std::chrono::milliseconds(60'000);
    ServeCore supervised(options);
    ServeCore plain;
    const std::string line = throughput_line(1, kCycleModel);
    const Json with_deadline = Json::parse(supervised.handle_line(line));
    const Json without = Json::parse(plain.handle_line(line));
    ASSERT_TRUE(with_deadline.find("ok")->as_boolean());
    EXPECT_EQ(result_of(with_deadline)->dump(), result_of(without)->dump());
    EXPECT_EQ(with_deadline.find("exit")->as_integer(),
              without.find("exit")->as_integer());
}

TEST(ServeDrain, SimulatedSignalStopsIntakeAndSyncsTheIndex) {
    reset_shutdown_signal();
    const std::string dir =
        "/tmp/sdfred_test_drain_" + std::to_string(::getpid());
    ServeOptions serve_options;
    serve_options.cache_dir = dir;
    serve_options.persist_fsync = false;
    {
        // One normal run persists an entry.
        ServeCore core(serve_options);
        ServerOptions options;
        options.threads = 1;
        Server server(core, options);
        std::istringstream in(throughput_line(1, kCycleModel) + "\n");
        std::ostringstream out;
        EXPECT_EQ(server.run_stdio(in, out), 0);
        EXPECT_FALSE(out.str().empty());
    }
    {
        // With the signal already raised, the loop takes in NOTHING more,
        // drains, syncs the index, and still exits 0.
        simulate_shutdown_signal();
        ServeCore core(serve_options);
        ServerOptions options;
        options.threads = 1;
        Server server(core, options);
        std::istringstream in(throughput_line(2, kCycleModel) + "\n");
        std::ostringstream out;
        EXPECT_EQ(server.run_stdio(in, out), 0);
        EXPECT_TRUE(out.str().empty()) << out.str();
        reset_shutdown_signal();
    }
    std::ifstream index(dir + "/index");
    std::string first_line;
    std::getline(index, first_line);
    EXPECT_EQ(first_line, "sdfred-persist-index v1");
    // Scratch cleanup (entry file, index, directory).
    std::string command = "rm -rf " + dir;
    EXPECT_EQ(std::system(command.c_str()), 0);
}

// ---------------------------------------------------------------------------
// Concurrency stress
// ---------------------------------------------------------------------------

/// Parses a response and re-dumps it without the `cache` member: a shared
/// server legitimately reports "hit" where a cold one-shot core reports
/// "miss", but everything else must be identical.
std::string sans_cache(const std::string& line) {
    const Json response = Json::parse(line);
    Json reduced = Json::object();
    for (const auto& member : response.members()) {
        if (member.first != "cache") reduced.set(member.first, member.second);
    }
    return reduced.dump();
}

TEST(ServeStress, ManyClientsMixedRequestsMatchOneShotRuns) {
    // The mixed request menu.  Budget-starved lines use models no other
    // request submits, so a cached result can never mask the refusal.
    std::vector<std::string> menu;
    for (int k = 2; k <= 5; ++k) {
        menu.push_back(write_text_string(ring_graph(k, k)));
    }
    for (const char* bad :
         {"bad/deadlocked.sdf", "bad/overflow.sdf", "bad/starved_selfloop.sdf"}) {
        Json request = Json::object();
        request.set("op", Json::string("throughput"));
        request.set("model_path", Json::string(data_path(bad)));
        menu.push_back(request.dump());
    }
    {
        Json starved = Json::object();
        starved.set("op", Json::string("throughput"));
        starved.set("model", Json::string(write_text_string(ring_graph(7, 1))));
        Json budget = Json::object();
        budget.set("max_steps", Json::integer(1));
        starved.set("budget", std::move(budget));
        starved.set("degrade", Json::string("never"));
        menu.push_back(starved.dump());
    }
    menu.push_back("{\"op\":\"lint\",\"model\":\"graph g\\nactor a 1\\n\"}");
    menu.push_back("{broken json");
    menu.push_back("{\"op\":\"warp\"}");
    // Entries 0..3 are raw models, not request lines; wrap them.
    for (int k = 0; k < 4; ++k) {
        Json request = Json::object();
        request.set("op", Json::string("throughput"));
        request.set("model", Json::string(menu[k]));
        menu[k] = request.dump();
    }

    constexpr int kClients = 8;
    constexpr int kPerClient = 24;

    // Expected answer per (client, slot): a fresh one-shot core per line,
    // the daemon analogue of running the CLI once.  Ids are per-slot so a
    // cross-wired reply cannot masquerade as the right one.
    std::vector<std::vector<std::string>> lines(kClients);
    std::vector<std::vector<std::string>> expected(kClients);
    for (int c = 0; c < kClients; ++c) {
        for (int s = 0; s < kPerClient; ++s) {
            const std::string& base = menu[(c * 7 + s * 5) % menu.size()];
            std::string line = base;
            std::int64_t id = c * 1000 + s;
            try {
                Json request = Json::parse(base);
                request.set("id", Json::integer(id));
                line = request.dump();
            } catch (const JsonParseError&) {
                // malformed stays malformed; its echo id is null
            }
            lines[c].push_back(line);
            ServeCore one_shot;
            expected[c].push_back(sans_cache(one_shot.handle_line(line)));
        }
    }

    ServeCore core;
    ServerOptions options;
    options.threads = 4;
    options.max_queue = 10'000;  // admission must not fire in this test
    Server server(core, options);

    std::vector<std::vector<std::string>> replies(
        kClients, std::vector<std::string>(kPerClient));
    std::vector<std::vector<std::atomic<int>>> reply_counts(kClients);
    for (auto& row : reply_counts) {
        row = std::vector<std::atomic<int>>(kPerClient);
    }
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int s = 0; s < kPerClient; ++s) {
                server.submit(lines[c][s], [&, c, s](std::string response) {
                    replies[c][s] = std::move(response);
                    reply_counts[c][s].fetch_add(1);
                });
            }
        });
    }
    for (std::thread& t : clients) t.join();
    server.drain();

    for (int c = 0; c < kClients; ++c) {
        for (int s = 0; s < kPerClient; ++s) {
            SCOPED_TRACE("client " + std::to_string(c) + " slot " +
                         std::to_string(s));
            EXPECT_EQ(reply_counts[c][s].load(), 1) << "lost or duplicated reply";
            EXPECT_EQ(sans_cache(replies[c][s]), expected[c][s]);
        }
    }
    const ServeCounters counters = core.counters();
    EXPECT_EQ(counters.requests, kClients * kPerClient);
}

TEST(ServeStress, AdmissionControlShedsInsteadOfQueueing) {
    // A deliberately heavy model and a queue bound of 1: rapid submissions
    // must start bouncing with 503-style refusals, and every reply — served
    // or refused — still arrives exactly once.
    const std::string heavy = throughput_line(1, write_text_string(
        fork_join_graph(192, 3)));
    ServeCore core;
    ServerOptions options;
    options.threads = 2;
    options.max_queue = 1;
    Server server(core, options);

    constexpr int kSubmissions = 64;
    std::atomic<int> replies{0};
    std::atomic<int> refused{0};
    std::mutex sample_mutex;
    std::string refused_sample;
    for (int i = 0; i < kSubmissions; ++i) {
        server.submit(heavy, [&](std::string response) {
            const Json parsed = Json::parse(response);
            const Json* error = parsed.find("error");
            if (error != nullptr && error->find("kind")->as_string() == "overloaded") {
                refused.fetch_add(1);
                std::lock_guard<std::mutex> hold(sample_mutex);
                refused_sample = std::move(response);
            }
            replies.fetch_add(1);
        });
    }
    server.drain();
    EXPECT_EQ(replies.load(), kSubmissions);
    EXPECT_GT(refused.load(), 0);
    ASSERT_FALSE(refused_sample.empty());
    const Json sample = Json::parse(refused_sample);
    EXPECT_FALSE(sample.find("ok")->as_boolean());
    EXPECT_EQ(sample.find("exit")->as_integer(), 4);
    EXPECT_EQ(sample.find("error")->find("code")->as_integer(), 503);
}

TEST(ServeStress, UnixSocketRoundTrip) {
    const std::string path =
        "/tmp/sdfred_test_serve_" + std::to_string(::getpid()) + ".sock";
    ServeCore core;
    ServerOptions options;
    options.threads = 2;
    Server server(core, options);
    std::thread daemon([&] { server.run_unix(path); });

    int fd = -1;
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::snprintf(address.sun_path, sizeof(address.sun_path), "%s",
                  path.c_str());
    // The listener needs a moment to bind; retry briefly.
    for (int attempt = 0; attempt < 200; ++attempt) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)) == 0) {
            break;
        }
        ::close(fd);
        fd = -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GE(fd, 0) << "could not connect to " << path;

    const std::string request = throughput_line(42, kCycleModel) + "\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buffer[4096];
    while (response.find('\n') == std::string::npos) {
        const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        ASSERT_GT(got, 0) << "connection closed before a full response";
        response.append(buffer, static_cast<std::size_t>(got));
    }
    const Json parsed = Json::parse(response.substr(0, response.find('\n')));
    EXPECT_EQ(parsed.find("id")->as_integer(), 42);
    EXPECT_TRUE(parsed.find("ok")->as_boolean());
    EXPECT_EQ(result_of(parsed)->find("period")->as_string(), "5/2");

    const std::string shutdown = "{\"id\":43,\"op\":\"shutdown\"}\n";
    ASSERT_EQ(::send(fd, shutdown.data(), shutdown.size(), 0),
              static_cast<ssize_t>(shutdown.size()));
    daemon.join();
    ::close(fd);
    ::unlink(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace sdf
