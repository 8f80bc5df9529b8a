// serve_mix and serve_edit — closed-loop clients against a spawned
// `sdfred_cli serve --socket` daemon (default 4 worker lanes, 64 cache
// entries), four connections at a time (fewer on a machine with fewer CPUs).
//
//   serve_mix   the read path: 3 of every 4 requests are `throughput` on
//               one of 16 models the warm-up interned (result-cache hits:
//               JSON framing, raw-text memo, replay); the 4th is a seeded
//               execution-time variant of a Table-1 model or
//               fork_join(256), which misses and pays parse + analysis.
//   serve_edit  the write side: `edit` + `then: throughput` with 1–3
//               seeded steps (80% execution-time, 20% +1 token) on four
//               parents, each op interning a new child and churning the
//               LRU.  An evicted parent answers 400 and the client
//               resubmits it by model; the resubmit is part of that op.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "analysis/incremental.hpp"
#include "analysis/throughput.hpp"
#include "base/portable_rng.hpp"
#include "gen/structured.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "maxplus/mcm.hpp"
#include "process.hpp"
#include "referee.hpp"
#include "sdf/repetition.hpp"
#include "serve/graph_store.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"
#include "transform/symbolic.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using sdf::serve::GraphStore;
using sdf::serve::Json;

enum class ServeKind { mix, edit };

/// Client connections of the end-to-end runs: four, but never more than
/// the machine has CPUs.
int connection_count() {
    return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1U, 4U));
}

constexpr double kRequestTimeoutS = 120.0;
constexpr std::size_t kMissesRefereed = 64;

/// The daemon's peak memory is read when op number kPeakAfterOps finishes
/// (or at the end of a window with fewer ops): its heap grows with the ops
/// it serves, so a peak read at the end of the window would grow with the
/// speed of the machine.
constexpr std::uint64_t kPeakAfterOps = 3000;

/// A model as the client sends it.
struct ServeModel {
    std::string label;
    sdf::Graph graph;
    std::string quoted;  ///< the model text as a JSON string literal
};

ServeModel make_model(std::string label, sdf::Graph graph, const std::string& text) {
    return {std::move(label), std::move(graph), Json::string(text).dump()};
}

ServeModel generated(const std::string& label, sdf::Graph graph) {
    const std::string text = sdf::write_text_string(graph);
    return make_model(label, std::move(graph), text);
}

ServeModel table1_model(const Context& ctx, const std::string& file) {
    const std::string text = read_file(ctx.data_file(file));
    return make_model(file, sdf::read_xml_string(text), text);
}

std::vector<sdf::Int> chain_times(std::size_t stages) {
    std::vector<sdf::Int> times;
    for (std::size_t i = 0; i < stages; ++i) times.push_back(static_cast<sdf::Int>(i % 7) + 1);
    return times;
}

/// A model whose seeded execution-time variants the mix sends as misses:
/// its canonical text as a JSON literal, with the offset of every actor's
/// time digits, so a variant line is two copies and a number.
struct VariantBase {
    std::string label;
    sdf::Graph graph;
    std::string quoted;
    std::vector<std::size_t> time_at;
    std::vector<std::size_t> time_digits;
};

VariantBase variant_base(std::string label, sdf::Graph graph) {
    VariantBase base{std::move(label), std::move(graph), "", {}, {}};
    base.quoted = Json::string(sdf::write_text_string(base.graph)).dump();
    for (const sdf::Actor& actor : base.graph.actors()) {
        const std::string quoted_line = Json::string("\nactor " + actor.name + " ").dump();
        const std::string needle = quoted_line.substr(1, quoted_line.size() - 2);
        const std::size_t at = base.quoted.find(needle);
        if (at == std::string::npos) {
            throw std::runtime_error("no actor line for " + actor.name + " in " + base.label);
        }
        base.time_at.push_back(at + needle.size());
        base.time_digits.push_back(std::to_string(actor.execution_time).size());
    }
    return base;
}

/// Everything fixed before the first request: the models, and the lines
/// that warm a daemon (or an in-process replay) up.
struct ServeSetup {
    ServeKind kind = ServeKind::mix;
    std::vector<ServeModel> hot;      ///< 16 models interned by warm-up
    std::vector<ServeModel> parents;  ///< the edit parents, warmed by a no-op edit
    std::vector<VariantBase> bases;   ///< mix misses vary these
    std::vector<std::string> warm_lines;
};

struct EditStepSpec {
    bool execution_time = true;
    std::size_t target = 0;  ///< actor or channel index
    sdf::Int value = 0;
};

std::string edit_line(const std::string& id, const std::string& parent_ref,
                      const sdf::Graph& parent, const std::vector<EditStepSpec>& steps) {
    std::string line = "{\"id\":" + id + ",\"op\":\"edit\"," + parent_ref + ",\"edits\":[";
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const EditStepSpec& step = steps[i];
        line += i > 0 ? "," : "";
        if (step.execution_time) {
            line += "{\"set\":\"execution-time\",\"actor\":" +
                    Json::string(parent.actor(step.target).name).dump() +
                    ",\"time\":" + std::to_string(step.value) + "}";
        } else {
            line += "{\"set\":\"initial-tokens\",\"channel\":" + std::to_string(step.target) +
                    ",\"tokens\":" + std::to_string(step.value) + "}";
        }
    }
    return line + "],\"then\":\"throughput\"}";
}

std::string throughput_line(const std::string& id, const std::string& quoted) {
    return "{\"id\":" + id + ",\"op\":\"throughput\",\"model\":" + quoted + "}";
}

ServeSetup serve_setup(const Context& ctx, ServeKind kind) {
    ServeSetup setup;
    setup.kind = kind;
    for (const Table1Model& model : ctx.table1) {
        setup.hot.push_back(table1_model(ctx, model.file));
    }
    setup.hot.push_back(generated("fork_join(128, 2)", sdf::fork_join_graph(128, 2)));
    setup.hot.push_back(generated("fork_join(256, 3)", sdf::fork_join_graph(256, 3)));
    setup.hot.push_back(generated("fork_join(512, 3)", sdf::fork_join_graph(512, 3)));
    setup.hot.push_back(generated("fork_join(1024, 3)", sdf::fork_join_graph(1024, 3)));
    setup.hot.push_back(generated("ring(64, 3)", sdf::ring_graph(64, 3)));
    setup.hot.push_back(generated("ring(256, 3)", sdf::ring_graph(256, 3)));
    setup.hot.push_back(generated("chain(32)", sdf::chain_graph(chain_times(32), 2)));
    setup.hot.push_back(generated("chain(128)", sdf::chain_graph(chain_times(128), 4)));

    setup.parents.push_back(generated("fork_join(1024, 5, 4)", sdf::fork_join_graph(1024, 5, 4)));
    setup.parents.push_back(generated("ring(256, 3, 4)", sdf::ring_graph(256, 3, 4)));
    setup.parents.push_back(table1_model(ctx, "satellite.xml"));
    setup.parents.push_back(table1_model(ctx, "mp3playback.xml"));

    if (kind == ServeKind::mix) {
        for (const Table1Model& model : ctx.table1) {
            setup.bases.push_back(variant_base(
                model.file, sdf::read_xml_file(ctx.data_file(model.file))));
        }
        setup.bases.push_back(variant_base("fork_join(256, 3)", sdf::fork_join_graph(256, 3)));
    }

    for (std::size_t i = 0; i < setup.hot.size(); ++i) {
        setup.warm_lines.push_back(
            throughput_line("\"warm" + std::to_string(i) + "\"", setup.hot[i].quoted));
    }
    // A no-op edit interns each parent, primes its warm throughput state
    // and reports the display id the edit ops then name it by.
    for (std::size_t p = 0; p < setup.parents.size(); ++p) {
        const ServeModel& parent = setup.parents[p];
        setup.warm_lines.push_back(
            edit_line("\"parent" + std::to_string(p) + "\"", "\"model\":" + parent.quoted,
                      parent.graph, {{true, 0, parent.graph.actor(0).execution_time}}));
    }
    return setup;
}

bool answered_ok(const std::string& response) {
    return response.find("\"ok\":true") != std::string::npos &&
           response.find("\"exit\":0") != std::string::npos;
}

/// The period of a throughput answer, or of an edit answer's `then`.
std::optional<std::string> answered_period(const std::string& response) {
    const std::size_t then = response.find("\"then\":");
    return string_member(response, "period", then == std::string::npos ? 0 : then);
}

std::string excerpt(const std::optional<std::string>& response) {
    if (!response) return "no response";
    return response->size() > 200 ? response->substr(0, 200) + "..." : *response;
}

/// What the warm-up answered: the reference answers every later hit and
/// edit is held to, and the parents' display ids.
struct WarmState {
    std::vector<std::string> hot_periods;
    std::vector<std::string> parent_ids;
    std::vector<std::string> parent_periods;
};

template <typename Send>
WarmState warm_up(const ServeSetup& setup, Send&& send, Failures& failures) {
    WarmState warm;
    for (std::size_t i = 0; i < setup.warm_lines.size(); ++i) {
        const std::optional<std::string> response = send(setup.warm_lines[i]);
        const bool ok = response && answered_ok(*response);
        if (!ok) failures.add("warm-up request " + std::to_string(i) + ": " + excerpt(response));
        const std::string period = ok ? answered_period(*response).value_or("") : "";
        if (i < setup.hot.size()) {
            warm.hot_periods.push_back(period);
        } else {
            warm.parent_ids.push_back(ok ? string_member(*response, "parent").value_or("") : "");
            warm.parent_periods.push_back(period);
        }
    }
    return warm;
}

/// One op of either workload.
struct ServeOp {
    bool hot = true;          ///< mix: a warm model, else a variant of bases[model]
    std::size_t model = 0;    ///< mix: hot or base index; edit: parent index
    std::size_t actor = 0;    ///< mix variant
    sdf::Int time = 0;        ///< mix variant
    std::vector<EditStepSpec> steps;  ///< edit
};

/// The seeded op order.  mix: one miss at a seeded slot of every four
/// ops, hot models and variant bases each in shuffled cycles.  edit:
/// parents in a shuffled cycle, 1–3 steps of which 80% are
/// execution-time edits to [1, 2t+1] and 20% add a token to a channel.
class ServeOrder {
public:
    ServeOrder(const Context& ctx, const ServeSetup& setup)
        : setup_(setup),
          rng_(ctx.rng(3)),
          models_(setup.kind == ServeKind::mix ? setup.hot.size() : setup.parents.size(),
                  ctx.rng(4)),
          bases_(std::max<std::size_t>(setup.bases.size(), 1), ctx.rng(5)) {}

    ServeOp next() {
        ServeOp op;
        if (setup_.kind == ServeKind::mix) {
            if (slot_ == 0) miss_slot_ = sdf::draw_index(rng_, 4);
            const bool miss = slot_ == miss_slot_;
            slot_ = (slot_ + 1) % 4;
            if (!miss) {
                op.model = models_.next();
                return op;
            }
            op.hot = false;
            op.model = bases_.next();
            op.actor = sdf::draw_index(rng_, setup_.bases[op.model].graph.actor_count());
            op.time = sdf::draw_int(rng_, 1, 1'000'000);
            return op;
        }
        op.model = models_.next();
        const sdf::Graph& parent = setup_.parents[op.model].graph;
        std::map<std::size_t, sdf::Int> tokens;
        const std::size_t steps = 1 + sdf::draw_index(rng_, 3);
        for (std::size_t s = 0; s < steps; ++s) {
            if (sdf::draw_chance(rng_, 0.8)) {
                const std::size_t a = sdf::draw_index(rng_, parent.actor_count());
                op.steps.push_back(
                    {true, a, sdf::draw_int(rng_, 1, 2 * parent.actor(a).execution_time + 1)});
            } else {
                const std::size_t c = sdf::draw_index(rng_, parent.channel_count());
                const auto [it, fresh] = tokens.try_emplace(c, parent.channel(c).initial_tokens);
                op.steps.push_back({false, c, ++it->second});
            }
        }
        return op;
    }

private:
    const ServeSetup& setup_;
    std::mt19937 rng_;
    ShuffledCycle models_;
    ShuffledCycle bases_;
    std::size_t slot_ = 0;
    std::size_t miss_slot_ = 0;
};

std::string variant_line(const std::string& id, const VariantBase& base, const ServeOp& op) {
    const std::size_t at = base.time_at[op.actor];
    std::string line = "{\"id\":" + id + ",\"op\":\"throughput\",\"model\":";
    line.append(base.quoted, 0, at);
    line += std::to_string(op.time);
    line.append(base.quoted, at + base.time_digits[op.actor], std::string::npos);
    return line + "}";
}

/// Sends one op — and, for an edit whose parent was evicted, the resubmit
/// by model — through `send`; returns the final response.
template <typename Send>
std::optional<std::string> execute(const ServeSetup& setup, const WarmState& warm,
                                   const ServeOp& op, std::uint64_t index, Send&& send,
                                   bool& resubmitted) {
    const std::string id = std::to_string(index);
    if (setup.kind == ServeKind::mix) {
        return send(op.hot ? throughput_line(id, setup.hot[op.model].quoted)
                           : variant_line(id, setup.bases[op.model], op));
    }
    const ServeModel& parent = setup.parents[op.model];
    std::optional<std::string> response = send(edit_line(
        id, "\"parent\":\"" + warm.parent_ids[op.model] + "\"", parent.graph, op.steps));
    if (response && response->find("unknown parent graph") != std::string::npos) {
        resubmitted = true;
        response = send(edit_line(id, "\"model\":" + parent.quoted, parent.graph, op.steps));
    }
    return response;
}

/// An edit op kept whole for the post-window checks.
struct EditSample {
    ServeOp op;
    std::string response;
};

/// What one client thread saw.
struct ClientLog {
    Samples samples;
    Failures failures;
    std::vector<std::tuple<std::size_t, std::size_t, sdf::Int, std::string>> misses;
    std::vector<EditSample> edits;
    std::uint64_t resubmits = 0;
};

/// Edit ops whose child the referee checks: the first 16 and a seeded
/// one in 16 after that.
bool edit_sampled(std::uint64_t seed, std::uint64_t index) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return index < 16 || ((z ^ (z >> 31)) & 15) == 0;
}

/// Checks the parts of an answer that need nothing but the warm-up, and
/// logs what the post-window checks need.
void check_answer(const Context& ctx, const ServeSetup& setup, const WarmState& warm,
                  const ServeOp& op, std::uint64_t index,
                  const std::optional<std::string>& response, ClientLog& log) {
    const std::string label = "op " + std::to_string(index);
    if (!response || !answered_ok(*response)) {
        log.failures.add(label + ": " + excerpt(response));
        return;
    }
    const std::optional<std::string> period = answered_period(*response);
    if (!period) {
        log.failures.add(label + ": no period in " + excerpt(response));
        return;
    }
    if (setup.kind == ServeKind::edit) {
        if (edit_sampled(ctx.options.seed, index)) log.edits.push_back({op, *response});
    } else if (op.hot) {
        if (*period != warm.hot_periods[op.model]) {
            log.failures.add(label + ": " + setup.hot[op.model].label + " answered " + *period +
                             ", warm-up answered " + warm.hot_periods[op.model]);
        }
    } else {
        log.misses.emplace_back(op.model, op.actor, op.time, *period);
    }
}

/// The post-window checks: the referee on every warm-up answer, on a
/// seeded sample of mix misses, and on the child of every sampled edit
/// (whose canonical text must also equal the client's own edit).
void verify_serve(const Context& ctx, const ServeSetup& setup, const WarmState& warm,
                  const ClientLog& log, Failures& failures) {
    for (std::size_t i = 0; i < setup.hot.size(); ++i) {
        check_period(setup.hot[i].graph, warm.hot_periods[i], setup.hot[i].label, failures);
        if (i < ctx.table1.size() && warm.hot_periods[i] != ctx.table1[i].period) {
            failures.add(setup.hot[i].label + ": answered " + warm.hot_periods[i] +
                         ", expected " + ctx.table1[i].period);
        }
    }
    for (std::size_t p = 0; p < setup.parents.size(); ++p) {
        check_period(setup.parents[p].graph, warm.parent_periods[p], setup.parents[p].label,
                     failures);
    }

    std::map<std::tuple<std::size_t, std::size_t, sdf::Int>, std::string> answers;
    for (const auto& [base, actor, time, period] : log.misses) {
        const auto [it, fresh] = answers.try_emplace({base, actor, time}, period);
        if (!fresh && it->second != period) {
            failures.add(setup.bases[base].label + " variant answered two periods");
        }
    }
    std::vector<std::size_t> order(log.misses.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::mt19937 rng = ctx.rng(6);
    for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[sdf::draw_index(rng, i)]);
    }
    order.resize(std::min(order.size(), kMissesRefereed));
    for (const std::size_t i : order) {
        const auto& [base, actor, time, period] = log.misses[i];
        sdf::Graph variant = setup.bases[base].graph;
        variant.set_execution_time(actor, time);
        check_period(variant, period, setup.bases[base].label + " variant", failures);
    }

    for (const EditSample& sample : log.edits) {
        const ServeModel& parent = setup.parents[sample.op.model];
        const std::string label = "edit of " + parent.label;
        try {
            sdf::Graph expected = parent.graph;
            for (const EditStepSpec& step : sample.op.steps) {
                if (step.execution_time) {
                    expected.set_execution_time(step.target, step.value);
                } else {
                    expected.set_initial_tokens(step.target, step.value);
                }
            }
            const Json response = Json::parse(sample.response);
            const Json& result = *response.find("result");
            const std::string& child_text = result.find("model")->as_string();
            if (child_text != sdf::write_text_string(expected)) {
                failures.add(label + ": child model differs from the client's own edit");
                continue;
            }
            const std::string& period =
                result.find("then")->find("result")->find("period")->as_string();
            check_period(sdf::read_text_string(child_text), period, label, failures);
        } catch (const std::exception& e) {
            failures.add(label + ": malformed answer (" + e.what() + ")");
        }
    }
}

std::string socket_path(const Context& ctx) {
    return ctx.options.scratch + "/e2e-" + std::to_string(::getpid()) + ".sock";
}

/// Store counters from the daemon's `stats` op.
struct StoreCounters {
    double result_hits = 0;
    double result_misses = 0;
    double graph_hits = 0;
    double graph_misses = 0;
    double evictions = 0;
    double kept = 0;
    double refined = 0;
};

StoreCounters read_stats(Connection& connection) {
    const std::optional<std::string> response =
        connection.round_trip(R"({"id":"stats","op":"stats"})", kRequestTimeoutS);
    if (!response) throw std::runtime_error("no answer to stats");
    const Json stats = Json::parse(*response);
    const Json& result = *stats.find("result");
    const Json& cache = *result.find("cache");
    const Json& delta = *result.find("delta");
    const auto number = [](const Json& object, const char* key) {
        return static_cast<double>(object.find(key)->as_integer());
    };
    return {number(cache, "result_hits"), number(cache, "result_misses"),
            number(cache, "graph_hits"),  number(cache, "graph_misses"),
            number(cache, "graph_evictions"), number(delta, "kept"),
            number(delta, "refined")};
}

/// The daemon's request path — ServeCore::handle_line for the throughput
/// and edit requests these workloads send, all on models with a finite
/// period — rebuilt from the public call of each layer, so every call gets
/// a span.  Its responses are the daemon's byte for byte, which the trace
/// run checks.
class ServeReplay {
public:
    ServeReplay() : store_(64) {}

    std::string handle(const std::string& line, Tracer& tracer) {
        using namespace sdf::serve;
        Span root(tracer, "serve.core");
        const Json json = in_span(tracer, "serve.json", [&] { return Json::parse(line); });
        const Request request =
            in_span(tracer, "serve.request", [&] { return parse_request(json); });
        std::string cache_state = "none";
        Json result;
        try {
            result = request.op == Op::edit ? edit(request, tracer, cache_state)
                                            : throughput(request, tracer, cache_state);
        } catch (const BadRequestError& e) {
            return in_span(tracer, "serve.json", [&] {
                return make_error_response(request.id, Json::string(op_name(request.op)), 2,
                                           "none", make_error(400, "bad-request", e.what()))
                    .dump();
            });
        }
        return in_span(tracer, "serve.json", [&] {
            Json response = make_response(request.id, true, request.op, 0, cache_state);
            response.set("result", std::move(result));
            return response.dump();
        });
    }

    double precedence_edges = 0;
    double rescored_sccs = 0;

private:
    static Json throughput_json(const sdf::Graph& graph, const sdf::ThroughputResult& answer) {
        Json result = Json::object();
        result.set("status", Json::string("exact"));
        result.set("method", Json::string("symbolic-exact"));
        result.set("outcome", Json::string("finite"));
        result.set("period", Json::string(answer.period.to_string()));
        Json actors = Json::array();
        for (sdf::ActorId a = 0; a < graph.actor_count(); ++a) {
            Json entry = Json::object();
            entry.set("actor", Json::string(graph.actor(a).name));
            entry.set("throughput", Json::string(answer.per_actor[a].to_string()));
            actors.push_back(std::move(entry));
        }
        result.set("actors", std::move(actors));
        return result;
    }

    /// cached_throughput on a fresh model, one layer call at a time.
    Json analyze(const sdf::Graph& graph, Tracer& tracer) {
        const std::vector<sdf::Int> q =
            in_span(tracer, "sdf.repetition", [&] { return sdf::repetition_vector(graph); });
        const sdf::SymbolicIteration iteration = in_span(
            tracer, "transform.symbolic", [&] { return sdf::symbolic_iteration(graph); });
        const sdf::Digraph precedence = in_span(
            tracer, "maxplus.precedence", [&] { return iteration.matrix.precedence_graph(); });
        precedence_edges += static_cast<double>(precedence.edge_count());
        const sdf::CycleMetric metric =
            in_span(tracer, "maxplus.mcm", [&] { return sdf::max_cycle_mean_karp(precedence); });
        return in_span(tracer, "serve.json", [&] {
            sdf::ThroughputResult answer;
            answer.period = metric.value;
            for (const sdf::Int firings : q) {
                answer.per_actor.push_back(sdf::Rational(firings) / metric.value);
            }
            return throughput_json(graph, answer);
        });
    }

    /// Replays a cached result, or runs `compute` and caches its result.
    template <typename Compute>
    Json through_cache(const std::string& graph_key, const std::string& op_key,
                       Tracer& tracer, std::string& cache_state, Compute&& compute) {
        const auto cached = in_span(tracer, "serve.result_cache",
                                    [&] { return store_.find_result(graph_key, op_key); });
        if (cached) {
            cache_state = "hit";
            return in_span(tracer, "serve.json", [&] { return Json::parse(cached->second); });
        }
        cache_state = "miss";
        Json result = compute();
        const std::string dumped = in_span(tracer, "serve.json", [&] { return result.dump(); });
        in_span(tracer, "serve.result_cache",
                [&] { store_.store_result(graph_key, op_key, 0, dumped); });
        return result;
    }

    Json throughput(const sdf::serve::Request& request, Tracer& tracer,
                    std::string& cache_state) {
        const GraphStore::Interned interned =
            in_span(tracer, "serve.intern", [&] { return store_.intern_text(request.model); });
        return through_cache(interned.key, "throughput|", tracer, cache_state,
                             [&] { return analyze(interned.graph, tracer); });
    }

    Json edit(const sdf::serve::Request& request, Tracer& tracer, std::string& cache_state) {
        using sdf::serve::EditStep;
        GraphStore::Interned parent;
        if (!request.parent.empty()) {
            auto found =
                in_span(tracer, "serve.intern", [&] { return store_.find_by_id(request.parent); });
            if (!found) {
                throw sdf::serve::BadRequestError(
                    "unknown parent graph \"" + request.parent +
                    "\" (evicted or never interned; resubmit the model with \"model\" or "
                    "\"model_path\")");
            }
            parent = std::move(*found);
        } else {
            parent = in_span(tracer, "serve.intern",
                             [&] { return store_.intern_text(request.model); });
        }
        const std::string op_key = in_span(tracer, "serve.request", [&] {
            return "edit|" + sdf::serve::edits_json(request.edits).dump() + "|" +
                   request.then_op;
        });
        return through_cache(parent.key, op_key, tracer, cache_state, [&] {
            in_span(tracer, "analysis.incremental", [&] {
                try {
                    sdf::warm_throughput(parent.graph);
                } catch (const sdf::Error&) {
                }
            });
            std::int64_t applied = 0;
            sdf::Graph child = in_span(tracer, "sdf.mutate", [&] {
                sdf::Graph copy = parent.graph;
                for (const EditStep& step : request.edits) {
                    const sdf::AnalysisManager* before = copy.analyses().get();
                    if (step.kind == EditStep::Kind::execution_time) {
                        const std::optional<sdf::ActorId> actor = copy.find_actor(step.actor);
                        if (!actor) {
                            throw sdf::serve::BadRequestError("unknown actor \"" + step.actor +
                                                              "\"");
                        }
                        copy.set_execution_time(*actor, step.value);
                    } else if (step.kind == EditStep::Kind::initial_tokens) {
                        copy.set_initial_tokens(step.channel, step.value);
                    } else {
                        copy.set_rates(step.channel, step.production, step.consumption);
                    }
                    applied += copy.analyses().get() != before ? 1 : 0;
                }
                return copy;
            });
            const GraphStore::Interned interned =
                in_span(tracer, "serve.intern", [&] { return store_.intern_graph(std::move(child)); });
            Json result = in_span(tracer, "serve.json", [&] {
                Json r = Json::object();
                r.set("parent", Json::string(parent.id));
                r.set("graph", Json::string(interned.id));
                r.set("model", Json::string(interned.key));
                r.set("applied", Json::integer(applied));
                r.set("actors",
                      Json::integer(static_cast<std::int64_t>(interned.graph.actor_count())));
                r.set("channels",
                      Json::integer(static_cast<std::int64_t>(interned.graph.channel_count())));
                return r;
            });
            std::string then_state;
            Json then_result =
                through_cache(interned.key, request.then_op + "|", tracer, then_state, [&] {
                    const auto answer = in_span(tracer, "analysis.incremental", [&] {
                        return sdf::cached_throughput(interned.graph);
                    });
                    count_rescored(parent.graph, interned.graph);
                    return in_span(tracer, "serve.json",
                                   [&] { return throughput_json(interned.graph, *answer); });
                });
            in_span(tracer, "serve.json", [&] {
                Json then = Json::object();
                then.set("op", Json::string(request.then_op));
                then.set("result", std::move(then_result));
                result.set("then", std::move(then));
            });
            return result;
        });
    }

    /// SCCs the child's certificate re-solved when it was refined from the
    /// parent's (the counters are cumulative over the refinement lineage).
    void count_rescored(const sdf::Graph& parent, const sdf::Graph& child) {
        const auto before = parent.analyses()->cached<sdf::IncrementalThroughputAnalysis>();
        const auto after = child.analyses()->cached<sdf::IncrementalThroughputAnalysis>();
        if (before && after && after->refines > before->refines) {
            rescored_sccs += static_cast<double>(after->rescored_sccs - before->rescored_sccs);
        }
    }

    GraphStore store_;
};

/// The end-to-end run: closed-loop connections for the window, on the last
/// of five daemons set up before it; four more are set up after it.  The
/// set-up time is the median of the nine, so a slow phase of the machine at
/// one end of the run does not decide it.
Result run_serve(const Context& ctx, ServeKind kind) {
    Result result;
    Failures& failures = result.failures;
    const ServeSetup setup = serve_setup(ctx, kind);
    const std::string path = socket_path(ctx);

    std::vector<double> setup_samples;
    const auto set_up = [&](WarmState& warm) {
        const Clock::time_point start = Clock::now();
        auto daemon = std::make_unique<Daemon>(ctx.options.cli, path, 30.0);
        Connection connection(path);
        warm = warm_up(
            setup,
            [&](const std::string& line) { return connection.round_trip(line, kRequestTimeoutS); },
            failures);
        setup_samples.push_back(seconds_since(start));
        return daemon;
    };
    const auto stop = [&](Daemon& daemon) {
        if (!daemon.stop(30.0)) failures.add("daemon did not shut down cleanly");
    };
    WarmState warm;
    std::unique_ptr<Daemon> daemon = set_up(warm);
    for (int i = 1; i < 5; ++i) {
        stop(*daemon);
        daemon.reset();  // its destructor removes the socket path
        daemon = set_up(warm);
    }

    ServeOrder order(ctx, setup);
    std::mutex order_mutex;
    std::uint64_t issued = 0;
    std::atomic<long> peak_rss_kb{0};
    const int connections = connection_count();
    std::vector<ClientLog> logs(static_cast<std::size_t>(connections));
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = ctx.window_end();
    std::vector<std::jthread> clients;  // joined on every path out
    for (int c = 0; c < connections; ++c) {
        clients.emplace_back([&, c] {
            ClientLog& log = logs[static_cast<std::size_t>(c)];
            try {
                Connection connection(path);
                const auto send = [&](const std::string& line) {
                    return connection.round_trip(line, kRequestTimeoutS);
                };
                for (;;) {
                    ServeOp op;
                    std::uint64_t index = 0;
                    {
                        const std::lock_guard<std::mutex> lock(order_mutex);
                        if (!ctx.more(issued, end)) break;
                        index = issued++;
                        op = order.next();
                    }
                    bool resubmitted = false;
                    const Clock::time_point op_start = Clock::now();
                    const std::optional<std::string> response =
                        execute(setup, warm, op, index, send, resubmitted);
                    log.samples.add(op_start);
                    check_answer(ctx, setup, warm, op, index, response, log);
                    if (index + 1 == kPeakAfterOps) peak_rss_kb = daemon->peak_rss_kb();
                }
            } catch (const std::exception& e) {
                log.failures.add(std::string("client ") + std::to_string(c) + ": " + e.what());
            }
        });
    }
    for (std::jthread& client : clients) client.join();
    const double window_s = seconds_since(start);
    if (peak_rss_kb == 0) peak_rss_kb = daemon->peak_rss_kb();
    stop(*daemon);
    for (int i = 0; i < 4; ++i) {
        WarmState again;
        stop(*set_up(again));
    }

    ClientLog merged;
    for (const ClientLog& log : logs) {
        merged.samples.merge(log.samples);
        merged.failures.merge(log.failures);
        merged.misses.insert(merged.misses.end(), log.misses.begin(), log.misses.end());
        merged.edits.insert(merged.edits.end(), log.edits.begin(), log.edits.end());
    }
    failures.merge(merged.failures);
    verify_serve(ctx, setup, warm, merged, failures);
    result.attempted = merged.samples.size();
    add_end_to_end(result, merged.samples, window_s, median(setup_samples),
                   static_cast<double>(peak_rss_kb) / 1024.0);
    return result;
}

/// The per-layer run: the op order once over one connection (live), then
/// replayed in-process untraced and traced, each after the same warm-up.
Result trace_serve(const Context& ctx, ServeKind kind) {
    Result result;
    Failures& failures = result.failures;
    const ServeSetup setup = serve_setup(ctx, kind);
    const std::string path = socket_path(ctx);
    TraceRun run;
    run.derived = "serve.transport";

    ServeOrder order(ctx, setup);
    std::vector<ServeOp> ops;
    std::vector<std::size_t> live_hashes;
    ClientLog log;
    WarmState warm;
    StoreCounters before;
    StoreCounters after;
    {
        Daemon daemon(ctx.options.cli, path, 30.0);
        Connection connection(path);
        const auto send = [&](const std::string& line) {
            return connection.round_trip(line, kRequestTimeoutS);
        };
        warm = warm_up(setup, send, failures);
        before = read_stats(connection);
        const Clock::time_point end = ctx.window_end(1.0 / 3);
        while (ctx.more(ops.size(), end) && ops.size() < kTraceMaxOps) {
            const ServeOp op = order.next();
            bool resubmitted = false;
            const Clock::time_point op_start = Clock::now();
            const std::optional<std::string> response =
                execute(setup, warm, op, ops.size(), send, resubmitted);
            run.e2e_ms.push_back(ms_since(op_start));
            log.resubmits += resubmitted ? 1 : 0;
            check_answer(ctx, setup, warm, op, ops.size(), response, log);
            live_hashes.push_back(std::hash<std::string>{}(response.value_or("")));
            ops.push_back(op);
        }
        after = read_stats(connection);
        if (!daemon.stop(30.0)) failures.add("daemon did not shut down cleanly");
    }
    failures.merge(log.failures);
    verify_serve(ctx, setup, warm, log, failures);

    // One replay per leg, each warmed like the daemon, so both see the
    // store state the daemon saw at every op.
    ServeReplay untraced_replay;
    ServeReplay traced_replay;
    for (ServeReplay* replay : {&untraced_replay, &traced_replay}) {
        Tracer quiet(false);
        Failures ignored;
        warm_up(setup, [&](const std::string& line) { return replay->handle(line, quiet); },
                ignored);
    }
    replay_both(
        run, ops.size(),
        [&](Tracer& tracer, std::size_t i, bool traced) {
            ServeReplay& replay = traced ? traced_replay : untraced_replay;
            bool resubmitted = false;
            return execute(
                setup, warm, ops[i], i,
                [&](const std::string& line) -> std::optional<std::string> {
                    return replay.handle(line, tracer);
                },
                resubmitted);
        },
        [&](std::size_t i, const std::optional<std::string>& response) {
            if (std::hash<std::string>{}(response.value_or("")) != live_hashes[i]) {
                failures.add("op " + std::to_string(i) +
                             ": in-process replay answered other bytes than the daemon");
            }
        });
    const double edges = traced_replay.precedence_edges;
    const double rescored = traced_replay.rescored_sccs;

    result.attempted = ops.size();
    const double op_count = static_cast<double>(std::max<std::size_t>(ops.size(), 1));
    const auto ratio = [](double part, double other) {
        return part + other > 0 ? part / (part + other) : 0.0;
    };
    LayerCounters counters;
    counters.result_hit_ratio = ratio(after.result_hits - before.result_hits,
                                      after.result_misses - before.result_misses);
    counters.intern_hit_ratio = ratio(after.graph_hits - before.graph_hits,
                                      after.graph_misses - before.graph_misses);
    counters.evictions = after.evictions - before.evictions;
    counters.delta_kept = after.kept - before.kept;
    counters.delta_refined = after.refined - before.refined;
    counters.parent_resubmits = static_cast<double>(log.resubmits);
    counters.rescored_sccs_per_op = rescored / op_count;
    counters.precedence_edges_per_op = edges / op_count;
    add_layer_metrics(result, run, counters);
    write_chrome_trace(ctx.options.trace_path, run.tracer);
    return result;
}

}  // namespace

Result run_serve_mix(const Context& ctx) { return run_serve(ctx, ServeKind::mix); }
Result trace_serve_mix(const Context& ctx) { return trace_serve(ctx, ServeKind::mix); }
Result run_serve_edit(const Context& ctx) { return run_serve(ctx, ServeKind::edit); }
Result trace_serve_edit(const Context& ctx) { return trace_serve(ctx, ServeKind::edit); }

}  // namespace e2e
