#include "serve/service.hpp"

#include <chrono>
#include <fstream>
#include <new>
#include <sstream>
#include <utility>

#include "analysis/incremental.hpp"
#include "lint/lint.hpp"
#include "pass/executor.hpp"
#include "serve/ops.hpp"
#include "verify/oracles.hpp"

namespace sdf {
namespace serve {

namespace {

/// What is left of `budget` after `used` has been spent (by the pipeline
/// stage that precedes the analysis).  Exhausted members clamp to the
/// smallest positive amount, so the follow-on governor trips at its first
/// checkpoint instead of running unlimited.
ExecutionBudget remaining_after(const ExecutionBudget& budget,
                                const ResourceUsage& used) {
    ExecutionBudget out = budget;
    if (out.deadline) {
        const auto spent =
            std::chrono::milliseconds(static_cast<std::int64_t>(used.wall_ms));
        out.deadline = *out.deadline > spent ? *out.deadline - spent
                                             : std::chrono::milliseconds(1);
    }
    if (out.max_steps) {
        out.max_steps = *out.max_steps > used.steps ? *out.max_steps - used.steps
                                                    : std::uint64_t{1};
    }
    if (out.max_bytes) {
        out.max_bytes = *out.max_bytes > used.accounted_bytes
                            ? *out.max_bytes - used.accounted_bytes
                            : std::uint64_t{1};
    }
    return out;
}

std::string read_model_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw ParseError("cannot open model file: " + path);
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

}  // namespace

// ---------------------------------------------------------------- Watchdog

Watchdog::Watchdog() : thread_([this] { loop(); }) {}

Watchdog::~Watchdog() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

std::uint64_t Watchdog::arm(CancellationToken token,
                            std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::uint64_t handle = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        handle = next_handle_++;
        armed_.push_back(Armed{handle, std::move(token), deadline});
    }
    cv_.notify_all();
    return handle;
}

void Watchdog::disarm(std::uint64_t handle) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = armed_.begin(); it != armed_.end(); ++it) {
        if (it->handle == handle) {
            armed_.erase(it);
            return;
        }
    }
    // Already reaped: the worker is unwinding from the cancellation right
    // now, and its 429 is counted by reaped_ — nothing to withdraw.
}

std::uint64_t Watchdog::reaped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reaped_;
}

void Watchdog::loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        if (armed_.empty()) {
            cv_.wait(lock, [this] { return stop_ || !armed_.empty(); });
            continue;
        }
        auto earliest = armed_.front().deadline;
        for (const Armed& entry : armed_) {
            earliest = std::min(earliest, entry.deadline);
        }
        cv_.wait_until(lock, earliest);
        const auto now = std::chrono::steady_clock::now();
        for (auto it = armed_.begin(); it != armed_.end();) {
            if (it->deadline <= now) {
                it->token.request_cancel();
                ++reaped_;
                it = armed_.erase(it);
            } else {
                ++it;
            }
        }
    }
}

// ---------------------------------------------------------------- ServeCore

ServeCore::ServeCore(ServeOptions options)
    : options_(std::move(options)), store_(options_.cache_graphs) {
    if (!options_.cache_dir.empty()) {
        PersistOptions persist_options;
        persist_options.dir = options_.cache_dir;
        persist_options.fsync_writes = options_.persist_fsync;
        // Throws when the directory is unusable: a daemon asked to persist
        // must not silently run volatile.
        owned_persist_ = std::make_unique<PersistentCache>(persist_options);
        attach_persistence(owned_persist_.get());
    }
    if (options_.request_deadline) {
        watchdog_ = std::make_unique<Watchdog>();
    }
}

std::size_t ServeCore::attach_persistence(PersistentCache* persist) {
    persist_ = persist;
    store_.attach_persistence(persist);
    warmed_ = persist != nullptr ? store_.warm() : 0;
    return warmed_;
}

void ServeCore::sync_persistence() {
    if (persist_ != nullptr) {
        persist_->sync();
    }
}

ServeCounters ServeCore::counters() const {
    ServeCounters out;
    out.requests = requests_.load(std::memory_order_relaxed);
    out.ok = ok_.load(std::memory_order_relaxed);
    out.errors = errors_.load(std::memory_order_relaxed);
    return out;
}

ExecutionBudget ServeCore::effective_budget(const Request& request) const {
    ExecutionBudget budget =
        request.has_budget ? request.budget : options_.default_budget;
    // The hard per-request deadline folds into every budget, so a request
    // that would otherwise run ungoverned becomes governed — that is what
    // gives its checkpoints something to check the watchdog's cancellation
    // against.
    if (options_.request_deadline) {
        budget.deadline = budget.deadline
                              ? std::min(*budget.deadline, *options_.request_deadline)
                              : *options_.request_deadline;
    }
    return budget;
}

std::string ServeCore::handle_line(const std::string& line) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    Json response;
    if (line.size() > options_.max_line_bytes) {
        // Refused before parsing: the bound exists precisely so a hostile
        // line cannot make the parser allocate in its own image.  No id can
        // be echoed — extracting it would mean parsing the oversized line.
        rejected_oversize_.fetch_add(1, std::memory_order_relaxed);
        response = make_error_response(
            Json::make_null(), Json::make_null(), 2, "none",
            make_error(413, "payload-too-large",
                       "request line of " + std::to_string(line.size()) +
                           " bytes exceeds the " +
                           std::to_string(options_.max_line_bytes) +
                           "-byte limit"));
    } else {
        CancellationToken token;
        std::uint64_t armed = 0;
        if (watchdog_) {
            armed = watchdog_->arm(token, *options_.request_deadline);
        }
        try {
            response = handle(Json::parse(line), token);
        } catch (const JsonParseError& e) {
            response = make_error_response(
                Json::make_null(), Json::make_null(), 2, "none",
                make_error(400, "bad-json", e.what()));
        }
        if (watchdog_) {
            watchdog_->disarm(armed);
        }
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    const Json* exit_member = response.find("exit");
    const std::int64_t exit_code =
        exit_member != nullptr ? exit_member->as_integer() : 1;
    (exit_code <= 1 ? ok_ : errors_).fetch_add(1, std::memory_order_relaxed);
    if (options_.timings) {
        const std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - start;
        response.set("wall_ms", Json::real(wall.count()));
    }
    return response.dump();
}

Json ServeCore::handle(const Json& request_json, const CancellationToken& token) {
    // Echo id and op even when the request later fails to validate.
    Json id;
    Json op_echo;
    if (request_json.is_object()) {
        if (const Json* found = request_json.find("id")) {
            if (found->is_string() || found->is_integer() || found->is_null()) {
                id = *found;
            }
        }
        if (const Json* found = request_json.find("op")) {
            if (found->is_string()) {
                op_echo = *found;
            }
        }
    }
    try {
        const Request request = parse_request(request_json);
        op_echo = Json::string(op_name(request.op));
        std::string cache_state = "none";
        int exit_code = 0;
        Json result;
        switch (request.op) {
            case Op::ping: {
                result = Json::object();
                result.set("pong", Json::boolean(true));
                break;
            }
            case Op::stats: {
                result = op_stats();
                break;
            }
            case Op::health: {
                result = op_health();
                break;
            }
            case Op::shutdown: {
                shutdown_.store(true, std::memory_order_relaxed);
                result = Json::object();
                result.set("stopping", Json::boolean(true));
                break;
            }
            case Op::edit: {
                result = op_edit(request, token, cache_state, exit_code);
                break;
            }
            default: {
                result = run_model_op(request, token, cache_state, exit_code);
                break;
            }
        }
        Json response =
            make_response(id, exit_code <= 1, request.op, exit_code, cache_state);
        response.set("result", std::move(result));
        return response;
    } catch (const BadRequestError& e) {
        return make_error_response(id, op_echo, 2, "none",
                              make_error(400, "bad-request", e.what()));
    } catch (const PipelineParseError& e) {
        return make_error_response(id, op_echo, 2, "none",
                              make_error(400, "bad-pipeline", e.what()));
    } catch (const ParseError& e) {
        return make_error_response(id, op_echo, 3, "none",
                              make_error(422, "parse-error", e.what()));
    } catch (const BudgetExceeded& e) {
        return make_error_response(
            id, op_echo, 4, "none",
            make_error(429, "budget-exceeded", e.what(),
                       budget_cause_name(e.cause())));
    } catch (const Error& e) {
        return make_error_response(id, op_echo, 1, "none",
                              make_error(500, "analysis-error", e.what()));
    } catch (const std::bad_alloc&) {
        return make_error_response(
            id, op_echo, 4, "none",
            make_error(429, "budget-exceeded", "allocation failed", "memory"));
    } catch (const std::exception& e) {
        return make_error_response(id, op_echo, 1, "none",
                              make_error(500, "internal-error", e.what()));
    }
}

Json ServeCore::run_model_op(const Request& request,
                             const CancellationToken& token,
                             std::string& cache_state, int& exit_code) {
    const std::string model_text = request.model_path.empty()
                                       ? request.model
                                       : read_model_file(request.model_path);
    const GraphStore::Interned interned = store_.intern_text(model_text);
    std::optional<Pipeline> pipeline;
    if (!request.pipeline.empty()) {
        pipeline = parse_pipeline(request.pipeline);
    }
    bool cacheable = true;
    return cached_op(request, request.op, interned, pipeline, token, cache_state,
                     exit_code, cacheable);
}

Json ServeCore::cached_op(const Request& request, Op op,
                          const GraphStore::Interned& interned,
                          const std::optional<Pipeline>& pipeline,
                          const CancellationToken& token, std::string& cache_state,
                          int& exit_code, bool& cacheable) {
    const std::string op_key = std::string(op_name(op)) + "|" +
                               (pipeline ? pipeline->to_string() : std::string());
    if (request.no_cache) {
        cache_state = "bypass";
    } else if (const auto cached = store_.find_result(interned.key, op_key)) {
        cache_state = "hit";
        exit_code = cached->first;
        return Json::parse(cached->second);
    } else {
        cache_state = "miss";
    }

    Json result;
    if (pipeline) {
        ExecutorOptions executor_options;
        executor_options.budget = effective_budget(request);
        executor_options.token = token;
        const PipelineRun run =
            PipelineExecutor(std::move(executor_options)).run(*pipeline, interned.graph);
        result = run_op(request, op, token, run.graph, run.total, exit_code, cacheable);
    } else {
        result = run_op(request, op, token, interned.graph, {}, exit_code, cacheable);
    }
    if (!request.no_cache && cacheable && exit_code <= 1) {
        store_.store_result(interned.key, op_key, exit_code, result.dump());
    }
    return result;
}

Json ServeCore::run_op(const Request& request, Op op, const CancellationToken& token,
                       const Graph& graph, const ResourceUsage& pipeline_used,
                       int& exit_code, bool& cacheable) const {
    const ExecutionBudget budget = effective_budget(request);
    switch (op) {
        case Op::throughput: {
            GovernOptions govern;
            govern.budget = remaining_after(budget, pipeline_used);
            govern.token = token;
            govern.degrade = request.degrade.value_or(true) ? DegradeMode::auto_
                                                            : DegradeMode::never;
            ops::ThroughputReport report = ops::throughput(graph, govern);
            const Governed<ThroughputResult>& governed = report.governed;
            if (!governed.ok()) {
                throw BudgetExceeded(
                    governed.cause == BudgetCause::none ? BudgetCause::steps
                                                        : governed.cause,
                    governed.detail.empty() ? "no result obtainable within the budget"
                                            : governed.detail);
            }
            exit_code = report.exit_code;
            cacheable = report.cacheable;
            return std::move(report.json);
        }
        case Op::lint: {
            std::optional<Governor> governor;
            std::optional<GovernorScope> scope;
            if (!budget.unlimited()) {
                governor.emplace(budget, token);
                scope.emplace(*governor);
                // A rule that trips the budget reports itself as a finding
                // instead of throwing (the linter's exception-free contract),
                // which makes governed lint runs budget-dependent — never
                // cache those.
                cacheable = false;
            }
            // No SourceMap and no file name: the report must be a pure
            // function of the canonical graph so cached replays are
            // bit-identical regardless of whether the model arrived inline
            // or by path.
            const LintReport report = lint_graph(graph);
            exit_code = report.has_at_least(Severity::error) ? 1 : 0;
            return ops::lint_json(report, "", graph.name());
        }
        case Op::certify: {
            ops::CertifyReport report = ops::certify(graph, budget, token, true);
            exit_code = report.exit_code;
            return std::move(report.json);
        }
        case Op::fuzz_smoke:
            return op_fuzz_smoke(request, graph, exit_code, cacheable);
        default:
            throw BadRequestError("op does not analyse a model");
    }
}

Json ServeCore::op_fuzz_smoke(const Request& request, const Graph& graph,
                              int& exit_code, bool& cacheable) const {
    OracleLimits limits;
    limits.budget = effective_budget(request);
    // run_oracle converts a budget trip into a typed `reject`, so a starved
    // fuzz-smoke degrades per oracle instead of failing wholesale — but the
    // verdicts then depend on the budget, so such runs are not cacheable.
    cacheable = limits.budget.unlimited();
    Json oracles = Json::array();
    std::int64_t failures = 0;
    for (const Oracle& oracle : oracle_registry()) {
        if (oracle.extra) {
            // Extra oracles (the serve-route oracle itself) run daemon
            // sweeps of their own; skipping them here keeps fuzz-smoke
            // recursion-free.
            continue;
        }
        const Verdict verdict = run_oracle(oracle, graph, limits);
        failures += verdict.failed() ? 1 : 0;
        Json entry = Json::object();
        entry.set("id", Json::string(oracle.id));
        entry.set("verdict", Json::string(verdict_status_name(verdict.status)));
        if (!verdict.detail.empty()) {
            entry.set("detail", Json::string(verdict.detail));
        }
        oracles.push_back(std::move(entry));
    }
    Json result = Json::object();
    result.set("oracles", std::move(oracles));
    result.set("failures", Json::integer(failures));
    exit_code = failures > 0 ? 1 : 0;
    return result;
}

Json ServeCore::op_edit(const Request& request, const CancellationToken& token,
                        std::string& cache_state, int& exit_code) {
    // Resolve the parent: by the display id of an already-interned model,
    // or by submitting the model text alongside the script.
    GraphStore::Interned parent;
    if (!request.parent.empty()) {
        std::optional<GraphStore::Interned> found = store_.find_by_id(request.parent);
        if (!found) {
            throw BadRequestError("unknown parent graph \"" + request.parent +
                                  "\" (evicted or never interned; resubmit the "
                                  "model with \"model\" or \"model_path\")");
        }
        parent = std::move(*found);
    } else {
        const std::string model_text = request.model_path.empty()
                                           ? request.model
                                           : read_model_file(request.model_path);
        parent = store_.intern_text(model_text);
    }

    // The response is a pure function of (parent canonical text, canonical
    // edit script, follow-on op), so it caches and replays like any other
    // result — the persisted entry doubles as the child's LINEAGE record:
    // graph_key = parent text, op_key = the script, result = child text.
    const Json script = edits_json(request.edits);
    const std::string op_key = std::string(op_name(Op::edit)) + "|" +
                               script.dump() + "|" + request.then_op;
    if (request.no_cache) {
        cache_state = "bypass";
    } else if (const auto cached = store_.find_result(parent.key, op_key)) {
        cache_state = "hit";
        exit_code = cached->first;
        return Json::parse(cached->second);
    } else {
        cache_state = "miss";
    }

    const ExecutionBudget budget = effective_budget(request);
    if (budget.unlimited()) {
        // Prime the warm throughput state on the PARENT entry so the edits
        // below refine it instead of seeding a cold child.  Inconsistent
        // parents have no schedule to trace — edits still derive the child,
        // so the failure only skips the warm-up.
        try {
            warm_throughput(parent.graph);
        } catch (const Error&) {
        }
    }

    // The copy shares the parent's AnalysisManager until the first edit;
    // each timing or token edit then records a MutationEvent and swaps in a
    // manager REFINED from the previous one (sdf/mutation.hpp), so the
    // parent's cached slots survive into the child wherever the delta
    // allows.  A rate edit starts the child over on an empty manager.
    Graph child = parent.graph;
    std::uint64_t applied = 0;
    std::uint64_t kept = 0;
    std::uint64_t refined = 0;
    for (std::size_t i = 0; i < request.edits.size(); ++i) {
        const EditStep& step = request.edits[i];
        const std::string at = " (edit #" + std::to_string(i) + ")";
        bool changed = false;
        switch (step.kind) {
            case EditStep::Kind::execution_time: {
                const std::optional<ActorId> actor = child.find_actor(step.actor);
                if (!actor) {
                    throw BadRequestError("unknown actor \"" + step.actor + "\"" + at);
                }
                changed = child.set_execution_time(*actor, step.value);
                break;
            }
            case EditStep::Kind::initial_tokens: {
                if (step.channel >= child.channel_count()) {
                    throw BadRequestError(
                        "channel " + std::to_string(step.channel) +
                        " out of range (graph has " +
                        std::to_string(child.channel_count()) + ")" + at);
                }
                changed = child.set_initial_tokens(step.channel, step.value);
                break;
            }
            case EditStep::Kind::rates: {
                if (step.channel >= child.channel_count()) {
                    throw BadRequestError(
                        "channel " + std::to_string(step.channel) +
                        " out of range (graph has " +
                        std::to_string(child.channel_count()) + ")" + at);
                }
                changed =
                    child.set_rates(step.channel, step.production, step.consumption);
                break;
            }
        }
        // A timing or token edit swaps in a fresh manager whose kept/refined
        // counters describe that one refinement; a rate edit leaves an empty
        // one, which counts nothing.  No-op edits keep the old manager (and
        // would double-count it), so they count as neither applied nor
        // refined.
        if (changed) {
            ++applied;
            for (const AnalysisSlotStats& slot : child.analyses()->stats()) {
                kept += slot.kept;
                refined += slot.refined;
            }
        }
    }
    slots_kept_.fetch_add(kept, std::memory_order_relaxed);
    slots_refined_.fetch_add(refined, std::memory_order_relaxed);
    edits_applied_.fetch_add(applied, std::memory_order_relaxed);

    const GraphStore::Interned interned = store_.intern_graph(std::move(child));

    Json result = Json::object();
    result.set("parent", Json::string(parent.id));
    result.set("graph", Json::string(interned.id));
    // The canonical child text is the client's handle for any follow-up
    // request (and what makes the cached lineage record self-contained).
    result.set("model", Json::string(interned.key));
    result.set("applied", Json::integer(static_cast<std::int64_t>(applied)));
    result.set("actors",
               Json::integer(static_cast<std::int64_t>(interned.graph.actor_count())));
    result.set("channels", Json::integer(static_cast<std::int64_t>(
                               interned.graph.channel_count())));

    exit_code = 0;
    bool cacheable = true;
    if (!request.then_op.empty()) {
        // Run the follow-on analysis on the child through the same cached
        // route as a direct request on the child model, under the same key
        // — so the inline answer here warms that future request and vice
        // versa.
        std::string then_cache_state;
        Json then = Json::object();
        then.set("op", Json::string(request.then_op));
        then.set("result", cached_op(request, parse_op(request.then_op), interned,
                                     std::nullopt, token, then_cache_state,
                                     exit_code, cacheable));
        result.set("then", std::move(then));
    }
    if (!request.no_cache && cacheable && exit_code <= 1) {
        store_.store_result(parent.key, op_key, exit_code, result.dump());
    }
    return result;
}

Json ServeCore::op_stats() const {
    const ServeCounters tallies = counters();
    const StoreStats store = store_.stats();
    Json result = Json::object();
    Json requests = Json::object();
    requests.set("total", Json::integer(static_cast<std::int64_t>(tallies.requests)));
    requests.set("ok", Json::integer(static_cast<std::int64_t>(tallies.ok)));
    requests.set("errors", Json::integer(static_cast<std::int64_t>(tallies.errors)));
    result.set("requests", std::move(requests));
    Json cache = Json::object();
    cache.set("graphs", Json::integer(static_cast<std::int64_t>(store.graphs)));
    cache.set("results", Json::integer(static_cast<std::int64_t>(store.results)));
    cache.set("graph_hits",
              Json::integer(static_cast<std::int64_t>(store.graph_hits)));
    cache.set("graph_misses",
              Json::integer(static_cast<std::int64_t>(store.graph_misses)));
    cache.set("graph_evictions",
              Json::integer(static_cast<std::int64_t>(store.graph_evictions)));
    cache.set("result_hits",
              Json::integer(static_cast<std::int64_t>(store.result_hits)));
    cache.set("result_misses",
              Json::integer(static_cast<std::int64_t>(store.result_misses)));
    result.set("cache", std::move(cache));
    Json delta = Json::object();
    delta.set("edits", Json::integer(static_cast<std::int64_t>(
                           edits_applied_.load(std::memory_order_relaxed))));
    delta.set("kept", Json::integer(static_cast<std::int64_t>(
                          slots_kept_.load(std::memory_order_relaxed))));
    delta.set("refined", Json::integer(static_cast<std::int64_t>(
                             slots_refined_.load(std::memory_order_relaxed))));
    result.set("delta", std::move(delta));
    result.set("queue_depth",
               Json::integer(static_cast<std::int64_t>(
                   queue_depth_ ? queue_depth_() : 0)));
    return result;
}

Json ServeCore::op_health() const {
    const StoreStats store = store_.stats();
    Json result = Json::object();
    result.set("status", Json::string("ok"));
    result.set("queue_depth",
               Json::integer(static_cast<std::int64_t>(
                   queue_depth_ ? queue_depth_() : 0)));
    // in_flight includes the health request reporting it, so it is >= 1.
    result.set("in_flight", Json::integer(static_cast<std::int64_t>(
                                in_flight_.load(std::memory_order_relaxed))));
    result.set("reaped", Json::integer(static_cast<std::int64_t>(reaped())));
    result.set("rejected_oversize",
               Json::integer(static_cast<std::int64_t>(
                   rejected_oversize_.load(std::memory_order_relaxed))));
    result.set("deadline_ms",
               options_.request_deadline
                   ? Json::integer(options_.request_deadline->count())
                   : Json::make_null());
    Json cache = Json::object();
    cache.set("graphs", Json::integer(static_cast<std::int64_t>(store.graphs)));
    cache.set("results", Json::integer(static_cast<std::int64_t>(store.results)));
    cache.set("result_hits",
              Json::integer(static_cast<std::int64_t>(store.result_hits)));
    result.set("cache", std::move(cache));
    Json delta = Json::object();
    delta.set("edits", Json::integer(static_cast<std::int64_t>(
                           edits_applied_.load(std::memory_order_relaxed))));
    delta.set("kept", Json::integer(static_cast<std::int64_t>(
                          slots_kept_.load(std::memory_order_relaxed))));
    delta.set("refined", Json::integer(static_cast<std::int64_t>(
                             slots_refined_.load(std::memory_order_relaxed))));
    result.set("delta", std::move(delta));
    Json persist = Json::object();
    persist.set("enabled", Json::boolean(persist_ != nullptr));
    if (persist_ != nullptr) {
        const PersistStats disk = persist_->stats();
        persist.set("dir", Json::string(persist_->dir()));
        persist.set("warmed", Json::integer(static_cast<std::int64_t>(warmed_)));
        persist.set("writes", Json::integer(static_cast<std::int64_t>(disk.writes)));
        persist.set("write_errors",
                    Json::integer(static_cast<std::int64_t>(disk.write_errors)));
        persist.set("quarantined",
                    Json::integer(static_cast<std::int64_t>(disk.quarantined)));
        persist.set("loaded", Json::integer(static_cast<std::int64_t>(disk.loaded)));
    }
    result.set("persist", std::move(persist));
    return result;
}

}  // namespace serve
}  // namespace sdf
