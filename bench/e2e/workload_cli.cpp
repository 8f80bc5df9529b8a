// cli_table1 — `sdfred_cli analyze F` and `convert --to reduced-hsdf F`
// as spawned processes over the bundled Table-1 models: the north star's
// "process start to exit" path.  Process start, XML parse and symbolic
// iteration dominate; Karp is a small share here, so a max-cycle solver
// change should leave this workload unchanged.
#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/latency.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "maxplus/mcm.hpp"
#include "process.hpp"
#include "referee.hpp"
#include "sdf/repetition.hpp"
#include "trace.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/symbolic.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

struct CliOp {
    std::size_t model = 0;
    bool convert = false;

    [[nodiscard]] std::pair<std::size_t, bool> key() const { return {model, convert}; }
};

/// Every model × {analyze, convert} once per block of 2·models ops.
class CliOrder {
public:
    explicit CliOrder(const Context& ctx) : cycle_(2 * ctx.table1.size(), ctx.rng(1)) {}
    CliOp next() {
        const std::size_t k = cycle_.next();
        return {k / 2, k % 2 == 1};
    }

private:
    ShuffledCycle cycle_;
};

std::vector<std::string> argv_of(const Context& ctx, const CliOp& op) {
    const std::string path = ctx.data_file(ctx.table1[op.model].file);
    if (op.convert) {
        return {ctx.options.cli, "convert", "--to", "reduced-hsdf", path};
    }
    return {ctx.options.cli, "analyze", path};
}

std::string label_of(const Context& ctx, const CliOp& op) {
    return (op.convert ? "convert " : "analyze ") + ctx.table1[op.model].file;
}

std::optional<std::string> analyze_period(const std::string& out) {
    const std::string key = "iteration period: ";
    const std::size_t at = out.find(key);
    if (at == std::string::npos) return std::nullopt;
    const std::size_t begin = at + key.size();
    return out.substr(begin, out.find('\n', begin) - begin);
}

/// `analyze` must print the expected period; every `convert` of a model
/// must print the same bytes, which verify() checks once per model.
class CliChecker {
public:
    explicit CliChecker(const Context& ctx) : ctx_(ctx), first_reduced_(ctx.table1.size()) {}

    void check(const CliOp& op, const ChildResult& child, Failures& failures) {
        const Table1Model& model = ctx_.table1[op.model];
        if (child.timed_out || child.exit_code != 0) {
            failures.add(label_of(ctx_, op) + ": exit " + std::to_string(child.exit_code) +
                         (child.timed_out ? " (timed out)" : ""));
            return;
        }
        if (!op.convert) {
            const auto period = analyze_period(child.out);
            if (period != model.period) {
                failures.add(label_of(ctx_, op) + ": period " + period.value_or("missing") +
                             ", expected " + model.period);
            }
            return;
        }
        std::string& first = first_reduced_[op.model];
        if (first.empty()) {
            first = child.out;
        } else if (child.out != first) {
            failures.add(label_of(ctx_, op) + ": output differs from its first run");
        }
    }

    /// Each converted model's reduced HSDF re-parses, has the expected
    /// actor count and the expected period.  Returns the summed actors.
    std::size_t verify(Failures& failures) const {
        std::size_t actors = 0;
        for (std::size_t m = 0; m < first_reduced_.size(); ++m) {
            if (first_reduced_[m].empty()) continue;
            const Table1Model& model = ctx_.table1[m];
            const std::string label = "reduced HSDF of " + model.file;
            try {
                const sdf::Graph reduced = sdf::read_text_string(first_reduced_[m]);
                if (reduced.actor_count() != model.reduced_actors) {
                    failures.add(label + ": " + std::to_string(reduced.actor_count()) +
                                 " actors, expected " +
                                 std::to_string(model.reduced_actors));
                }
                check_period(reduced, model.period, label, failures);
                actors += reduced.actor_count();
            } catch (const std::exception& e) {
                failures.add(label + ": " + e.what());
            }
        }
        return actors;
    }

private:
    const Context& ctx_;
    std::vector<std::string> first_reduced_;
};

/// What cmd_analyze prints, from the pieces the replay computed.
std::string render_analyze(const sdf::Graph& graph, const std::vector<sdf::Int>& q,
                           const sdf::Rational& period, sdf::Int makespan) {
    std::ostringstream out;
    out << "repetition vector:\n";
    for (sdf::ActorId a = 0; a < graph.actor_count(); ++a) {
        out << "  " << graph.actor(a).name << ": " << q[a] << "\n";
    }
    out << "iteration period: " << period.to_string() << "\n";
    out << "throughput per actor (firings/time):\n";
    for (sdf::ActorId a = 0; a < graph.actor_count(); ++a) {
        out << "  " << graph.actor(a).name << ": "
            << (sdf::Rational(q[a]) / period).to_string() << "\n";
    }
    out << "iteration makespan: " << makespan << "\n";
    return out.str();
}

struct CliTally {
    double precedence_edges = 0;
    double reduced_actors = 0;
};

/// One CLI op in-process, through the public call of each layer; returns
/// what the CLI prints.
std::string replay(const Context& ctx, const CliOp& op, Tracer& tracer, CliTally& tally) {
    Span root(tracer, "op");
    const sdf::Graph graph = in_span(tracer, "io.parse", [&] {
        return sdf::read_xml_file(ctx.data_file(ctx.table1[op.model].file));
    });
    const std::vector<sdf::Int> q =
        in_span(tracer, "sdf.repetition", [&] { return sdf::repetition_vector(graph); });
    const sdf::SymbolicIteration iteration =
        in_span(tracer, "transform.symbolic", [&] { return sdf::symbolic_iteration(graph); });
    if (op.convert) {
        const sdf::Graph reduced = in_span(tracer, "transform.reduce", [&] {
            return sdf::reduced_hsdf_from_matrix(iteration.matrix, graph.name() + "_rhsdf");
        });
        tally.reduced_actors += static_cast<double>(reduced.actor_count());
        return in_span(tracer, "io.render", [&] { return sdf::write_text_string(reduced); });
    }
    const sdf::Digraph precedence = in_span(tracer, "maxplus.precedence",
                                            [&] { return iteration.matrix.precedence_graph(); });
    tally.precedence_edges += static_cast<double>(precedence.edge_count());
    const sdf::CycleMetric metric =
        in_span(tracer, "maxplus.mcm", [&] { return sdf::max_cycle_mean_karp(precedence); });
    const sdf::Int makespan =
        in_span(tracer, "analysis.makespan", [&] { return sdf::iteration_makespan(graph); });
    return in_span(tracer, "io.render",
                   [&] { return render_analyze(graph, q, metric.value, makespan); });
}

}  // namespace

Result run_cli_table1(const Context& ctx) {
    Result result;
    Failures& failures = result.failures;
    CliOrder order(ctx);
    CliChecker checker(ctx);
    Samples samples;
    // Every op starts a process, so set-up time is the time of one fixed
    // op, `analyze` of the first model, over its runs in the window (one op
    // in 16): spread over the window, one slow second does not decide it.
    const CliOp setup_op;
    std::vector<double> setup_ms;
    long peak_rss_kb = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end = ctx.window_end();
    while (ctx.more(samples.size(), end)) {
        const CliOp op = order.next();
        const std::vector<std::string> argv = argv_of(ctx, op);
        const Clock::time_point op_start = Clock::now();
        const ChildResult child = run_child(argv, 30.0);
        samples.add(op_start);
        if (op.key() == setup_op.key()) setup_ms.push_back(samples.latency_ms.back());
        peak_rss_kb = std::max(peak_rss_kb, child.max_rss_kb);
        checker.check(op, child, failures);
    }
    const double window_s = seconds_since(start);

    checker.verify(failures);
    check_table1(ctx, failures);
    result.attempted = samples.size();
    add_end_to_end(result, samples, window_s, median(setup_ms) / 1000.0,
                   static_cast<double>(peak_rss_kb) / 1024.0);
    return result;
}

Result trace_cli_table1(const Context& ctx) {
    Result result;
    Failures& failures = result.failures;
    TraceRun run;
    run.derived = "cli.process";

    CliOrder order(ctx);
    CliChecker checker(ctx);
    std::vector<CliOp> ops;
    std::map<std::pair<std::size_t, bool>, std::string> live_out;
    const Clock::time_point end = ctx.window_end(1.0 / 3);
    while (ctx.more(ops.size(), end) && ops.size() < kTraceMaxOps) {
        const CliOp op = order.next();
        const std::vector<std::string> argv = argv_of(ctx, op);
        const Clock::time_point op_start = Clock::now();
        const ChildResult child = run_child(argv, 30.0);
        run.e2e_ms.push_back(ms_since(op_start));
        checker.check(op, child, failures);
        live_out.emplace(op.key(), child.out);
        ops.push_back(op);
    }
    const std::size_t reduced_total = checker.verify(failures);
    check_table1(ctx, failures);

    CliTally untraced_tally;
    CliTally tally;
    replay_both(
        run, ops.size(),
        [&](Tracer& tracer, std::size_t i, bool traced) {
            return replay(ctx, ops[i], tracer, traced ? tally : untraced_tally);
        },
        [&](std::size_t i, const std::string& out) {
            if (out != live_out[ops[i].key()]) {
                failures.add(label_of(ctx, ops[i]) + ": in-process replay prints other output");
            }
        });

    result.attempted = ops.size();
    const double op_count = static_cast<double>(std::max<std::size_t>(ops.size(), 1));
    LayerCounters counters;
    counters.precedence_edges_per_op = tally.precedence_edges / op_count;
    counters.reduced_actors_per_op = tally.reduced_actors / op_count;
    counters.reduced_actors_total = static_cast<double>(reduced_total);
    add_layer_metrics(result, run, counters);
    write_chrome_trace(ctx.options.trace_path, run.tracer);
    return result;
}

}  // namespace e2e
