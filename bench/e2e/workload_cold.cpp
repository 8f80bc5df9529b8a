// cold_large — in-process cold ops on large generated models, the library
// caller's path: parse → throughput → reduced HSDF → render on a fresh
// fork_join_graph(w, t), w ∈ {256, 512, 1024}, t ∈ [1, 9].  Karp dominates
// the throughput solve here and the Figure-4 construction is a visible
// share, so this is where max-cycle-solver and reduction changes show.
#include <algorithm>

#include "analysis/throughput.hpp"
#include "gen/structured.hpp"
#include "io/text.hpp"
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

constexpr sdf::Int kWidths[] = {256, 512, 1024};
constexpr sdf::Int kMaxWorkerTime = 9;

struct ColdModel {
    sdf::Int width = 0;
    sdf::Int worker_time = 0;
    std::string text;
};

std::vector<ColdModel> cold_models() {
    std::vector<ColdModel> models;
    for (const sdf::Int width : kWidths) {
        for (sdf::Int t = 1; t <= kMaxWorkerTime; ++t) {
            models.push_back({width, t, sdf::write_text_string(sdf::fork_join_graph(width, t))});
        }
    }
    return models;
}

std::string label_of(const ColdModel& model) {
    return "fork_join(" + std::to_string(model.width) + ", " +
           std::to_string(model.worker_time) + ")";
}

struct ColdAnswer {
    std::string period;
    std::string reduced;
};

/// The op as a library caller writes it.
ColdAnswer cold_op(const std::string& text) {
    const sdf::Graph graph = sdf::read_text_string(text);
    const auto throughput = sdf::cached_throughput(graph);
    const sdf::Graph reduced = sdf::to_hsdf_reduced(graph);
    return {throughput->is_finite() ? throughput->period.to_string() : "not finite",
            sdf::write_text_string(reduced)};
}

struct ColdTally {
    double precedence_edges = 0;
    double reduced_actors = 0;
};

/// The same op through the public call of each layer.
ColdAnswer replay(const std::string& text, Tracer& tracer, ColdTally& tally) {
    Span root(tracer, "op");
    const sdf::Graph graph =
        in_span(tracer, "io.parse", [&] { return sdf::read_text_string(text); });
    in_span(tracer, "sdf.repetition", [&] { return sdf::repetition_vector(graph); });
    const sdf::SymbolicIteration iteration =
        in_span(tracer, "transform.symbolic", [&] { return sdf::symbolic_iteration(graph); });
    const sdf::Digraph precedence = in_span(tracer, "maxplus.precedence",
                                            [&] { return iteration.matrix.precedence_graph(); });
    tally.precedence_edges += static_cast<double>(precedence.edge_count());
    const sdf::CycleMetric metric =
        in_span(tracer, "maxplus.mcm", [&] { return sdf::max_cycle_mean_karp(precedence); });
    // to_hsdf_reduced runs the symbolic iteration again.
    const sdf::SymbolicIteration again =
        in_span(tracer, "transform.symbolic", [&] { return sdf::symbolic_iteration(graph); });
    const sdf::Graph reduced = in_span(tracer, "transform.reduce", [&] {
        return sdf::reduced_hsdf_from_matrix(again.matrix, graph.name() + "_rhsdf");
    });
    tally.reduced_actors += static_cast<double>(reduced.actor_count());
    std::string rendered =
        in_span(tracer, "io.render", [&] { return sdf::write_text_string(reduced); });
    return {metric.is_finite() ? metric.value.to_string() : "not finite", std::move(rendered)};
}

/// Every op on a model must repeat its first answer; verify() referees
/// the first answers once.
class ColdChecker {
public:
    explicit ColdChecker(const std::vector<ColdModel>& models)
        : models_(models), first_(models.size()) {}

    void check(std::size_t m, const ColdAnswer& answer, Failures& failures) {
        if (!first_[m]) {
            first_[m] = answer;
        } else if (answer.period != first_[m]->period || answer.reduced != first_[m]->reduced) {
            failures.add(label_of(models_[m]) + ": answer differs from its first run");
        }
    }

    /// Referees the period of every model seen, and of its reduced HSDF
    /// re-parsed.  Returns the summed reduced-HSDF actors.
    std::size_t verify(Failures& failures) const {
        std::size_t actors = 0;
        for (std::size_t m = 0; m < models_.size(); ++m) {
            if (!first_[m]) continue;
            const ColdModel& model = models_[m];
            check_period(sdf::fork_join_graph(model.width, model.worker_time),
                         first_[m]->period, label_of(model), failures);
            try {
                const sdf::Graph reduced = sdf::read_text_string(first_[m]->reduced);
                check_period(reduced, first_[m]->period,
                             "reduced HSDF of " + label_of(model), failures);
                actors += reduced.actor_count();
            } catch (const std::exception& e) {
                failures.add("reduced HSDF of " + label_of(model) + ": " + e.what());
            }
        }
        return actors;
    }

private:
    const std::vector<ColdModel>& models_;
    std::vector<std::optional<ColdAnswer>> first_;
};

}  // namespace

int cold_setup_probe() {
    const ColdAnswer answer =
        cold_op(sdf::write_text_string(sdf::fork_join_graph(kWidths[0], 1)));
    return answer.reduced.empty() ? 1 : 0;
}

int cold_peak_probe() {
    for (const ColdModel& model : cold_models()) {
        if (cold_op(model.text).reduced.empty()) return 1;
    }
    return 0;
}

Result run_cold_large(const Context& ctx) {
    Result result;
    Failures& failures = result.failures;
    const std::string self = self_executable();
    // Peak memory comes from a process that runs every model once in a
    // fixed order: in this process it would depend on the seeded order,
    // which decides how the allocator's heap fragments.
    const ChildResult peak = run_child({self, "--peak-probe"}, 120.0);
    if (peak.exit_code != 0) failures.add("peak-memory probe failed");

    const std::vector<ColdModel> models = cold_models();
    ShuffledCycle order(models.size(), ctx.rng(2));
    ColdChecker checker(models);
    Samples samples;
    // Set-up is sampled kSetupSamples times, spread evenly over the window
    // with the window's clock stopped while a probe runs, so one slow second
    // of the machine does not decide it.
    constexpr std::size_t kSetupSamples = 31;
    const auto probe_every = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(ctx.options.seconds / double(kSetupSamples)));
    std::vector<double> setup_samples;
    Clock::time_point start = Clock::now();
    Clock::time_point end = ctx.window_end();
    Clock::time_point next_probe = start;
    while (ctx.more(samples.size(), end)) {
        if (Clock::now() >= next_probe && setup_samples.size() < kSetupSamples) {
            const Clock::time_point probe_start = Clock::now();
            const ChildResult child = run_child({self, "--setup-probe"}, 60.0);
            const Clock::duration paused = Clock::now() - probe_start;
            if (child.exit_code != 0) failures.add("set-up probe failed");
            setup_samples.push_back(std::chrono::duration<double>(paused).count());
            start += paused;
            end += paused;
            next_probe = probe_start + paused + probe_every;
        }
        const std::size_t m = order.next();
        const Clock::time_point op_start = Clock::now();
        try {
            const ColdAnswer answer = cold_op(models[m].text);
            samples.add(op_start);
            checker.check(m, answer, failures);
        } catch (const std::exception& e) {
            samples.add(op_start);
            failures.add(label_of(models[m]) + ": " + e.what());
        }
    }
    const double window_s = seconds_since(start);

    checker.verify(failures);
    result.attempted = samples.size();
    add_end_to_end(result, samples, window_s, median(setup_samples),
                   static_cast<double>(peak.max_rss_kb) / 1024.0);
    return result;
}

Result trace_cold_large(const Context& ctx) {
    Result result;
    Failures& failures = result.failures;
    TraceRun run;

    const std::vector<ColdModel> models = cold_models();
    ShuffledCycle order(models.size(), ctx.rng(2));
    ColdChecker checker(models);
    std::vector<std::size_t> ops;
    const Clock::time_point end = ctx.window_end(1.0 / 3);
    while (ctx.more(ops.size(), end) && ops.size() < kTraceMaxOps) {
        const std::size_t m = order.next();
        const Clock::time_point op_start = Clock::now();
        const ColdAnswer answer = cold_op(models[m].text);
        run.e2e_ms.push_back(ms_since(op_start));
        checker.check(m, answer, failures);
        ops.push_back(m);
    }
    const std::size_t reduced_total = checker.verify(failures);

    ColdTally untraced_tally;
    ColdTally tally;
    replay_both(
        run, ops.size(),
        [&](Tracer& tracer, std::size_t i, bool traced) {
            return replay(models[ops[i]].text, tracer, traced ? tally : untraced_tally);
        },
        [&](std::size_t i, const ColdAnswer& answer) { checker.check(ops[i], answer, failures); });

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
