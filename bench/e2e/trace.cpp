#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace e2e {

const std::vector<std::string> kLayers = {
    "io.parse",           "io.render",          "sdf.repetition",
    "transform.symbolic", "transform.reduce",   "maxplus.precedence",
    "maxplus.mcm",        "analysis.makespan",  "sdf.mutate",
    "analysis.incremental", "serve.json",       "serve.request",
    "serve.intern",       "serve.result_cache", "serve.core",
    "cli.process",        "serve.transport",
};

void Tracer::begin(const char* name) {
    if (!enabled_) return;
    Event event;
    event.name = name;
    event.parent = open_.empty() ? -1 : open_.back();
    event.op = op_;
    open_.push_back(static_cast<std::int32_t>(events_.size()));
    events_.push_back(event);
    // Last, so the bookkeeping above is not part of the span.
    events_.back().start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  Clock::now() - origin_)
                                  .count();
}

void Tracer::end() {
    if (!enabled_) return;
    events_[static_cast<std::size_t>(open_.back())].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    open_.pop_back();
}

void add_layer_metrics(Result& result, const TraceRun& run, const LayerCounters& counters) {
    const std::size_t ops = run.e2e_ms.size();
    const std::size_t layers = kLayers.size();
    const auto layer_index = [&](const char* name) -> std::size_t {
        for (std::size_t k = 0; k < layers; ++k) {
            if (kLayers[k] == name) return k;
        }
        return layers;
    };

    const auto& events = run.tracer.events();
    std::vector<std::int64_t> child_ns(events.size(), 0);
    for (const Tracer::Event& e : events) {
        if (e.parent >= 0) child_ns[static_cast<std::size_t>(e.parent)] += e.end_ns - e.start_ns;
    }
    std::vector<double> self_ms(layers, 0.0);
    std::vector<double> calls(layers, 0.0);
    std::vector<std::vector<double>> op_self(layers, std::vector<double>(ops, 0.0));
    std::vector<std::vector<int>> op_calls(layers, std::vector<int>(ops, 0));
    double root_ms = 0;
    double root_self_ms = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Tracer::Event& e = events[i];
        const double self = static_cast<double>(e.end_ns - e.start_ns - child_ns[i]) / 1e6;
        if (e.parent < 0) {
            root_ms += static_cast<double>(e.end_ns - e.start_ns) / 1e6;
            root_self_ms += self;
        }
        const std::size_t k = layer_index(e.name);
        if (k < layers && e.op < ops) {
            self_ms[k] += self;
            calls[k] += 1;
            op_self[k][e.op] += self;
            op_calls[k][e.op] += 1;
        }
    }
    if (run.derived != nullptr) {
        const std::size_t k = layer_index(run.derived);
        for (std::size_t i = 0; i < ops; ++i) {
            const double derived = run.e2e_ms[i] - run.untraced_ms[i];
            self_ms[k] += derived;
            calls[k] += 1;
            op_self[k][i] = derived;
            op_calls[k][i] = 1;
        }
    }

    double e2e_total = 0;
    for (const double ms : run.e2e_ms) e2e_total += ms;
    const double op_count = static_cast<double>(ops);
    std::printf("%-22s %10s %14s %8s\n", "layer", "calls/op", "self p50 ms", "share");
    for (std::size_t k = 0; k < layers; ++k) {
        std::vector<double> called;
        for (std::size_t i = 0; i < ops; ++i) {
            if (op_calls[k][i] > 0) called.push_back(op_self[k][i]);
        }
        const double share = e2e_total > 0 ? self_ms[k] / e2e_total : 0.0;
        result.add(kLayers[k] + ".share", share, "ratio");
        result.add(kLayers[k] + ".calls_per_op", calls[k] / op_count, "count");
        if (!called.empty()) {
            std::printf("%-22s %10.3f %14.4f %8.4f\n", kLayers[k].c_str(),
                        calls[k] / op_count, median(called), share);
        }
    }

    const double traced_p50 = median(run.traced_ms);
    const double untraced_p50 = median(run.untraced_ms);
    result.add("trace.coverage", root_ms > 0 ? (root_ms - root_self_ms) / root_ms : 0.0,
               "ratio");
    result.add("trace.overhead", untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
               "ratio");
    result.add("trace.op_ms_p50", traced_p50, "ms");
    result.add("trace.e2e_ms_p50", median(run.e2e_ms), "ms");
    result.add("serve.result_cache.hit_ratio", counters.result_hit_ratio, "ratio");
    result.add("serve.intern.hit_ratio", counters.intern_hit_ratio, "ratio");
    result.add("serve.store.evictions", counters.evictions, "count");
    result.add("delta.kept", counters.delta_kept, "count");
    result.add("delta.refined", counters.delta_refined, "count");
    result.add("serve_edit.parent_resubmits", counters.parent_resubmits, "count");
    result.add("analysis.incremental.rescored_sccs_per_op", counters.rescored_sccs_per_op,
               "count");
    result.add("maxplus.precedence.edges_per_op", counters.precedence_edges_per_op, "count");
    result.add("transform.reduce.actors_per_op", counters.reduced_actors_per_op, "count");
    result.add("transform.reduce.actors_total", counters.reduced_actors_total, "count");
}

void write_chrome_trace(const std::string& path, const Tracer& tracer) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        throw std::runtime_error("cannot write " + path);
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
    const auto& events = tracer.events();
    for (std::size_t i = 0; i < events.size(); ++i) {
        const Tracer::Event& e = events[i];
        std::fprintf(out,
                     "%s\n{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,\"id\":%zu,\"parent\":%d}}",
                     i > 0 ? "," : "", e.name, static_cast<double>(e.start_ns) / 1e3,
                     static_cast<double>(e.end_ns - e.start_ns) / 1e3, e.op, i, e.parent);
    }
    std::fputs("\n]}\n", out);
    if (std::fclose(out) != 0) {
        throw std::runtime_error("cannot finish " + path);
    }
}

}  // namespace e2e
