// trace.hpp — spans around the calls a replayed op makes into each layer,
// and the per-layer metrics they yield.
//
// The library has no spans of its own yet, so the traced replay records
// them here, around its calls into the public API of each layer.  A span
// is (name, start, end, parent, op); a layer's self time is its spans'
// durations minus the part their child spans cover.  Spans are kept in
// memory and written out as Chrome trace-event JSON when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

/// Layers in report order.  Every name but the last two is a span name;
/// those two are derived per op: `cli.process` is the spawned op's time
/// minus the in-process replay of the same op, `serve.transport` the
/// socket round trip minus the replay of the same request.
extern const std::vector<std::string> kLayers;

/// Records nested spans of one single-threaded replay.  A disabled tracer
/// records nothing, which is how the same replay code runs untraced.
class Tracer {
public:
    struct Event {
        const char* name = nullptr;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int32_t parent = -1;  ///< index into events(), -1 for an op root
        std::uint32_t op = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    void begin(const char* name);
    void end();
    /// Starts the next op: later root spans belong to it.
    void next_op() { ++op_; }

    [[nodiscard]] const std::vector<Event>& events() const { return events_; }

private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Event> events_;
    std::vector<std::int32_t> open_;
    std::uint32_t op_ = 0;
};

/// RAII span: open for the lifetime of the object.
class Span {
public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer) { tracer_.begin(name); }
    ~Span() { tracer_.end(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Tracer& tracer_;
};

/// Calls `fn` inside a span named `name` and returns what it returns.
template <typename Fn>
decltype(auto) in_span(Tracer& tracer, const char* name, Fn&& fn) {
    Span span(tracer, name);
    return fn();
}

/// Ops a trace run replays at most: plenty for per-layer shares, and it
/// keeps the trace file of a fast workload to a few MB.
constexpr std::size_t kTraceMaxOps = 3000;

/// The three passes of a trace run over the same N ops, one entry per op.
struct TraceRun {
    std::vector<double> e2e_ms;       ///< the live path a user waits on
    std::vector<double> untraced_ms;  ///< in-process replay, spans off
    std::vector<double> traced_ms;    ///< in-process replay, spans on
    Tracer tracer{true};              ///< the traced pass's spans
    const char* derived = nullptr;    ///< derived layer of this workload, if any
};

/// Replays ops 0..ops-1 twice each, untraced and traced, alternating which
/// leg goes first so neither inherits warmer caches from the other, and
/// records both legs' op times in `run`.  `replay(tracer, op, traced)`
/// returns the op's answer; `check(op, answer)` runs outside the timing.
template <typename Replay, typename Check>
void replay_both(TraceRun& run, std::size_t ops, Replay&& replay, Check&& check) {
    Tracer untraced(false);
    for (std::size_t op = 0; op < ops; ++op) {
        for (int leg = 0; leg < 2; ++leg) {
            const bool traced = (leg == 1) != (op % 2 == 1);
            const Clock::time_point start = Clock::now();
            const auto answer = replay(traced ? run.tracer : untraced, op, traced);
            (traced ? run.traced_ms : run.untraced_ms).push_back(ms_since(start));
            check(op, answer);
        }
        run.tracer.next_op();
    }
}

/// Counters and ratios reported next to the layer times; zero where a
/// workload has no such layer.
struct LayerCounters {
    double result_hit_ratio = 0;
    double intern_hit_ratio = 0;
    double evictions = 0;
    double delta_kept = 0;
    double delta_refined = 0;
    double parent_resubmits = 0;
    double rescored_sccs_per_op = 0;
    double precedence_edges_per_op = 0;
    double reduced_actors_per_op = 0;
    double reduced_actors_total = 0;
};

/// Adds every per-layer metric to `result` and prints the layer table.
void add_layer_metrics(Result& result, const TraceRun& run, const LayerCounters& counters);

/// Writes the spans as Chrome trace-event JSON (open in Perfetto).
void write_chrome_trace(const std::string& path, const Tracer& tracer);

}  // namespace e2e
