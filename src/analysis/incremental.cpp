#include "analysis/incremental.hpp"

#include <deque>
#include <utility>

#include "base/errors.hpp"
#include "maxplus/matrix.hpp"
#include "robust/budget.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "transform/symbolic.hpp"

namespace sdf {

namespace {

/// Mirrors the dense-matrix guard of transform/symbolic.cpp; past either
/// bound the slot degrades to a stateless throughput_symbolic answer.
constexpr Int kMaxTracedTokens = 16384;
constexpr std::size_t kMaxTracedFirings = std::size_t{1} << 17;

std::uint64_t entry_key(std::size_t row, std::size_t col) {
    return (static_cast<std::uint64_t>(row) << 32) | static_cast<std::uint64_t>(col);
}

/// Input/output channel lists per actor (same shape the symbolic engines
/// build).
struct Adjacency {
    std::vector<std::vector<ChannelId>> inputs;
    std::vector<std::vector<ChannelId>> outputs;
};

Adjacency build_adjacency(const Graph& graph) {
    Adjacency adj;
    adj.inputs.resize(graph.actor_count());
    adj.outputs.resize(graph.actor_count());
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        adj.inputs[graph.channel(c).dst].push_back(c);
        adj.outputs[graph.channel(c).src].push_back(c);
    }
    return adj;
}

ThroughputResult deadlocked_result(const Graph& graph) {
    ThroughputResult result;
    result.outcome = ThroughputOutcome::deadlocked;
    result.per_actor.assign(graph.actor_count(), Rational(0));
    return result;
}

/// λ → ThroughputResult, with the repetition vector handed in so the
/// refine hook never triggers a compute through the manager.
ThroughputResult result_from_metric(const CycleMetric& metric,
                                    const std::vector<Int>& repetition) {
    ThroughputResult result;
    if (metric.outcome != CycleOutcome::finite || metric.value.is_zero()) {
        result.outcome = ThroughputOutcome::unbounded;
        return result;
    }
    result.outcome = ThroughputOutcome::finite;
    result.period = metric.value;
    result.per_actor.reserve(repetition.size());
    for (const Int q : repetition) {
        result.per_actor.push_back(Rational(q) / metric.value);
    }
    return result;
}

/// Sparse entries of one stamp, in index order.
std::vector<std::pair<std::size_t, Int>> stamp_entries(const MpStamp& stamp) {
    std::vector<std::pair<std::size_t, Int>> entries;
    entries.reserve(stamp.support());
    stamp.for_each([&](std::size_t row, Int value) { entries.emplace_back(row, value); });
    return entries;
}

/// Diffs one changed matrix column against its predecessor and appends the
/// corresponding precedence-edge weight deltas.  False when the supports
/// differ or an entry has no mapped edge — both impossible under a pure
/// timing edit, so the caller treats false as "drop and recompute lazily".
bool diff_column(const MpStamp& now, const MpStamp& before, std::size_t col,
                 const IncrementalSkeleton& skeleton,
                 std::vector<EdgeWeightDelta>& deltas) {
    const auto new_entries = stamp_entries(now);
    const auto old_entries = stamp_entries(before);
    if (new_entries.size() != old_entries.size()) {
        return false;
    }
    for (std::size_t i = 0; i < new_entries.size(); ++i) {
        if (new_entries[i].first != old_entries[i].first) {
            return false;
        }
        if (new_entries[i].second == old_entries[i].second) {
            continue;
        }
        const auto it = skeleton.entry_edge.find(entry_key(new_entries[i].first, col));
        if (it == skeleton.entry_edge.end()) {
            return false;
        }
        deltas.push_back(EdgeWeightDelta{it->second, new_entries[i].second});
    }
    return true;
}

}  // namespace

IncrementalThroughput IncrementalThroughputAnalysis::compute(const Graph& graph) {
    IncrementalThroughput out;
    std::vector<ActorId> schedule;
    try {
        schedule = sequential_schedule(graph);
    } catch (const DeadlockError&) {
        out.result = deadlocked_result(graph);
        return out;
    }
    if (graph.total_initial_tokens() > kMaxTracedTokens ||
        schedule.size() > kMaxTracedFirings) {
        // Too big to keep warm: same answer, no state.  (throughput_symbolic
        // re-throws the ResourceLimitError of the dense-matrix guard, which
        // then propagates uncached — identical to the plain slot.)
        out.result = throughput_symbolic(graph);
        return out;
    }

    // --- Traced sparse symbolic execution (run_sparse + a trace). --------
    const std::size_t n = static_cast<std::size_t>(graph.total_initial_tokens());
    std::vector<std::deque<MpStamp>> fifo(graph.channel_count());
    {
        std::size_t global = 0;
        for (ChannelId c = 0; c < graph.channel_count(); ++c) {
            for (Int i = 0; i < graph.channel(c).initial_tokens; ++i) {
                fifo[c].push_back(MpStamp::unit(global++));
            }
        }
    }
    const Adjacency adj = build_adjacency(graph);
    auto skeleton = std::make_shared<IncrementalSkeleton>();
    skeleton->schedule = std::move(schedule);
    skeleton->token_count = n;
    auto state = std::make_shared<IncrementalThroughputState>();
    state->finish.reserve(skeleton->schedule.size());
    std::vector<MpStamp> consumed;
    for (const ActorId a : skeleton->schedule) {
        SDFRED_CHECKPOINT();
        consumed.clear();
        for (const ChannelId ci : adj.inputs[a]) {
            const Int need = graph.channel(ci).consumption;
            for (Int i = 0; i < need; ++i) {
                if (fifo[ci].empty()) {
                    throw Error("internal: admissible schedule underflowed a channel");
                }
                consumed.push_back(std::move(fifo[ci].front()));
                fifo[ci].pop_front();
            }
        }
        const MpStamp finish =
            MpStamp::max_of(consumed).plus(graph.actor(a).execution_time);
        state->finish.push_back(finish);
        for (const ChannelId ci : adj.outputs[a]) {
            for (Int i = 0; i < graph.channel(ci).production; ++i) {
                fifo[ci].push_back(finish);
            }
        }
    }

    // --- Matrix, precedence graph, entry → edge map, certificate. --------
    MpMatrix matrix(n, n);
    state->column.reserve(n);
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        const Int expected = graph.channel(c).initial_tokens;
        if (static_cast<Int>(fifo[c].size()) != expected) {
            throw Error("internal: channel token count changed over an iteration");
        }
        for (Int i = 0; i < expected; ++i) {
            const std::size_t col = state->column.size();
            const MpStamp& stamp = fifo[c][static_cast<std::size_t>(i)];
            stamp.for_each(
                [&](std::size_t row, Int value) { matrix.set(row, col, MpValue(value)); });
            state->column.push_back(stamp);
        }
    }
    const Digraph precedence = matrix.precedence_graph();
    skeleton->entry_edge.reserve(precedence.edge_count());
    for (std::size_t g = 0; g < precedence.edge_count(); ++g) {
        const DigraphEdge& e = precedence.edge(g);
        skeleton->entry_edge.emplace(entry_key(e.from, e.to), g);
    }
    state->certificate = max_cycle_mean_certified(precedence);
    state->skeleton = std::move(skeleton);

    out.result = result_from_metric(state->certificate.metric, repetition_vector(graph));
    out.state = std::move(state);
    return out;
}

Refined<IncrementalThroughput> IncrementalThroughputAnalysis::refine(
    const Result& old, const RefineContext& ctx) {
    using Out = Refined<Result>;
    if (old.result.outcome == ThroughputOutcome::deadlocked) {
        // Liveness is untimed: a pure timing edit cannot wake a deadlocked
        // graph (and the all-zero per-actor vector has no timed content).
        return ctx.log.timing_only() ? Out::keep() : Out::drop();
    }
    if (!ctx.log.timing_only() || !old.state) {
        return Out::drop();
    }
    const IncrementalThroughputState& st = *old.state;
    const IncrementalSkeleton& sk = *st.skeleton;
    const Graph& graph = ctx.graph;

    std::vector<char> touched(graph.actor_count(), 0);
    for (const MutationEvent& e : ctx.log.events()) {
        if (e.kind == MutationKind::execution_time && e.id < touched.size()) {
            touched[e.id] = 1;
        }
    }

    // --- Replay the traced execution, reusing clean finish stamps. -------
    const Adjacency adj = build_adjacency(graph);
    std::vector<std::deque<std::pair<MpStamp, bool>>> fifo(graph.channel_count());
    {
        std::size_t global = 0;
        for (ChannelId c = 0; c < graph.channel_count(); ++c) {
            for (Int i = 0; i < graph.channel(c).initial_tokens; ++i) {
                fifo[c].emplace_back(MpStamp::unit(global++), false);
            }
        }
        if (global != sk.token_count) {
            return Out::drop();  // token layout moved under us: not a timing edit
        }
    }
    std::vector<MpStamp> finish;
    finish.reserve(sk.schedule.size());
    std::vector<MpStamp> consumed;
    for (std::size_t i = 0; i < sk.schedule.size(); ++i) {
        SDFRED_CHECKPOINT();
        const ActorId a = sk.schedule[i];
        if (a >= graph.actor_count()) {
            return Out::drop();
        }
        bool dirty = touched[a] != 0;
        consumed.clear();
        for (const ChannelId ci : adj.inputs[a]) {
            const Int need = graph.channel(ci).consumption;
            for (Int k = 0; k < need; ++k) {
                if (fifo[ci].empty()) {
                    return Out::drop();
                }
                dirty = dirty || fifo[ci].front().second;
                consumed.push_back(std::move(fifo[ci].front().first));
                fifo[ci].pop_front();
            }
        }
        MpStamp stamp;
        if (!dirty) {
            stamp = st.finish[i];  // untouched cone: the old handle is exact
        } else {
            stamp = MpStamp::max_of(consumed).plus(graph.actor(a).execution_time);
            if (stamp == st.finish[i]) {
                dirty = false;  // edit absorbed (e.g. not on the critical input)
            }
        }
        finish.push_back(stamp);
        for (const ChannelId ci : adj.outputs[a]) {
            for (Int k = 0; k < graph.channel(ci).production; ++k) {
                fifo[ci].emplace_back(stamp, dirty);
            }
        }
    }

    // --- Diff the final columns into precedence-edge weight deltas. ------
    std::vector<MpStamp> column;
    column.reserve(sk.token_count);
    std::vector<EdgeWeightDelta> deltas;
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        if (static_cast<Int>(fifo[c].size()) != graph.channel(c).initial_tokens) {
            return Out::drop();
        }
        for (auto& [stamp, dirty] : fifo[c]) {
            const std::size_t col = column.size();
            if (dirty && !diff_column(stamp, st.column[col], col, sk, deltas)) {
                return Out::drop();
            }
            column.push_back(std::move(stamp));
        }
    }

    // --- Certificate re-check; Howard only on SCCs whose witnesses broke.
    std::size_t rescored = 0;
    McmCertificate certificate = refine_cycle_mean(st.certificate, deltas, &rescored);

    Result next;
    next.refines = old.refines + 1;
    next.rescored_sccs = old.rescored_sccs + rescored;
    const CycleMetric& metric = certificate.metric;
    if (metric.outcome == CycleOutcome::finite && !metric.value.is_zero() &&
        old.result.outcome == ThroughputOutcome::finite &&
        old.result.period == metric.value) {
        next.result = old.result;  // λ unchanged: per-actor rates carry over
    } else {
        const auto reps = ctx.target.cached<RepetitionVectorAnalysis>();
        next.result = result_from_metric(
            metric, reps ? *reps : RepetitionVectorAnalysis::compute(graph));
    }
    auto state = std::make_shared<IncrementalThroughputState>();
    state->skeleton = st.skeleton;
    state->finish = std::move(finish);
    state->column = std::move(column);
    state->certificate = std::move(certificate);
    next.state = std::move(state);
    return Out::make(std::move(next));
}

std::shared_ptr<const IncrementalThroughput> warm_throughput(const Graph& graph) {
    return graph.analyses()->get<IncrementalThroughputAnalysis>(graph);
}

}  // namespace sdf
