#include "analysis/incremental.hpp"

#include <utility>

#include "base/errors.hpp"
#include "maxplus/matrix.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "transform/token_game.hpp"

namespace sdf {

namespace {

/// Past this many firings the slot degrades to a stateless
/// throughput_symbolic answer: the trace keeps one stamp per firing.
constexpr std::size_t kMaxTracedFirings = std::size_t{1} << 17;

std::uint64_t entry_key(std::size_t row, std::size_t col) {
    return (static_cast<std::uint64_t>(row) << 32) | static_cast<std::uint64_t>(col);
}

/// A replayed token: its stamp, and whether it may differ from the stamp
/// the traced execution gave the same token.
struct ReplayToken {
    MpStamp stamp;
    bool dirty = false;
};

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
        out.result = deadlocked_throughput(graph);
        return out;
    }
    if (schedule.size() > kMaxTracedFirings) {
        // Too big to keep warm: same answer, no state.
        out.result = throughput_symbolic(graph);
        return out;
    }

    // --- The token game, tracing every finish stamp. ----------------------
    // (Above kMaxSymbolicTokens it throws the same ResourceLimitError as
    // throughput_symbolic, which then propagates uncached.)
    auto state = std::make_shared<IncrementalThroughputState>();
    state->finish.reserve(schedule.size());
    auto columns = play_token_game<MpStamp>(
        graph, schedule, [&](std::size_t i, const std::vector<MpStamp>& consumed) {
            state->finish.push_back(
                MpStamp::max_of(consumed).plus(graph.actor(schedule[i]).execution_time));
            return state->finish.back();
        });
    if (!columns) {
        throw Error("internal: admissible schedule does not fit one iteration");
    }
    state->column = std::move(*columns);

    // --- Matrix, precedence graph, entry → edge map, certificate. --------
    const Digraph precedence = stamp_matrix(state->column).precedence_graph();
    auto skeleton = std::make_shared<IncrementalSkeleton>();
    skeleton->schedule = std::move(schedule);
    skeleton->token_count = state->column.size();
    skeleton->entry_edge.reserve(precedence.edge_count());
    for (std::size_t g = 0; g < precedence.edge_count(); ++g) {
        const DigraphEdge& e = precedence.edge(g);
        skeleton->entry_edge.emplace(entry_key(e.from, e.to), g);
    }
    state->certificate = max_cycle_mean_certified(precedence);
    state->skeleton = std::move(skeleton);

    out.result =
        throughput_from_metric(state->certificate.metric, repetition_vector(graph));
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
    if (graph.total_initial_tokens() != static_cast<Int>(sk.token_count)) {
        return Out::drop();  // token layout moved under us: not a timing edit
    }
    std::vector<MpStamp> finish;
    finish.reserve(sk.schedule.size());
    std::vector<MpStamp> stamps;
    auto replayed = play_token_game<ReplayToken>(
        graph, sk.schedule, [&](std::size_t i, std::vector<ReplayToken>& consumed) {
            const ActorId a = sk.schedule[i];
            bool dirty = touched[a] != 0;
            for (const ReplayToken& token : consumed) {
                dirty = dirty || token.dirty;
            }
            if (!dirty) {
                finish.push_back(st.finish[i]);  // untouched cone: the old handle is exact
                return ReplayToken{st.finish[i], false};
            }
            stamps.clear();
            for (ReplayToken& token : consumed) {
                stamps.push_back(std::move(token.stamp));
            }
            finish.push_back(MpStamp::max_of(stamps).plus(graph.actor(a).execution_time));
            // Equal to the traced stamp: the edit was absorbed (e.g. not on
            // the critical input) and the cone stops here.
            return ReplayToken{finish.back(), !(finish.back() == st.finish[i])};
        });
    if (!replayed) {
        return Out::drop();
    }

    // --- Diff the final columns into precedence-edge weight deltas. ------
    std::vector<MpStamp> column;
    column.reserve(sk.token_count);
    std::vector<EdgeWeightDelta> deltas;
    for (ReplayToken& token : *replayed) {
        const std::size_t col = column.size();
        if (token.dirty && !diff_column(token.stamp, st.column[col], col, sk, deltas)) {
            return Out::drop();
        }
        column.push_back(std::move(token.stamp));
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
        next.result = throughput_from_metric(
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
