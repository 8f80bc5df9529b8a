#include "analysis/incremental.hpp"

#include <algorithm>
#include <utility>

#include "base/errors.hpp"
#include "maxplus/sparse_matrix.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "transform/token_game.hpp"

namespace sdf {

namespace {

/// Past this many firings, or this many consumed tokens per iteration, the
/// slot degrades to a stateless throughput_symbolic answer: the trace keeps
/// one stamp per firing and one source per consumed token.
constexpr std::size_t kMaxTracedFirings = std::size_t{1} << 17;
constexpr std::size_t kMaxTracedInputs = std::size_t{1} << 22;

std::uint64_t entry_key(std::size_t row, std::size_t col) {
    return (static_cast<std::uint64_t>(row) << 32) | static_cast<std::uint64_t>(col);
}

/// A traced token: its stamp and its source (IncrementalSkeleton).  The
/// executor seeds initial token k as the unit stamp of k, whose one finite
/// index is k.
struct TracedToken {
    MpStamp stamp;
    std::uint32_t source = 0;

    explicit TracedToken(MpStamp unit) : stamp(std::move(unit)) {
        stamp.for_each([&](std::size_t index, Int) {
            source = IncrementalSkeleton::kInitial | static_cast<std::uint32_t>(index);
        });
    }
    TracedToken(MpStamp produced, std::uint32_t firing)
        : stamp(std::move(produced)), source(firing) {}
};

/// True when one iteration of `schedule` consumes more than
/// kMaxTracedInputs tokens.  Sums saturate just above the limit, so
/// absurd rates cannot wrap them.
bool too_many_inputs(const Graph& graph, const std::vector<ActorId>& schedule) {
    constexpr std::size_t kSaturated = kMaxTracedInputs + 1;
    std::vector<std::size_t> per_firing(graph.actor_count(), 0);
    for (const Channel& c : graph.channels()) {
        per_firing[c.dst] =
            std::min(kSaturated, per_firing[c.dst] + static_cast<std::size_t>(c.consumption));
    }
    std::size_t total = 0;
    for (const ActorId a : schedule) {
        total += per_firing[a];
        if (total > kMaxTracedInputs) {
            return true;
        }
    }
    return false;
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
        out.result = deadlocked_throughput(graph);
        return out;
    }
    if (schedule.size() > kMaxTracedFirings || too_many_inputs(graph, schedule)) {
        // Too big to keep warm: same answer, no state.
        out.result = throughput_symbolic(graph);
        return out;
    }

    // --- The token game, tracing every finish stamp and token source. ----
    // (Above kMaxSymbolicTokens it throws the same ResourceLimitError as
    // throughput_symbolic, which then propagates uncached.)
    auto state = std::make_shared<IncrementalThroughputState>();
    auto skeleton = std::make_shared<IncrementalSkeleton>();
    state->finish.reserve(schedule.size());
    skeleton->input_start.reserve(schedule.size() + 1);
    skeleton->input_start.push_back(0);
    std::vector<MpStamp> stamps;  // reused across firings
    auto traced = play_token_game<TracedToken>(
        graph, schedule, [&](std::size_t i, std::vector<TracedToken>& consumed) {
            stamps.clear();
            for (TracedToken& token : consumed) {
                stamps.push_back(std::move(token.stamp));
                skeleton->input.push_back(token.source);
            }
            skeleton->input_start.push_back(skeleton->input.size());
            state->finish.push_back(
                MpStamp::max_of(stamps).plus(graph.actor(schedule[i]).execution_time));
            return TracedToken{state->finish.back(), static_cast<std::uint32_t>(i)};
        });
    if (!traced) {
        throw Error("internal: admissible schedule does not fit one iteration");
    }
    state->column.reserve(traced->size());
    skeleton->column_source.reserve(traced->size());
    for (TracedToken& token : *traced) {
        state->column.push_back(std::move(token.stamp));
        skeleton->column_source.push_back(token.source);
    }

    // --- Matrix, precedence graph, entry → edge map, certificate. --------
    const Digraph precedence = MpSparseMatrix(state->column).precedence_graph();
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

    // --- Replay the edit's cone, keeping every clean finish stamp. -------
    // Sources precede their consumers in schedule order, so one forward
    // pass settles every firing; clean ones cost a few flag reads.
    if (graph.total_initial_tokens() != static_cast<Int>(sk.token_count)) {
        return Out::drop();  // token layout moved under us: not a timing edit
    }
    const std::size_t firings = sk.schedule.size();
    constexpr std::uint32_t kInitial = IncrementalSkeleton::kInitial;
    std::vector<MpStamp> finish = st.finish;
    std::vector<char> changed(firings, 0);
    std::vector<MpStamp> stamps;
    for (std::size_t i = 0; i < firings; ++i) {
        const ActorId a = sk.schedule[i];
        bool dirty = touched[a] != 0;
        for (std::size_t e = sk.input_start[i]; !dirty && e < sk.input_start[i + 1]; ++e) {
            dirty = sk.input[e] < kInitial && changed[sk.input[e]] != 0;
        }
        if (!dirty) {
            continue;  // untouched cone: the old handle is exact
        }
        SDFRED_CHECKPOINT();
        stamps.clear();
        for (std::size_t e = sk.input_start[i]; e < sk.input_start[i + 1]; ++e) {
            const std::uint32_t source = sk.input[e];
            stamps.push_back(source < kInitial ? finish[source]
                                               : MpStamp::unit(source & ~kInitial));
        }
        MpStamp next = MpStamp::max_of(stamps).plus(graph.actor(a).execution_time);
        // Equal to the traced stamp: the edit was absorbed (e.g. not on
        // the critical input) and the cone stops here.
        if (!(next == st.finish[i])) {
            finish[i] = std::move(next);
            changed[i] = 1;
        }
    }

    // --- Diff the changed final columns into precedence-edge deltas. -----
    std::vector<MpStamp> column = st.column;
    std::vector<EdgeWeightDelta> deltas;
    for (std::size_t col = 0; col < column.size(); ++col) {
        const std::uint32_t source = sk.column_source[col];
        if (source >= kInitial || changed[source] == 0) {
            continue;
        }
        column[col] = finish[source];
        if (!diff_column(column[col], st.column[col], col, sk, deltas)) {
            return Out::drop();
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
