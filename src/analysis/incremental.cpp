#include "analysis/incremental.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "base/errors.hpp"
#include "maxplus/sparse_matrix.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "transform/token_game.hpp"

namespace sdf {

namespace {

/// Past this many firings, consumed tokens or finish-support entries per
/// iteration, the slot degrades to a stateless answer: the trace keeps one
/// source per consumed token and one integer per support entry, and
/// indexes both with 32 bits.
constexpr std::size_t kMaxTracedFirings = std::size_t{1} << 17;
constexpr std::size_t kMaxTracedInputs = std::size_t{1} << 22;
constexpr std::size_t kMaxTracedSupport = std::size_t{1} << 22;

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

    // --- The token game, flattening every finish stamp as it is made. ----
    // (Above kMaxSymbolicTokens it throws the same ResourceLimitError as
    // throughput_symbolic, which then propagates uncached.)
    auto state = std::make_shared<IncrementalThroughputState>();
    auto skeleton = std::make_shared<IncrementalSkeleton>();
    IncrementalSkeleton& sk = *skeleton;
    bool flat = true;  // false once the supports pass kMaxTracedSupport
    sk.input_start.reserve(schedule.size() + 1);
    sk.input_start.push_back(0);
    sk.support_start.reserve(schedule.size() + 1);
    sk.support_start.push_back(0);
    std::vector<MpStamp> stamps;  // reused across firings
    auto traced = play_token_game<TracedToken>(
        graph, schedule, [&](std::size_t i, std::vector<TracedToken>& consumed) {
            stamps.clear();
            for (TracedToken& token : consumed) {
                stamps.push_back(std::move(token.stamp));
                if (flat) {
                    sk.input.push_back(token.source);
                }
            }
            MpStamp finish =
                MpStamp::max_of(stamps).plus(graph.actor(schedule[i]).execution_time);
            if (flat) {
                sk.input_start.push_back(static_cast<std::uint32_t>(sk.input.size()));
                finish.for_each([&](std::size_t row, Int value) {
                    sk.support.push_back(static_cast<std::uint32_t>(row));
                    state->value.push_back(value);
                });
                sk.support_start.push_back(static_cast<std::uint32_t>(sk.support.size()));
                flat = sk.support.size() <= kMaxTracedSupport;
            }
            return TracedToken{std::move(finish), static_cast<std::uint32_t>(i)};
        });
    if (!traced) {
        throw Error("internal: admissible schedule does not fit one iteration");
    }
    std::vector<MpStamp> columns;
    columns.reserve(traced->size());
    sk.column_source.reserve(traced->size());
    for (TracedToken& token : *traced) {
        columns.push_back(std::move(token.stamp));
        sk.column_source.push_back(token.source);
    }

    // --- Matrix, precedence graph, certificate. --------------------------
    const Digraph precedence = MpSparseMatrix(columns).precedence_graph();
    state->certificate = max_cycle_mean_certified(precedence);
    out.result =
        throughput_from_metric(state->certificate.metric, repetition_vector(graph));
    if (!flat) {
        return out;  // too big to keep warm: same answer, no state
    }

    // --- Entry -> edge, per column in support order. ---------------------
    // precedence_graph emits edges row by row, so each column meets its
    // entries in ascending row order: the order of its source's support.
    sk.token_count = columns.size();
    sk.entry_start.reserve(columns.size() + 1);
    sk.entry_start.push_back(0);
    for (const MpStamp& column : columns) {
        sk.entry_start.push_back(sk.entry_start.back() + column.support());
    }
    sk.entry_edge.resize(sk.entry_start.back());
    std::vector<std::size_t> next(sk.entry_start.begin(), sk.entry_start.end() - 1);
    for (std::size_t g = 0; g < precedence.edge_count(); ++g) {
        sk.entry_edge[next[precedence.edge(g).to]++] = g;
    }
    sk.input.shrink_to_fit();
    sk.support.shrink_to_fit();
    state->value.shrink_to_fit();
    sk.schedule = std::move(schedule);
    state->skeleton = std::move(skeleton);
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

    // --- Replay the edits' cone, keeping every clean finish value. ------
    // Sources precede their consumers in schedule order, so one forward
    // pass settles every firing; clean ones cost a few flag reads.  A dirty
    // one scatter-maxes its inputs into `row` and gathers at its own
    // support, the union of theirs, which leaves `row` at bottom again.  A
    // value past int64 throws from checked_add, and refine_from drops the
    // slot.
    if (graph.total_initial_tokens() != static_cast<Int>(sk.token_count)) {
        return Out::drop();  // token layout moved under us: not a timing edit
    }
    const std::size_t firings = sk.schedule.size();
    constexpr std::uint32_t kInitial = IncrementalSkeleton::kInitial;
    constexpr Int kBottom = std::numeric_limits<Int>::min();
    std::vector<Int> value = st.value;
    std::vector<char> changed(firings, 0);
    std::vector<Int> row(sk.token_count, kBottom);
    for (std::size_t i = 0; i < firings; ++i) {
        const ActorId a = sk.schedule[i];
        bool dirty = touched[a] != 0;
        for (std::size_t e = sk.input_start[i]; !dirty && e < sk.input_start[i + 1]; ++e) {
            dirty = sk.input[e] < kInitial && changed[sk.input[e]] != 0;
        }
        if (!dirty) {
            continue;  // untouched cone: the old values are exact
        }
        SDFRED_CHECKPOINT();
        for (std::size_t e = sk.input_start[i]; e < sk.input_start[i + 1]; ++e) {
            const std::uint32_t source = sk.input[e];
            if (source >= kInitial) {
                Int& slot = row[source & ~kInitial];
                slot = std::max(slot, Int{0});  // the unit stamp
                continue;
            }
            for (std::size_t p = sk.support_start[source]; p < sk.support_start[source + 1];
                 ++p) {
                Int& slot = row[sk.support[p]];
                slot = std::max(slot, value[p]);
            }
        }
        const Int time = graph.actor(a).execution_time;
        for (std::size_t p = sk.support_start[i]; p < sk.support_start[i + 1]; ++p) {
            Int& slot = row[sk.support[p]];
            const Int next = checked_add(slot, time);
            slot = kBottom;
            // Equal to the traced value: the edit was absorbed (e.g. not on
            // the critical input), and if all are, the cone stops here.
            if (next != value[p]) {
                value[p] = next;
                changed[i] = 1;
            }
        }
    }

    // --- Diff the changed final columns into precedence-edge deltas. -----
    std::vector<EdgeWeightDelta> deltas;
    for (std::size_t col = 0; col < sk.token_count; ++col) {
        const std::uint32_t source = sk.column_source[col];
        if (source >= kInitial || changed[source] == 0) {
            continue;
        }
        const std::size_t first = sk.support_start[source];
        const std::size_t count = sk.support_start[source + 1] - first;
        for (std::size_t j = 0; j < count; ++j) {
            if (value[first + j] != st.value[first + j]) {
                deltas.push_back(
                    EdgeWeightDelta{sk.entry_edge[sk.entry_start[col] + j], value[first + j]});
            }
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
    state->value = std::move(value);
    state->certificate = std::move(certificate);
    next.state = std::move(state);
    return Out::make(std::move(next));
}

std::shared_ptr<const IncrementalThroughput> warm_throughput(const Graph& graph) {
    return graph.analyses()->get<IncrementalThroughputAnalysis>(graph);
}

}  // namespace sdf
