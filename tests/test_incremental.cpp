// Tests for the mutation-delta protocol: MutationLog recording, per-slot
// kept/refined/dropped behaviour under edits, adopt/adopt_all edge cases,
// the warm-state throughput refinement (analysis/incremental.hpp) and the
// certificate layer behind it (maxplus/mcm_certificate.hpp).  The
// fuzz oracle `incremental-route` covers random edit scripts; these are the
// deterministic corner cases.
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/incremental.hpp"
#include "analysis/throughput.hpp"
#include "gen/structured.hpp"
#include "maxplus/mcm.hpp"
#include "maxplus/mcm_certificate.hpp"
#include "sdf/analysis_manager.hpp"
#include "sdf/graph.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"

namespace sdf {
namespace {

/// a(1) -> b(2) -> c(3) -> d(4) -> a, two tokens closing the ring.
Graph ring4() {
    Graph g("ring4");
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 2);
    const ActorId c = g.add_actor("c", 3);
    const ActorId d = g.add_actor("d", 4);
    g.add_channel(a, b, 0);
    g.add_channel(b, c, 0);
    g.add_channel(c, d, 0);
    g.add_channel(d, a, 2);
    return g;
}

/// A structurally identical rebuild with a FRESH manager: the from-scratch
/// reference every refinement result is compared against.
Graph rebuild_cold(const Graph& g) {
    Graph cold(g.name());
    for (ActorId a = 0; a < g.actor_count(); ++a) {
        cold.add_actor(g.actor(a).name, g.actor(a).execution_time);
    }
    for (ChannelId c = 0; c < g.channel_count(); ++c) {
        const auto& ch = g.channel(c);
        cold.add_channel(ch.src, ch.dst, ch.production, ch.consumption,
                         ch.initial_tokens);
    }
    return cold;
}

/// A test-local analysis slot that observes the deltas the setters hand to
/// refine_from: its result is every event it has been refined through, in
/// order.  It refines on every delta, so it follows a graph across edits.
struct EventRecorderAnalysis {
    using Result = std::vector<MutationEvent>;
    static constexpr const char* kName = "test-event-recorder";
    static constexpr bool kTimeSensitive = false;
    static Result compute(const Graph&) { return {}; }
    static Refined<Result> refine(const Result& old, const RefineContext& ctx) {
        Result seen = old;
        seen.insert(seen.end(), ctx.log.events().begin(), ctx.log.events().end());
        return Refined<Result>::make(std::move(seen));
    }
};

/// The events `g` was refined through since the recorder was primed.
std::vector<MutationEvent> recorded_events(const Graph& g) {
    const auto seen = g.analyses()->cached<EventRecorderAnalysis>();
    return seen ? *seen : std::vector<MutationEvent>{};
}

// ---------------------------------------------------------------- mutation log

TEST(MutationLog, MutatorsRecordTypedEvents) {
    // Construction records nothing; prime the recorder on the built graph
    // so it sees the edits only.
    Graph g = ring4();
    g.analyses()->get<EventRecorderAnalysis>(g);
    EXPECT_TRUE(g.set_execution_time(1, 7));
    EXPECT_TRUE(g.set_initial_tokens(3, 5));

    // One single-event delta per setter, in order.
    const auto events = recorded_events(g);
    ASSERT_EQ(events.size(), 2u);

    const MutationEvent& time = events[0];
    EXPECT_EQ(time.kind, MutationKind::execution_time);
    EXPECT_EQ(time.id, 1u);
    EXPECT_EQ(time.old_a, 2);
    EXPECT_EQ(time.new_a, 7);

    const MutationEvent& tokens = events[1];
    EXPECT_EQ(tokens.kind, MutationKind::initial_tokens);
    EXPECT_EQ(tokens.id, 3u);
    EXPECT_EQ(tokens.old_a, 2);
    EXPECT_EQ(tokens.new_a, 5);

    // A rate edit records no event: it starts over, recorder included.
    EXPECT_TRUE(g.set_rates(0, 2, 3));
    EXPECT_EQ(g.analyses()->cached<EventRecorderAnalysis>(), nullptr);
}

TEST(MutationLog, NoOpEditsRecordNothingAndKeepTheManager) {
    Graph g = ring4();
    repetition_vector(g);
    g.analyses()->get<EventRecorderAnalysis>(g);
    const auto manager = g.analyses();

    EXPECT_FALSE(g.set_execution_time(0, g.actor(0).execution_time));
    EXPECT_FALSE(g.set_initial_tokens(3, g.channel(3).initial_tokens));
    EXPECT_FALSE(g.set_rates(0, g.channel(0).production, g.channel(0).consumption));

    // Nothing changed: same manager pointer, same cached results, no events.
    EXPECT_EQ(g.analyses(), manager);
    EXPECT_TRUE(recorded_events(g).empty());
    EXPECT_TRUE(g.analyses()->is_cached<RepetitionVectorAnalysis>());
}

TEST(MutationLog, PredicatesClassifyEventBatches) {
    MutationLog log;
    MutationEvent time;
    time.kind = MutationKind::execution_time;
    log.push(time);
    EXPECT_TRUE(log.timing_only());
    EXPECT_TRUE(log.tokens_monotone(false));  // timing events carry no tokens

    MutationEvent tokens;
    tokens.kind = MutationKind::initial_tokens;
    tokens.old_a = 1;
    tokens.new_a = 3;
    log.push(tokens);
    EXPECT_FALSE(log.timing_only());
    EXPECT_TRUE(log.tokens_monotone(true));
    EXPECT_FALSE(log.tokens_monotone(false));
}

// ------------------------------------------------------ per-edit-kind refinement

TEST(Refinement, TimingEditKeepsUntimedSlotsByPointer) {
    Graph g = ring4();
    const auto reps = g.analyses()->get<RepetitionVectorAnalysis>(g);
    const auto sched = g.analyses()->get<SequentialScheduleAnalysis>(g);
    const auto live = g.analyses()->get<LivenessAnalysis>(g);
    const auto manager = g.analyses();

    Graph copy = g;
    EXPECT_EQ(copy.analyses(), manager);  // copies share until mutation
    copy.set_execution_time(2, 9);
    EXPECT_NE(copy.analyses(), manager);  // mutation swapped in a fresh one

    // A pure timing edit cannot move any untimed result: the new manager
    // KEEPS the very same shared objects, no recomputation.
    EXPECT_EQ(copy.analyses()->cached<RepetitionVectorAnalysis>(), reps);
    EXPECT_EQ(copy.analyses()->cached<SequentialScheduleAnalysis>(), sched);
    EXPECT_EQ(copy.analyses()->cached<LivenessAnalysis>(), live);
    // The original graph still serves its untouched manager.
    EXPECT_EQ(g.analyses(), manager);
    EXPECT_EQ(g.actor(2).execution_time, 3);
}

TEST(Refinement, TimingEditRefinesThroughputBitExact) {
    Graph g = ring4();
    const auto warm = warm_throughput(g);
    ASSERT_TRUE(warm->result.is_finite());
    ASSERT_NE(warm->state, nullptr);  // small graph: warm state exists

    Graph copy = g;
    copy.set_execution_time(3, 11);  // d: 4 -> 11

    // The edit was absorbed without a from-scratch solve...
    const auto refined = copy.analyses()->cached<IncrementalThroughputAnalysis>();
    ASSERT_NE(refined, nullptr);
    EXPECT_EQ(refined->refines, warm->refines + 1);

    // Bit-exact against a from-scratch solve on a cold rebuild.
    const ThroughputResult cold = throughput_symbolic(rebuild_cold(copy));
    EXPECT_EQ(refined->result.outcome, cold.outcome);
    EXPECT_EQ(refined->result.period, cold.period);
    EXPECT_EQ(refined->result.per_actor, cold.per_actor);
}

TEST(Refinement, CachedThroughputAfterAnEditReadsTheWarmSlot) {
    // A parent primed only by warm_throughput, as serve's edit op does:
    // the plain throughput slot was never filled.
    Graph g = fork_join_graph(8, 5, 2);
    ASSERT_NE(warm_throughput(g)->state, nullptr);

    Graph child = g;
    child.set_execution_time(2, 9);

    // The answer is the refined warm result itself, not a fresh solve...
    const auto answer = cached_throughput(child);
    EXPECT_EQ(answer.get(), &warm_throughput(child)->result);
    for (const AnalysisSlotStats& slot : child.analyses()->stats()) {
        if (slot.analysis == "throughput" || slot.analysis == "symbolic-iteration") {
            EXPECT_EQ(slot.misses, 0u) << slot.analysis;
        }
    }
    // ...and equals a from-scratch solve, Rational for Rational.
    const ThroughputResult cold = throughput_symbolic(rebuild_cold(child));
    EXPECT_EQ(answer->outcome, cold.outcome);
    EXPECT_EQ(answer->period, cold.period);
    EXPECT_EQ(answer->per_actor, cold.per_actor);
}

TEST(Refinement, TooManyConsumedTokensKeepsNoWarmState) {
    // x fires 65536 times (well under the firing cap) but each firing takes
    // 64 tokens from its self-loop: 65536·65 consumed tokens per iteration,
    // above the 2^22 the warm trace records, from only 64 initial tokens.
    Graph g("heavy_self_loop");
    const ActorId x = g.add_actor("x", 1);
    const ActorId y = g.add_actor("y", 2);
    g.add_channel(x, x, 64, 64, 64);
    g.add_channel(x, y, 1, 65536, 0);
    const auto warm = warm_throughput(g);
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->state, nullptr);  // too big to keep warm: no trace
    const ThroughputResult reference = throughput_symbolic(rebuild_cold(g));
    EXPECT_EQ(warm->result.outcome, reference.outcome);
    EXPECT_EQ(warm->result.period, reference.period);
    EXPECT_EQ(warm->result.per_actor, reference.per_actor);
}

TEST(Refinement, TooLargeFinishSupportsKeepNoWarmState) {
    // s takes all 16000 initial tokens in its one firing, and each of y's
    // 300 firings inherits that support: 4.8M support entries, above the
    // 2^22 the flat trace keeps, from 16300 consumed tokens.
    Graph g("wide_support");
    const ActorId z = g.add_actor("z", 1);
    const ActorId s = g.add_actor("s", 2);
    const ActorId y = g.add_actor("y", 3);
    g.add_channel(z, s, 1, 16000, 16000);
    g.add_channel(s, y, 300, 1, 0);
    const auto warm = warm_throughput(g);
    ASSERT_NE(warm, nullptr);
    EXPECT_EQ(warm->state, nullptr);
    const ThroughputResult reference = throughput_symbolic(rebuild_cold(g));
    EXPECT_EQ(warm->result.outcome, reference.outcome);
    EXPECT_EQ(warm->result.period, reference.period);
    EXPECT_EQ(warm->result.per_actor, reference.per_actor);
}

TEST(Refinement, EditChainStaysExactAndCountsRefines) {
    Graph g = fork_join_graph(8, 5, 2);
    const auto warm = warm_throughput(g);
    ASSERT_TRUE(warm->result.is_finite());
    ASSERT_NE(warm->state, nullptr);

    Graph edited = g;
    const std::vector<std::pair<ActorId, Int>> edits = {
        {1, 4}, {2, 9}, {1, 5}, {3, 1}, {0, 2}};
    for (const auto& [actor, time] : edits) {
        edited.set_execution_time(actor, time);
        const auto inc = edited.analyses()->cached<IncrementalThroughputAnalysis>();
        ASSERT_NE(inc, nullptr);
        const ThroughputResult cold = throughput_symbolic(rebuild_cold(edited));
        EXPECT_EQ(inc->result.period, cold.period);
        EXPECT_EQ(inc->result.per_actor, cold.per_actor);
    }
    const auto final_state = edited.analyses()->cached<IncrementalThroughputAnalysis>();
    EXPECT_EQ(final_state->refines, warm->refines + edits.size());
}

TEST(Refinement, TokenEditKeepsRateResultsAndStaysExact) {
    Graph g = ring4();
    const auto reps = g.analyses()->get<RepetitionVectorAnalysis>(g);
    const auto consistent = g.analyses()->get<ConsistencyAnalysis>(g);
    warm_throughput(g);

    Graph copy = g;
    copy.set_initial_tokens(3, 3);  // ring credit 2 -> 3

    // Tokens do not enter the balance equations: rate-only results survive.
    EXPECT_EQ(copy.analyses()->cached<RepetitionVectorAnalysis>(), reps);
    EXPECT_EQ(copy.analyses()->cached<ConsistencyAnalysis>(), consistent);

    // Whatever the timed slots did (refine or drop), the answers match a
    // cold rebuild exactly.
    const ThroughputResult cold = throughput_symbolic(rebuild_cold(copy));
    const auto now = cached_throughput(copy);
    EXPECT_EQ(now->outcome, cold.outcome);
    EXPECT_EQ(now->period, cold.period);
    EXPECT_EQ(now->per_actor, cold.per_actor);
}

TEST(Refinement, RateEditStartsOverAndMatchesColdSolve) {
    Graph g = ring4();
    repetition_vector(g);
    warm_throughput(g);
    const auto reps = g.analyses()->cached<RepetitionVectorAnalysis>();
    const auto warm = g.analyses()->cached<IncrementalThroughputAnalysis>();
    ASSERT_NE(reps, nullptr);
    ASSERT_NE(warm, nullptr);

    // A rate edit changes the iteration itself: the copy starts over on its
    // own empty manager, and the original keeps its results by pointer.
    Graph copy = g;
    EXPECT_TRUE(copy.set_rates(1, 2, 1));  // b now produces 2 per firing
    EXPECT_NE(copy.analyses(), g.analyses());
    EXPECT_TRUE(copy.analyses()->empty());
    EXPECT_EQ(g.analyses()->cached<RepetitionVectorAnalysis>(), reps);
    EXPECT_EQ(g.analyses()->cached<IncrementalThroughputAnalysis>(), warm);

    // A second rate edit on the now-unshared, empty manager keeps it.
    const AnalysisManager* manager = copy.analyses().get();
    EXPECT_TRUE(copy.set_rates(3, 1, 2));  // a consumes 2: q = (1, 1, 2, 2)
    EXPECT_EQ(copy.analyses().get(), manager);

    const Graph cold = rebuild_cold(copy);
    ASSERT_EQ(is_consistent(copy), is_consistent(cold));
    ASSERT_TRUE(is_consistent(cold));
    EXPECT_EQ(repetition_vector(copy), repetition_vector(cold));
    const ThroughputResult reference = throughput_symbolic(cold);
    const auto now = cached_throughput(copy);
    EXPECT_EQ(now->outcome, reference.outcome);
    EXPECT_EQ(now->period, reference.period);
    EXPECT_EQ(now->per_actor, reference.per_actor);
}

TEST(Refinement, StructuralEditsDropDerivedResultsButStayCorrect) {
    Graph g = ring4();
    repetition_vector(g);
    warm_throughput(g);

    const auto reps = g.analyses()->cached<RepetitionVectorAnalysis>();
    const auto warm = g.analyses()->cached<IncrementalThroughputAnalysis>();
    ASSERT_NE(reps, nullptr);
    ASSERT_NE(warm, nullptr);

    // Splice a detour into the ring: a -> x -> b next to a -> b.
    Graph copy = g;
    const ActorId x = copy.add_actor("x", 6);
    copy.add_channel(0, x, 0);
    copy.add_channel(x, 1, 0);

    // Structural edits carry no delta: the copy starts over on its own
    // empty manager, and the original keeps its results by pointer.
    EXPECT_NE(copy.analyses(), g.analyses());
    EXPECT_TRUE(copy.analyses()->empty());
    EXPECT_EQ(g.analyses()->cached<RepetitionVectorAnalysis>(), reps);
    EXPECT_EQ(g.analyses()->cached<IncrementalThroughputAnalysis>(), warm);

    const Graph cold = rebuild_cold(copy);
    EXPECT_EQ(repetition_vector(copy), repetition_vector(cold));
    const ThroughputResult reference = throughput_symbolic(cold);
    const auto now = cached_throughput(copy);
    EXPECT_EQ(now->period, reference.period);
    EXPECT_EQ(now->per_actor, reference.per_actor);
}

// ------------------------------------------------------------------ slot stats

TEST(Refinement, StatsCountKeptAndRefinedSlots) {
    Graph g = ring4();
    g.analyses()->get<RepetitionVectorAnalysis>(g);
    g.analyses()->get<SequentialScheduleAnalysis>(g);
    warm_throughput(g);
    cached_throughput(g);

    Graph copy = g;
    copy.set_execution_time(0, 8);

    std::uint64_t kept = 0;
    std::uint64_t refined = 0;
    for (const AnalysisSlotStats& slot : copy.analyses()->stats()) {
        kept += slot.kept;
        refined += slot.refined;
        if (slot.analysis == "repetition" || slot.analysis == "schedule") {
            EXPECT_EQ(slot.kept, 1u) << slot.analysis;
            EXPECT_TRUE(slot.cached) << slot.analysis;
        }
        if (slot.analysis == "throughput-incremental") {
            EXPECT_EQ(slot.refined, 1u);
        }
    }
    EXPECT_GE(kept, 2u);     // repetition + schedule (at least)
    EXPECT_GE(refined, 1u);  // warm state
}

// ------------------------------------------------------------- batched edits

/// Expects every field a bit-exact comparison reads to be equal.
void expect_same_throughput(const ThroughputResult& got, const ThroughputResult& want) {
    EXPECT_EQ(got.outcome, want.outcome);
    EXPECT_EQ(got.period, want.period);
    EXPECT_EQ(got.per_actor, want.per_actor);
}

/// The kept/refined counters of the slot named `analysis` on `g`.
AnalysisSlotStats slot_stats(const Graph& g, const std::string& analysis) {
    for (const AnalysisSlotStats& slot : g.analyses()->stats()) {
        if (slot.analysis == analysis) {
            return slot;
        }
    }
    return AnalysisSlotStats{};
}

TEST(BatchedEdits, ApplyEditsRecordsOneDeltaAndSkipsNoOps) {
    Graph g = ring4();
    g.analyses()->get<EventRecorderAnalysis>(g);
    const std::vector<ValueEdit> edits = {
        {MutationKind::execution_time, 1, 7},
        {MutationKind::execution_time, 0, 1},  // no-op: a is already 1
        {MutationKind::initial_tokens, 3, 5},
        {MutationKind::execution_time, 1, 8},  // old value is the 7 set above
    };
    EXPECT_EQ(g.apply_edits(edits), 3u);
    EXPECT_EQ(g.actor(1).execution_time, 8);
    EXPECT_EQ(g.channel(3).initial_tokens, 5);

    // One refinement saw all three events, in order.
    EXPECT_EQ(slot_stats(g, EventRecorderAnalysis::kName).refined, 1u);
    const auto events = recorded_events(g);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0], (MutationEvent{MutationKind::execution_time, 1, 2, 7}));
    EXPECT_EQ(events[1], (MutationEvent{MutationKind::initial_tokens, 3, 2, 5}));
    EXPECT_EQ(events[2], (MutationEvent{MutationKind::execution_time, 1, 7, 8}));
}

TEST(BatchedEdits, AnInvalidEditLeavesTheGraphAsItWas) {
    Graph g = ring4();
    repetition_vector(g);
    const auto manager = g.analyses();
    const std::vector<ValueEdit> edits = {
        {MutationKind::execution_time, 1, 7},
        {MutationKind::initial_tokens, 9, 1},  // no channel 9
    };
    EXPECT_THROW(g.apply_edits(edits), InvalidGraphError);
    EXPECT_EQ(g.actor(1).execution_time, 2);
    EXPECT_EQ(g.analyses(), manager);
    EXPECT_EQ(g.apply_edits({}), 0u);
    EXPECT_EQ(g.analyses(), manager);
}

TEST(BatchedEdits, TimingScriptRefinesEachSlotOnceAndMatchesStepByStep) {
    Graph g = fork_join_graph(8, 5, 2);
    g.analyses()->get<RepetitionVectorAnalysis>(g);
    const auto warm = warm_throughput(g);
    ASSERT_NE(warm->state, nullptr);

    const std::vector<ValueEdit> script = {
        {MutationKind::execution_time, 1, 4}, {MutationKind::execution_time, 2, 9},
        {MutationKind::execution_time, 1, 5}, {MutationKind::execution_time, 3, 1},
        {MutationKind::execution_time, 0, 2}};
    Graph batched = g;
    EXPECT_EQ(batched.apply_edits(script), script.size());

    // One delta: every slot was refined or kept once, not once per step.
    EXPECT_EQ(slot_stats(batched, IncrementalThroughputAnalysis::kName).refined, 1u);
    EXPECT_EQ(slot_stats(batched, RepetitionVectorAnalysis::kName).kept, 1u);
    const auto inc = batched.analyses()->cached<IncrementalThroughputAnalysis>();
    ASSERT_NE(inc, nullptr);
    EXPECT_EQ(inc->refines, warm->refines + 1);

    Graph stepwise = g;
    for (const ValueEdit& e : script) {
        stepwise.set_execution_time(e.id, e.value);
    }
    const auto step = stepwise.analyses()->cached<IncrementalThroughputAnalysis>();
    ASSERT_NE(step, nullptr);
    EXPECT_EQ(step->refines, warm->refines + script.size());

    const ThroughputResult cold = throughput_symbolic(rebuild_cold(batched));
    expect_same_throughput(inc->result, cold);
    expect_same_throughput(step->result, cold);
    expect_same_throughput(*cached_throughput(batched), cold);
}

TEST(BatchedEdits, TimeTokenTimeScriptDropsTheWarmSlotAndMatchesCold) {
    Graph g = ring4();
    ASSERT_NE(warm_throughput(g)->state, nullptr);
    Graph child = g;
    const std::vector<ValueEdit> script = {{MutationKind::execution_time, 0, 6},
                                           {MutationKind::initial_tokens, 3, 3},
                                           {MutationKind::execution_time, 2, 1}};
    EXPECT_EQ(child.apply_edits(script), 3u);
    EXPECT_EQ(child.analyses()->cached<IncrementalThroughputAnalysis>(), nullptr);
    expect_same_throughput(*cached_throughput(child),
                           throughput_symbolic(rebuild_cold(child)));
}

TEST(BatchedEdits, OneFiringSourcingSeveralColumnsRefinesBitExact) {
    // a fires once per iteration and refills both tokens of a -> b, so
    // its one finish stamp is two columns of the iteration matrix.
    Graph g("multirate");
    const ActorId a = g.add_actor("a", 3);
    const ActorId b = g.add_actor("b", 2);
    const ActorId c = g.add_actor("c", 4);
    g.add_channel(a, b, 2, 1, 2);
    g.add_channel(b, c, 1, 1, 0);
    g.add_channel(c, a, 1, 2, 0);
    g.add_channel(c, c, 1, 1, 1);
    const auto warm = warm_throughput(g);
    ASSERT_NE(warm->state, nullptr);
    const IncrementalSkeleton& sk = *warm->state->skeleton;
    ASSERT_EQ(sk.column_source.size(), 3u);
    EXPECT_EQ(sk.column_source[0], sk.column_source[1]);
    EXPECT_LT(sk.column_source[0], IncrementalSkeleton::kInitial);

    Graph child = g;
    for (const auto& [actor, time] :
         std::vector<std::pair<ActorId, Int>>{{a, 9}, {c, 1}, {b, 7}, {a, 0}}) {
        child.set_execution_time(actor, time);
        const auto inc = child.analyses()->cached<IncrementalThroughputAnalysis>();
        ASSERT_NE(inc, nullptr);
        expect_same_throughput(inc->result, throughput_symbolic(rebuild_cold(child)));
    }
}

TEST(BatchedEdits, HighFanInJoinRefinesBitExact) {
    // The join consumes one token from each of 1024 workers.
    Graph g = fork_join_graph(1024, 5, 4);
    ASSERT_NE(warm_throughput(g)->state, nullptr);
    const ActorId join = *g.find_actor("join");
    const std::vector<ValueEdit> script = {{MutationKind::execution_time, 7, 40},
                                           {MutationKind::execution_time, join, 3},
                                           {MutationKind::execution_time, 700, 1}};
    Graph child = g;
    EXPECT_EQ(child.apply_edits(script), 3u);
    const auto inc = child.analyses()->cached<IncrementalThroughputAnalysis>();
    ASSERT_NE(inc, nullptr);
    expect_same_throughput(inc->result, throughput_symbolic(rebuild_cold(child)));
}

TEST(BatchedEdits, ReplayPastInt64DropsTheSlotInsteadOfWrapping) {
    Graph g = ring4();
    ASSERT_NE(warm_throughput(g)->state, nullptr);
    Graph child = g;
    // a then b on one token's path: the sum leaves int64.
    const Int huge = std::numeric_limits<Int>::max() - 1;
    const std::vector<ValueEdit> script = {{MutationKind::execution_time, 0, huge},
                                           {MutationKind::execution_time, 1, huge}};
    EXPECT_EQ(child.apply_edits(script), 2u);
    EXPECT_EQ(child.analyses()->cached<IncrementalThroughputAnalysis>(), nullptr);
    EXPECT_THROW(throughput_symbolic(rebuild_cold(child)), ArithmeticError);
    EXPECT_THROW(cached_throughput(child), ArithmeticError);
}

// ----------------------------------------------------------------------- adopt

TEST(Adoption, AdoptOnlyFillsEmptySlots) {
    Graph g = ring4();
    const auto first = g.analyses()->get<RepetitionVectorAnalysis>(g);

    Graph other = rebuild_cold(g);
    const auto own = other.analyses()->get<RepetitionVectorAnalysis>(other);
    ASSERT_NE(own, first);  // distinct objects, equal values

    // Adopting into the non-empty slot is a no-op: the first result wins.
    other.analyses()->adopt(*g.analyses(), {RepetitionVectorAnalysis::kName});
    EXPECT_EQ(other.analyses()->cached<RepetitionVectorAnalysis>(), own);
    for (const AnalysisSlotStats& slot : other.analyses()->stats()) {
        if (slot.analysis == "repetition") {
            EXPECT_EQ(slot.adopted, 0u);
        }
    }

    // An empty manager adopts the shared object itself, not a copy.
    AnalysisManager fresh;
    fresh.adopt(*g.analyses(), {RepetitionVectorAnalysis::kName});
    EXPECT_EQ(fresh.cached<RepetitionVectorAnalysis>(), first);
    for (const AnalysisSlotStats& slot : fresh.stats()) {
        if (slot.analysis == "repetition") {
            EXPECT_EQ(slot.adopted, 1u);
            EXPECT_EQ(slot.misses, 0u);
        }
    }
}

TEST(Adoption, AdoptAllCarriesTimedAndUntimedSlots) {
    Graph g = ring4();
    g.analyses()->get<RepetitionVectorAnalysis>(g);
    cached_throughput(g);

    AnalysisManager everything;
    everything.adopt_all(*g.analyses());
    EXPECT_TRUE(everything.is_cached<RepetitionVectorAnalysis>());
    EXPECT_TRUE(everything.is_cached<ThroughputAnalysis>());
}

TEST(Adoption, ConcurrentComputeReturnsOneSharedResult) {
    Graph g = fork_join_graph(16, 3, 2);
    std::vector<std::shared_ptr<const ThroughputResult>> results(8);
    std::vector<std::thread> threads;
    threads.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        threads.emplace_back([&g, &results, i] { results[i] = cached_throughput(g); });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    // Racing computes may happen, but every caller sees the SAME object.
    for (const auto& r : results) {
        EXPECT_EQ(r, results[0]);
    }
}

// ------------------------------------------------------------ certificate layer

TEST(Certificate, MatchesKarpAndRefinesWeightEdits) {
    // Two cyclic SCCs joined by a cross edge, plus an acyclic tail.
    Digraph d(5);
    const std::size_t ab = d.add_edge(0, 1, 4);
    d.add_edge(1, 0, 2);                        // SCC {0,1}: mean 3
    d.add_edge(1, 2, 1);                        // cross edge
    d.add_edge(2, 3, 5);
    const std::size_t dc = d.add_edge(3, 2, 5);  // SCC {2,3}: mean 5
    d.add_edge(3, 4, 9);                        // tail, on no cycle

    McmCertificate cert = max_cycle_mean_certified(d);
    const CycleMetric direct = max_cycle_mean_karp(d);
    ASSERT_TRUE(cert.metric.is_finite());
    EXPECT_EQ(cert.metric.value, direct.value);
    EXPECT_EQ(cert.metric.value, Rational(5));

    // A cross-SCC/tail edit can never move λ and must not re-solve anything.
    std::size_t rescored = 0;
    McmCertificate same =
        refine_cycle_mean(cert, {{2, Int{100}}, {5, Int{100}}}, &rescored);
    EXPECT_EQ(rescored, 0u);
    EXPECT_EQ(same.metric.value, Rational(5));

    // Raising a non-critical SCC below the max keeps λ; pushing it past the
    // max re-scores that SCC and the refined answer tracks Karp exactly.
    for (const Int weight : {Int{6}, Int{1}, Int{13}}) {
        std::vector<EdgeWeightDelta> deltas = {{ab, weight}};
        McmCertificate refined = refine_cycle_mean(cert, deltas, nullptr);
        Digraph edited = d;
        // Rebuild the edited digraph from scratch for the reference answer.
        Digraph reference(5);
        for (std::size_t e = 0; e < d.edge_count(); ++e) {
            const DigraphEdge& edge = d.edge(e);
            reference.add_edge(edge.from, edge.to, e == ab ? weight : edge.weight,
                               edge.tokens);
        }
        EXPECT_EQ(refined.metric.value, max_cycle_mean_karp(reference).value)
            << "weight " << weight;
        cert = std::move(refined);
        d = std::move(reference);
    }

    // Editing the critical SCC itself must re-solve exactly that SCC.
    std::size_t dirty = 0;
    McmCertificate lowered = refine_cycle_mean(cert, {{dc, Int{1}}}, &dirty);
    EXPECT_EQ(dirty, 1u);
    Digraph reference(5);
    for (std::size_t e = 0; e < d.edge_count(); ++e) {
        const DigraphEdge& edge = d.edge(e);
        reference.add_edge(edge.from, edge.to, e == dc ? Int{1} : edge.weight,
                           edge.tokens);
    }
    EXPECT_EQ(lowered.metric.value, max_cycle_mean_karp(reference).value);
}

}  // namespace
}  // namespace sdf
