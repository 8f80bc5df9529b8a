// Unit tests for sdf/graph.hpp (the Definition 1/2 model).
#include "sdf/graph.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "analysis/buffers.hpp"
#include "analysis/throughput.hpp"
#include "base/errors.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "transform/selfloops.hpp"

namespace sdf {
namespace {

/// The same actors and channels on a graph that never shared a manager.
Graph rebuild_cold(const Graph& g) {
    Graph cold(g.name());
    for (const Actor& a : g.actors()) {
        cold.add_actor(a.name, a.execution_time);
    }
    for (const Channel& c : g.channels()) {
        cold.add_channel(c.src, c.dst, c.production, c.consumption, c.initial_tokens);
    }
    return cold;
}

TEST(Graph, AddActorsAndChannels) {
    Graph g("demo");
    const ActorId a = g.add_actor("a", 3);
    const ActorId b = g.add_actor("b", 0);
    const ChannelId c = g.add_channel(a, b, 2, 3, 1);
    EXPECT_EQ(g.actor_count(), 2u);
    EXPECT_EQ(g.channel_count(), 1u);
    EXPECT_EQ(g.actor(a).name, "a");
    EXPECT_EQ(g.actor(a).execution_time, 3);
    EXPECT_EQ(g.channel(c).production, 2);
    EXPECT_EQ(g.channel(c).consumption, 3);
    EXPECT_EQ(g.channel(c).initial_tokens, 1);
    EXPECT_EQ(g.name(), "demo");
}

TEST(Graph, RejectsInvalidInput) {
    Graph g;
    const ActorId a = g.add_actor("a");
    EXPECT_THROW(g.add_actor("a"), InvalidGraphError);      // duplicate
    EXPECT_THROW(g.add_actor(""), InvalidGraphError);       // empty name
    EXPECT_THROW(g.add_actor("b", -1), InvalidGraphError);  // negative time
    EXPECT_THROW(g.add_channel(a, 5, 1, 1, 0), InvalidGraphError);
    EXPECT_THROW(g.add_channel(a, a, 0, 1, 0), InvalidGraphError);
    EXPECT_THROW(g.add_channel(a, a, 1, 0, 0), InvalidGraphError);
    EXPECT_THROW(g.add_channel(a, a, 1, 1, -1), InvalidGraphError);
}

TEST(Graph, FindActorByName) {
    Graph g;
    const ActorId a = g.add_actor("alpha");
    EXPECT_EQ(g.find_actor("alpha"), a);
    EXPECT_FALSE(g.find_actor("beta").has_value());
}

TEST(Graph, InAndOutChannels) {
    Graph g;
    const ActorId a = g.add_actor("a");
    const ActorId b = g.add_actor("b");
    const ChannelId ab = g.add_channel(a, b, 0);
    const ChannelId ba = g.add_channel(b, a, 1);
    const ChannelId self = g.add_channel(a, a, 1);
    EXPECT_EQ(g.out_channels(a), (std::vector<ChannelId>{ab, self}));
    EXPECT_EQ(g.in_channels(a), (std::vector<ChannelId>{ba, self}));
    EXPECT_EQ(g.in_channels(b), (std::vector<ChannelId>{ab}));
}

TEST(Graph, HomogeneityAndTokenTotals) {
    Graph g;
    const ActorId a = g.add_actor("a");
    const ActorId b = g.add_actor("b");
    g.add_channel(a, b, 2);
    EXPECT_TRUE(g.is_homogeneous());
    EXPECT_EQ(g.total_initial_tokens(), 2);
    g.add_channel(b, a, 3, 2, 1);
    EXPECT_FALSE(g.is_homogeneous());
    EXPECT_EQ(g.total_initial_tokens(), 3);
}

TEST(Graph, Setters) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ChannelId c = g.add_channel(a, a, 1);
    g.set_execution_time(a, 9);
    g.set_initial_tokens(c, 4);
    EXPECT_EQ(g.actor(a).execution_time, 9);
    EXPECT_EQ(g.channel(c).initial_tokens, 4);
    EXPECT_THROW(g.set_execution_time(a, -2), InvalidGraphError);
    EXPECT_THROW(g.set_initial_tokens(c, -1), InvalidGraphError);
    EXPECT_THROW(g.set_execution_time(7, 1), InvalidGraphError);
}

TEST(AnalysisManager, RepetitionAndScheduleAreCachedPerGraph) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 1, 2, 0);  // a fires twice per b firing
    g.add_channel(b, a, 2, 1, 2);
    const std::vector<Int> reps = repetition_vector(g);
    const std::vector<ActorId> sched = sequential_schedule(g);
    ASSERT_TRUE(g.analyses()->is_cached<RepetitionVectorAnalysis>());
    ASSERT_TRUE(g.analyses()->is_cached<SequentialScheduleAnalysis>());
    EXPECT_EQ(*g.analyses()->cached<RepetitionVectorAnalysis>(), reps);
    EXPECT_EQ(*g.analyses()->cached<SequentialScheduleAnalysis>(), sched);
    // Repeated queries serve the cached values (hit counters move).
    EXPECT_EQ(repetition_vector(g), reps);
    EXPECT_EQ(sequential_schedule(g), sched);
    for (const AnalysisSlotStats& slot : g.analyses()->stats()) {
        if (slot.analysis == "repetition" || slot.analysis == "schedule") {
            EXPECT_EQ(slot.misses, 1u) << slot.analysis;
            EXPECT_GE(slot.hits, 1u) << slot.analysis;
        }
    }
}

TEST(AnalysisManager, StructuralMutationInvalidatesTheCache) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    g.add_channel(a, a, 1);
    EXPECT_EQ(repetition_vector(g), (std::vector<Int>{1}));

    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 2, 1, 0);   // a produces 2, b consumes 1 => b fires twice
    g.add_channel(b, b, 1);
    EXPECT_EQ(repetition_vector(g), (std::vector<Int>{1, 2}));

    // Retuning a token count is delta-aware: the repetition vector depends
    // on rates only and survives, and a token INCREASE keeps the cached
    // schedule (more tokens never disable a firing).  A token decrease that
    // breaks the order drops the schedule for lazy recomputation.
    sequential_schedule(g);
    g.set_initial_tokens(1, 2);
    EXPECT_TRUE(g.analyses()->is_cached<RepetitionVectorAnalysis>());
    EXPECT_TRUE(g.analyses()->is_cached<SequentialScheduleAnalysis>());
    EXPECT_TRUE(validate_schedule(g, *g.analyses()->cached<SequentialScheduleAnalysis>()));
    g.set_initial_tokens(0, 0);  // the self-loop token a->a: deadlocks a
    EXPECT_TRUE(g.analyses()->is_cached<RepetitionVectorAnalysis>());
    EXPECT_FALSE(g.analyses()->is_cached<SequentialScheduleAnalysis>());
}

TEST(AnalysisManager, ExecutionTimeRetuningKeepsTheUntimedSlots) {
    // Repetition vector and admissible schedule are untimed properties, so
    // the DSE-style loop "retime, reanalyse" keeps its cache; the timed
    // throughput slot (filled via cached_throughput in src/analysis) must
    // not survive — covered in test_pass.cpp where that layer is linked.
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    g.add_channel(a, a, 1);
    repetition_vector(g);
    g.set_execution_time(a, 99);
    EXPECT_TRUE(g.analyses()->is_cached<RepetitionVectorAnalysis>());
}

TEST(AnalysisManager, CopiesShareUntilEitherSideMutates) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    g.add_channel(a, a, 1);
    repetition_vector(g);

    Graph copy = g;  // shares the manager snapshot
    EXPECT_EQ(copy.analyses(), g.analyses());
    const ActorId b = copy.add_actor("b", 1);
    copy.add_channel(b, b, 1);
    // The copy recomputes under its own (fresh) manager...
    EXPECT_NE(copy.analyses(), g.analyses());
    EXPECT_EQ(repetition_vector(copy), (std::vector<Int>{1, 1}));
    // ...and the original still serves its cached single-actor answer.
    EXPECT_EQ(repetition_vector(g), (std::vector<Int>{1}));
    ASSERT_TRUE(g.analyses()->is_cached<RepetitionVectorAnalysis>());
    EXPECT_EQ(g.analyses()->cached<RepetitionVectorAnalysis>()->size(), 1u);
}

TEST(AnalysisManager, BuildingAnUnsharedGraphKeepsOneManager) {
    // Nothing is cached while a graph is being filled, so add_actor and
    // add_channel leave the manager in place instead of replacing it per
    // element.  A weak_ptr sees a replaced manager even if the allocator
    // hands the fresh one the same address.
    Graph g("build");
    const std::weak_ptr<AnalysisManager> first = g.analyses();
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 2);
    g.add_channel(a, b, 1, 2, 0);
    g.add_channel(b, a, 2, 1, 2);
    EXPECT_EQ(first.lock(), g.analyses());
}

TEST(AnalysisManager, StructuralEditOfASharedEmptyManagerStillSplits) {
    // Nothing is cached, but the copy shares the manager: it must get its
    // own, or the original's later results would leak into it.
    Graph g;
    g.add_actor("a", 1);
    Graph copy = g;
    copy.add_actor("x", 1);
    EXPECT_NE(copy.analyses(), g.analyses());
    EXPECT_EQ(repetition_vector(g), (std::vector<Int>{1}));
    EXPECT_FALSE(copy.analyses()->is_cached<RepetitionVectorAnalysis>());
    EXPECT_TRUE(copy.analyses()->empty());
}

TEST(AnalysisManager, DerivedGraphsLeaveTheOriginalsSlotsInPlace) {
    Graph g("pair");
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 2);
    g.add_channel(a, b, 1, 2, 0);
    g.add_channel(b, a, 2, 1, 2);
    const auto reps = g.analyses()->get<RepetitionVectorAnalysis>(g);
    const auto sched = g.analyses()->get<SequentialScheduleAnalysis>(g);
    const auto live = g.analyses()->get<LivenessAnalysis>(g);
    const auto period = cached_throughput(g);

    const Graph looped = add_self_loops(g);
    const Graph bounded = with_buffer_capacity(g, 0, 2);
    EXPECT_EQ(g.analyses()->cached<RepetitionVectorAnalysis>(), reps);
    EXPECT_EQ(g.analyses()->cached<SequentialScheduleAnalysis>(), sched);
    EXPECT_EQ(g.analyses()->cached<LivenessAnalysis>(), live);
    EXPECT_EQ(cached_throughput(g), period);

    for (const Graph* derived : {&looped, &bounded}) {
        EXPECT_GT(derived->channel_count(), g.channel_count());
        EXPECT_TRUE(derived->analyses()->empty());
        const Graph cold = rebuild_cold(*derived);
        EXPECT_EQ(repetition_vector(*derived), repetition_vector(cold));
        EXPECT_EQ(sequential_schedule(*derived), sequential_schedule(cold));
        EXPECT_EQ(is_deadlock_free(*derived), is_deadlock_free(cold));
        const ThroughputResult reference = throughput_symbolic(cold);
        const auto now = cached_throughput(*derived);
        EXPECT_EQ(now->outcome, reference.outcome);
        EXPECT_EQ(now->period, reference.period);
        EXPECT_EQ(now->per_actor, reference.per_actor);
    }
}

TEST(AnalysisManager, AdoptMovesNamedSlotsAcrossManagers) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    g.add_channel(a, a, 1);
    repetition_vector(g);
    sequential_schedule(g);

    AnalysisManager fresh;
    fresh.adopt(*g.analyses(), {"repetition"});
    EXPECT_TRUE(fresh.is_cached<RepetitionVectorAnalysis>());
    EXPECT_FALSE(fresh.is_cached<SequentialScheduleAnalysis>());
    EXPECT_EQ(*fresh.cached<RepetitionVectorAnalysis>(), repetition_vector(g));

    AnalysisManager everything;
    everything.adopt_all(*g.analyses());
    EXPECT_TRUE(everything.is_cached<SequentialScheduleAnalysis>());
    for (const AnalysisSlotStats& slot : everything.stats()) {
        EXPECT_EQ(slot.adopted, 1u) << slot.analysis;
    }
}

TEST(AnalysisManager, FailuresAreNeverCached) {
    Graph g;
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 2, 1, 0);
    g.add_channel(b, a, 2, 1, 0);  // inconsistent: q(a)*2 == q(b) and q(b)*2 == q(a)
    EXPECT_THROW(repetition_vector(g), InconsistentGraphError);
    EXPECT_FALSE(g.analyses()->is_cached<RepetitionVectorAnalysis>());
    // The derived consistency slot caches its (negative) answer fine.
    EXPECT_FALSE(is_consistent(g));
    EXPECT_TRUE(g.analyses()->is_cached<ConsistencyAnalysis>());
    EXPECT_THROW(repetition_vector(g), InconsistentGraphError);
}

TEST(Channel, Predicates) {
    Channel self{0, 0, 1, 1, 2};
    EXPECT_TRUE(self.is_self_loop());
    EXPECT_TRUE(self.is_homogeneous());
    Channel rated{0, 1, 3, 2, 0};
    EXPECT_FALSE(rated.is_self_loop());
    EXPECT_FALSE(rated.is_homogeneous());
}

}  // namespace
}  // namespace sdf
