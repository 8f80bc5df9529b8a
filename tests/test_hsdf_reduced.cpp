// Unit tests for transform/hsdf_reduced.hpp — the Figure 4 construction.
#include "transform/hsdf_reduced.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/throughput.hpp"
#include "base/errors.hpp"
#include "gen/regular.hpp"
#include "gen/structured.hpp"
#include "io/text.hpp"
#include "io/xml.hpp"
#include "maxplus/mcm.hpp"
#include "sdf/properties.hpp"
#include "transform/symbolic.hpp"

namespace sdf {
namespace {

MpSparseMatrix dense2() {
    MpMatrix m(2, 2);
    m.set(0, 0, MpValue(3));
    m.set(0, 1, MpValue(4));
    m.set(1, 0, MpValue(5));
    m.set(1, 1, MpValue(6));
    return MpSparseMatrix::from_dense(m);
}

TEST(HsdfReduced, DenseMatrixStructure) {
    const Graph g = reduced_hsdf_from_matrix(dense2(), "dense");
    // 4 matrix actors + 2 muxes + 2 demuxes.
    EXPECT_EQ(g.actor_count(), 8u);
    EXPECT_TRUE(g.is_homogeneous());
    EXPECT_EQ(g.total_initial_tokens(), 2);
    // Respects the paper's bounds: N(N+2) actors, N(2N+1) edges, N tokens.
    EXPECT_LE(g.actor_count(), 2u * 4u);
    EXPECT_LE(g.channel_count(), 2u * 5u);
}

TEST(HsdfReduced, PeriodEqualsMatrixEigenvalue) {
    const Graph g = reduced_hsdf_from_matrix(dense2(), "dense");
    const CycleMetric matrix_lambda = max_cycle_mean_karp(dense2().precedence_graph());
    const ThroughputResult reduced = throughput_symbolic(g);
    ASSERT_TRUE(matrix_lambda.is_finite());
    ASSERT_TRUE(reduced.is_finite());
    EXPECT_EQ(reduced.period, matrix_lambda.value);  // 6
}

TEST(HsdfReduced, SingleEntryMatrixCollapsesToSelfLoop) {
    MpMatrix m(1, 1);
    m.set(0, 0, MpValue(23));
    const Graph g = reduced_hsdf_from_matrix(MpSparseMatrix::from_dense(m), "single");
    EXPECT_EQ(g.actor_count(), 1u);
    EXPECT_EQ(g.channel_count(), 1u);
    EXPECT_TRUE(g.channel(0).is_self_loop());
    EXPECT_EQ(g.channel(0).initial_tokens, 1);
    EXPECT_EQ(g.actor(0).execution_time, 23);
}

TEST(HsdfReduced, ElisionToggleReachesWorstCaseBound) {
    const ReducedHsdfOptions no_elide{.elide_single_client_muxes = false};
    const Graph g = reduced_hsdf_from_matrix(dense2(), "dense", no_elide);
    EXPECT_EQ(g.actor_count(), 8u);  // dense: elision changes nothing
    MpMatrix diag(2, 2);
    diag.set(0, 0, MpValue(1));
    diag.set(1, 1, MpValue(2));
    const MpSparseMatrix sparse_diag = MpSparseMatrix::from_dense(diag);
    const Graph elided = reduced_hsdf_from_matrix(sparse_diag, "diag");
    const Graph full = reduced_hsdf_from_matrix(sparse_diag, "diag", no_elide);
    EXPECT_EQ(elided.actor_count(), 2u);  // two self-loop cells
    EXPECT_EQ(full.actor_count(), 6u);    // plus per-token mux and demux
    // Same timing either way.
    EXPECT_EQ(throughput_symbolic(elided).period, Rational(2));
    EXPECT_EQ(throughput_symbolic(full).period, Rational(2));
}

TEST(HsdfReduced, SparseMatrixSkipsAbsentCells) {
    MpMatrix m(3, 3);
    m.set(0, 1, MpValue(2));
    m.set(1, 2, MpValue(3));
    m.set(2, 0, MpValue(4));
    const Graph g = reduced_hsdf_from_matrix(MpSparseMatrix::from_dense(m), "ring3");
    // One cell per finite entry, no muxes/demuxes needed.
    EXPECT_EQ(g.actor_count(), 3u);
    EXPECT_EQ(g.total_initial_tokens(), 3);
    EXPECT_EQ(throughput_symbolic(g).period, Rational(3));  // (2+3+4)/3
}

TEST(HsdfReduced, EmptyColumnGetsFreeSource) {
    // Token 0 depends on nothing (all -inf column) but token 1 depends on
    // token 0: a src_ actor must supply it.
    MpMatrix m(2, 2);
    m.set(0, 1, MpValue(5));
    m.set(1, 1, MpValue(1));
    const Graph g = reduced_hsdf_from_matrix(MpSparseMatrix::from_dense(m), "free");
    ASSERT_TRUE(g.find_actor("src_0").has_value());
    const ThroughputResult t = throughput_symbolic(g);
    ASSERT_TRUE(t.is_finite());
    EXPECT_EQ(t.period, Rational(1));  // only the 1-cycle on g_1_1 constrains
}

TEST(HsdfReduced, EndToEndOnFigure1) {
    const Graph original = figure1_graph(6);
    const Graph reduced = to_hsdf_reduced(original);
    EXPECT_EQ(reduced.actor_count(), 1u);  // one initial token
    EXPECT_EQ(throughput_symbolic(reduced).period, iteration_period(original));
}

TEST(HsdfReduced, SizeBoundsHoldOnPrefetchModel) {
    const Graph original = prefetch_graph(24);
    const SymbolicIteration it = symbolic_iteration(original);
    const Int n = static_cast<Int>(it.tokens.size());
    const Graph reduced = to_hsdf_reduced(original);
    EXPECT_LE(static_cast<Int>(reduced.actor_count()), n * (n + 2));
    EXPECT_LE(static_cast<Int>(reduced.channel_count()), n * (2 * n + 1));
    EXPECT_LE(reduced.total_initial_tokens(), n);
    EXPECT_EQ(throughput_symbolic(reduced).period, iteration_period(original));
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// The Figure-4 text of `graph` must equal data/reduced/<golden> byte for
/// byte: actor and channel order included, not just the period.
void expect_golden(const Graph& graph, const std::string& golden,
                   const ReducedHsdfOptions& options = {}) {
    SCOPED_TRACE(golden);
    const std::string expected = read_file(std::string(SDFRED_DATA_DIR) + "/reduced/" + golden);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(write_text_string(to_hsdf_reduced(graph, options)), expected);
}

TEST(HsdfReduced, OutputMatchesGoldens) {
    const std::string data = SDFRED_DATA_DIR;
    for (const char* model : {"h263decoder", "h263encoder", "modem", "mp3dec_block",
                              "mp3dec_granule", "mp3playback", "samplerate", "satellite"}) {
        expect_golden(read_xml_file(data + "/" + model + ".xml"),
                      std::string(model) + ".reduced.sdf");
    }
    const ReducedHsdfOptions no_elide{.elide_single_client_muxes = false};
    for (const char* model : {"modem", "samplerate"}) {
        expect_golden(read_xml_file(data + "/" + model + ".xml"),
                      std::string(model) + ".full.reduced.sdf", no_elide);
    }
    expect_golden(fork_join_graph(16, 3), "fork_join_16_3.reduced.sdf");
    // Its iteration matrix has an all -inf column: exercises src_.
    expect_golden(read_text_file(data + "/reduced/free_source.sdf"),
                  "free_source.reduced.sdf");
}

const AnalysisSlotStats* find_slot(const std::vector<AnalysisSlotStats>& stats,
                                   const std::string& name) {
    for (const AnalysisSlotStats& slot : stats) {
        if (slot.analysis == name) {
            return &slot;
        }
    }
    return nullptr;
}

TEST(HsdfReduced, ThroughputAndReductionShareOneSymbolicIteration) {
    const Graph g = fork_join_graph(16, 3);
    const auto throughput = cached_throughput(g);
    const Graph reduced = to_hsdf_reduced(g);
    const auto stats = g.analyses()->stats();
    const AnalysisSlotStats* slot = find_slot(stats, "symbolic-iteration");
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->misses, 1u);  // the token game ran once ...
    EXPECT_EQ(slot->hits, 1u);    // ... and the reduction reused it
    ASSERT_TRUE(throughput->is_finite());
    EXPECT_EQ(throughput_symbolic(reduced).period, throughput->period);
    // An edit drops the slot, so the edited graph's reduction is fresh.
    Graph edited = g;
    edited.set_execution_time(*edited.find_actor("w3"), 9);
    EXPECT_FALSE(edited.analyses()->has("symbolic-iteration"));
    EXPECT_EQ(write_text_string(to_hsdf_reduced(edited)),
              write_text_string(reduced_hsdf_from_matrix(symbolic_iteration(edited).matrix,
                                                         edited.name() + "_rhsdf")));
    EXPECT_NE(write_text_string(to_hsdf_reduced(edited)), write_text_string(reduced));
}

TEST(HsdfReduced, DeadlockedGraphCachesNoSymbolicIteration) {
    Graph g("dead");
    const ActorId a = g.add_actor("a", 1);
    const ActorId b = g.add_actor("b", 1);
    g.add_channel(a, b, 0);
    g.add_channel(b, a, 0);
    EXPECT_EQ(cached_throughput(g)->outcome, ThroughputOutcome::deadlocked);
    EXPECT_THROW(to_hsdf_reduced(g), DeadlockError);
    EXPECT_FALSE(g.analyses()->has("symbolic-iteration"));
    const auto stats = g.analyses()->stats();
    const AnalysisSlotStats* slot = find_slot(stats, "symbolic-iteration");
    EXPECT_TRUE(slot == nullptr || (slot->misses == 0 && slot->hits == 0));
}

TEST(HsdfReduced, RejectsNonSquareMatrix) {
    EXPECT_THROW(reduced_hsdf_from_matrix(MpSparseMatrix::from_dense(MpMatrix(2, 3)), "bad"),
                 InvalidGraphError);
}

}  // namespace
}  // namespace sdf
