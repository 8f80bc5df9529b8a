// Unit tests for transform/symbolic.hpp — the symbolic execution at the
// heart of Algorithm 1.
#include "transform/symbolic.hpp"

#include <gtest/gtest.h>

#include "base/errors.hpp"
#include "gen/regular.hpp"
#include "maxplus/mcm.hpp"

namespace sdf {
namespace {

/// Column k of the iteration matrix, read entry by entry with at(j, k).
void expect_column(const MpSparseMatrix& matrix, std::size_t k, const MpVector& expected) {
    ASSERT_EQ(matrix.rows(), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
        EXPECT_EQ(matrix.at(j, k), expected[j]) << "entry (" << j << ", " << k << ")";
    }
}

TEST(Symbolic, PaperFigure3Example) {
    // The worked example of Section 6 / Figure 3: the left actor (time 3)
    // fires twice, the right actor (time 1) once; four initial tokens.
    //   t1, t3 on the feedback right->left (p=2, c=1),
    //   t2 on a left self-loop (sequentialising left's firings),
    //   t4 on a right self-loop.
    // Paper trace: first left firing consumes t1, t2 and ends at
    // max(t1+3, t2+3); the second consumes t3 and the first result and ends
    // at max(t1+6, t2+6, t3+3); the right firing closes the iteration.
    Graph g;
    const ActorId left = g.add_actor("left", 3);
    const ActorId right = g.add_actor("right", 1);
    g.add_channel(right, left, 2, 1, 2);  // tokens 0, 1  (t1, t3)
    g.add_channel(left, left, 1, 1, 1);   // token 2      (t2)
    g.add_channel(left, right, 1, 2, 0);  // data
    g.add_channel(right, right, 1, 1, 1); // token 3      (t4)
    const SymbolicIteration it = symbolic_iteration(g);
    ASSERT_EQ(it.tokens.size(), 4u);
    // Left's second firing: max(t1+6, t3+3, t2+6).
    const MpVector left2 = [&] {
        MpVector v(4);
        v[0] = MpValue(6);
        v[1] = MpValue(3);
        v[2] = MpValue(6);
        return v;
    }();
    expect_column(it.matrix, 2, left2);  // new left self-loop token
    // Right's firing: max over both data tokens and t4, plus 1:
    // max(t1+7, t3+4, t2+7, t4+1) — the new feedback and right-self tokens.
    const MpVector right1 = [&] {
        MpVector v(4);
        v[0] = MpValue(7);
        v[1] = MpValue(4);
        v[2] = MpValue(7);
        v[3] = MpValue(1);
        return v;
    }();
    expect_column(it.matrix, 0, right1);
    expect_column(it.matrix, 1, right1);
    expect_column(it.matrix, 3, right1);
}

TEST(Symbolic, MatrixSizeEqualsTokenCount) {
    const Graph g = figure1_graph(6);
    const SymbolicIteration it = symbolic_iteration(g);
    EXPECT_EQ(it.matrix.rows(), 1u);  // figure 1(a) has a single token
    EXPECT_EQ(it.matrix.at(0, 0), MpValue(23));
}

TEST(Symbolic, UntouchedTokenKeepsIdentityStamp) {
    // A channel whose tokens are never consumed: its column is the unit
    // vector (distance 0 to itself).
    Graph g;
    const ActorId a = g.add_actor("a", 5);
    const ActorId sink = g.add_actor("sink", 1);
    g.add_channel(a, a, 1);
    // sink never consumes the spare token on this channel (c=2 needs 2,
    // only 1 arrives... make it simple: a separate token-holding channel
    // from sink to sink that sink does not consume is impossible in SDF) —
    // instead: token on a channel into an actor that fires zero times is
    // impossible for consistent graphs, so model "untouched" as d larger
    // than consumed: d=3, one firing consumes 1, the two leftover tokens
    // shift position.
    g.add_channel(a, sink, 1, 1, 0);
    g.add_channel(sink, a, 1, 1, 3);
    const SymbolicIteration it = symbolic_iteration(g);
    ASSERT_EQ(it.tokens.size(), 4u);
    // Token order: self (index 0), then feedback positions 0..2 (indices
    // 1..3).  a consumes the self token and feedback head (index 1); the
    // new feedback queue is [old pos 1, old pos 2, sink-produced]; so new
    // column for feedback position 0 is the unit of old index 2.
    expect_column(it.matrix, 1, MpVector::unit(4, 2));
    expect_column(it.matrix, 2, MpVector::unit(4, 3));
    // The last feedback slot is the sink's output: a fired at max(t0, t1),
    // done +5, sink +1 => entries 6 on rows 0 and 1.
    MpVector produced(4);
    produced[0] = MpValue(6);
    produced[1] = MpValue(6);
    expect_column(it.matrix, 3, produced);
}

TEST(Symbolic, DeadlockAndInconsistencyPropagate) {
    Graph dead;
    const ActorId a = dead.add_actor("a", 1);
    const ActorId b = dead.add_actor("b", 1);
    dead.add_channel(a, b, 0);
    dead.add_channel(b, a, 0);
    EXPECT_THROW(symbolic_iteration(dead), DeadlockError);

    Graph inconsistent;
    const ActorId c = inconsistent.add_actor("c", 1);
    inconsistent.add_channel(c, c, 2, 1, 4);
    EXPECT_THROW(symbolic_iteration(inconsistent), InconsistentGraphError);
}

TEST(Symbolic, ZeroExecutionTimesGiveZeroMatrix) {
    Graph g;
    const ActorId a = g.add_actor("a", 0);
    g.add_channel(a, a, 1);
    const SymbolicIteration it = symbolic_iteration(g);
    EXPECT_EQ(it.matrix.at(0, 0), MpValue(0));
}

TEST(Symbolic, PowerMatchesRepeatedIterations) {
    // G^2 must describe two iterations: verify against a 2-iteration
    // "long" graph built by doubling the repetition vector via a doubled
    // self-loop trick — instead compare against explicit multiply.
    Graph g;
    const ActorId a = g.add_actor("a", 3);
    const ActorId b = g.add_actor("b", 4);
    g.add_channel(a, b, 0);
    g.add_channel(b, a, 2);
    const MpMatrix it = symbolic_iteration(g).matrix.to_dense();
    EXPECT_EQ(symbolic_iteration_power(g, 2), it.multiply(it));
    EXPECT_EQ(symbolic_iteration_power(g, 0), MpMatrix::identity(2));
}

TEST(Symbolic, EigenvalueIsIterationPeriod) {
    // Ring with two tokens: lambda = (3+4)/2.
    Graph g;
    const ActorId a = g.add_actor("a", 3);
    const ActorId b = g.add_actor("b", 4);
    g.add_channel(a, b, 0);
    g.add_channel(b, a, 2);
    const SymbolicIteration it = symbolic_iteration(g);
    const CycleMetric m = max_cycle_mean_karp(it.matrix.precedence_graph());
    ASSERT_TRUE(m.is_finite());
    EXPECT_EQ(m.value, Rational(7, 2));
}

TEST(Symbolic, DenseEngineMatchesSparseOnWorkedExample) {
    Graph g;
    const ActorId left = g.add_actor("left", 3);
    const ActorId right = g.add_actor("right", 1);
    g.add_channel(right, left, 2, 1, 2);
    g.add_channel(left, left, 1, 1, 1);
    g.add_channel(left, right, 1, 2, 0);
    g.add_channel(right, right, 1, 1, 1);
    const SymbolicIteration sparse = symbolic_iteration(g);
    const DenseSymbolicIteration dense = symbolic_iteration_dense(g);
    EXPECT_EQ(sparse.matrix.to_dense(), dense.matrix);
    EXPECT_EQ(sparse.matrix.precedence_graph().edges(), dense.matrix.precedence_graph().edges());
    EXPECT_EQ(sparse.tokens.size(), dense.tokens.size());
}

TEST(Symbolic, PowerShortCircuitsStillValidateTheGraph) {
    // Powers 0 and 1 skip the matrix exponentiation but must reject the
    // same graphs a real execution would.
    Graph dead;
    const ActorId a = dead.add_actor("a", 1);
    const ActorId b = dead.add_actor("b", 1);
    dead.add_channel(a, b, 0);
    dead.add_channel(b, a, 0);
    EXPECT_THROW(symbolic_iteration_power(dead, 0), DeadlockError);
    EXPECT_THROW(symbolic_iteration_power(dead, 1), DeadlockError);

    Graph inconsistent;
    const ActorId c = inconsistent.add_actor("c", 1);
    inconsistent.add_channel(c, c, 2, 1, 4);
    EXPECT_THROW(symbolic_iteration_power(inconsistent, 0), InconsistentGraphError);
    EXPECT_THROW(symbolic_iteration_power(inconsistent, 1), InconsistentGraphError);
}

TEST(Symbolic, PowerOneEqualsSingleIteration) {
    Graph g;
    const ActorId a = g.add_actor("a", 3);
    const ActorId b = g.add_actor("b", 4);
    g.add_channel(a, b, 0);
    g.add_channel(b, a, 2);
    EXPECT_EQ(symbolic_iteration_power(g, 1), symbolic_iteration(g).matrix.to_dense());
    EXPECT_THROW(symbolic_iteration_power(g, -1), Error);
}

TEST(Symbolic, ScheduleIndependence) {
    // SDF determinacy: the matrix must not depend on schedule order.  Build
    // the same graph with actors declared in different orders (which flips
    // the greedy schedule's tie-breaking) and compare matrices modulo the
    // identical token order.
    Graph g1;
    {
        const ActorId a = g1.add_actor("a", 2);
        const ActorId b = g1.add_actor("b", 5);
        g1.add_channel(a, b, 0);     // channel 0
        g1.add_channel(b, a, 1);     // channel 1: token 0
        g1.add_channel(a, a, 1);     // channel 2: token 1
    }
    Graph g2;
    {
        const ActorId b = g2.add_actor("b", 5);
        const ActorId a = g2.add_actor("a", 2);
        g2.add_channel(a, b, 0);
        g2.add_channel(b, a, 1);
        g2.add_channel(a, a, 1);
    }
    EXPECT_EQ(symbolic_iteration(g1).matrix, symbolic_iteration(g2).matrix);
}

}  // namespace
}  // namespace sdf
