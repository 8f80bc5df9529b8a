#include "transform/symbolic.hpp"

#include <deque>

#include "base/errors.hpp"
#include "robust/budget.hpp"
#include "sdf/schedule.hpp"
#include "transform/token_game.hpp"

namespace sdf {

namespace {

/// The dense reference engine: one full N-length MpVector per token, kept
/// as the differential-testing baseline for play_token_game.
MpMatrix run_dense(const Graph& graph, const std::vector<ActorId>& schedule,
                   std::size_t n) {
    // Each of the n in-flight tokens carries a full n-length vector.
    robust_account_bytes(n * n * sizeof(MpValue));
    std::vector<std::deque<MpVector>> fifo(graph.channel_count());
    {
        std::size_t global = 0;
        for (ChannelId c = 0; c < graph.channel_count(); ++c) {
            for (Int i = 0; i < graph.channel(c).initial_tokens; ++i) {
                fifo[c].push_back(MpVector::unit(n, global++));
            }
        }
    }
    const Adjacency adj = build_adjacency(graph);
    for (const ActorId a : schedule) {
        SDFRED_CHECKPOINT();
        // Start time: element-wise max over all consumed stamps.  A firing
        // that consumes nothing starts unconstrained (all −∞).
        MpVector start(n);
        for (const ChannelId ci : adj.inputs[a]) {
            const Int need = graph.channel(ci).consumption;
            for (Int i = 0; i < need; ++i) {
                if (fifo[ci].empty()) {
                    throw Error("internal: admissible schedule underflowed a channel");
                }
                start = start.max_with(fifo[ci].front());
                fifo[ci].pop_front();
            }
        }
        const MpVector finish = start.plus(graph.actor(a).execution_time);
        for (const ChannelId ci : adj.outputs[a]) {
            for (Int i = 0; i < graph.channel(ci).production; ++i) {
                fifo[ci].push_back(finish);
            }
        }
    }
    MpMatrix matrix(n, n);
    {
        std::size_t global = 0;
        for (ChannelId c = 0; c < graph.channel_count(); ++c) {
            const Int expected = graph.channel(c).initial_tokens;
            if (static_cast<Int>(fifo[c].size()) != expected) {
                throw Error("internal: channel token count changed over an iteration");
            }
            for (Int i = 0; i < expected; ++i) {
                matrix.set_column(global++, fifo[c][static_cast<std::size_t>(i)]);
            }
        }
    }
    return matrix;
}

}  // namespace

void require_symbolic_token_count(Int token_count) {
    // Refuse up front — e.g. the bundled overflow stress model carries
    // ~1e12 tokens, which would churn through per-token fifo allocations
    // for minutes before anything else could fail.
    if (token_count > kMaxSymbolicTokens) {
        throw ResourceLimitError(
            "symbolic iteration over " + std::to_string(token_count) +
                    " initial tokens; refusing above " +
                    std::to_string(kMaxSymbolicTokens) +
                    " tokens (model large token counts as scaled rates instead)");
    }
}

SymbolicIteration symbolic_iteration(const Graph& graph) {
    const std::vector<ActorId> schedule = sequential_schedule(graph);
    const auto columns = play_token_game<MpStamp>(
        graph, schedule, [&](std::size_t i, const std::vector<MpStamp>& consumed) {
            // One batched k-way merge per firing instead of k pairwise merges.
            return MpStamp::max_of(consumed).plus(graph.actor(schedule[i]).execution_time);
        });
    if (!columns) {
        throw Error("internal: admissible schedule does not fit one iteration");
    }
    SymbolicIteration result;
    result.matrix = MpSparseMatrix(*columns);
    result.tokens = initial_tokens(graph);
    return result;
}

DenseSymbolicIteration symbolic_iteration_dense(const Graph& graph) {
    const std::vector<ActorId> schedule = sequential_schedule(graph);
    require_symbolic_token_count(graph.total_initial_tokens());
    DenseSymbolicIteration result;
    result.tokens = initial_tokens(graph);
    result.matrix = run_dense(graph, schedule, result.tokens.size());
    return result;
}

MpMatrix symbolic_iteration_power(const Graph& graph, Int iterations) {
    require(iterations >= 0, "negative iteration count");
    if (iterations == 0) {
        // G^0 = I by definition; still validate the graph the way a real
        // execution would (consistency and deadlock-freedom), which hits
        // the memoised schedule instead of re-deriving it.
        sequential_schedule(graph);
        return MpMatrix::identity(initial_tokens(graph).size());
    }
    const MpMatrix one = symbolic_iteration(graph).matrix.to_dense();
    if (iterations == 1) {
        return one;
    }
    // With columns-as-new-tokens, composing iterations means
    // G_n(j,k) = max_m ( G_1(j,m) + G_{n-1}(m,k) ), i.e. G_1 ⊗ G_{n-1} in
    // row-major max-plus product order.
    return one.power(iterations);
}

}  // namespace sdf
