// token_game.hpp — Algorithm 1's token game, written once.
//
// Every initial token starts as the unit stamp of its canonical index
// (sdf/properties.hpp).  A firing consumes the tokens at the heads of its
// input channels, turns them into one produced token by a caller-supplied
// rule, and pushes a copy of that token per produced unit onto each output
// channel.  After one iteration the tokens left on the channels, read in
// canonical order, are the columns of the N×N iteration matrix.
//
// The executor owns everything but the rule: adjacency, FIFO seeding, the
// per-firing budget checkpoint, the underflow check, production, the
// end-of-iteration token-count check, the column order and the
// kMaxSymbolicTokens guard.  The final tokens become the CSC columns of
// maxplus/sparse_matrix.hpp as they are.  Its callers:
//
//   * symbolic_iteration           — Token = MpStamp, rule max ⊕ T(a);
//   * IncrementalThroughputAnalysis::compute — the same rule over
//     (stamp, source) tokens, recording each finish stamp and where every
//     consumed token came from, so that refine replays only an edit's cone;
//   * csdf_symbolic_iteration      — (actor, phase) firings, per-phase rates.
//
// symbolic_iteration_dense keeps its own loop on purpose: it is the
// independent reference the differential oracles compare this one against.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "maxplus/stamp.hpp"
#include "robust/budget.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// Throws ResourceLimitError when `token_count` is above kMaxSymbolicTokens
/// (transform/symbolic.hpp); called before anything is allocated.
void require_symbolic_token_count(Int token_count);

/// Input/output channel lists indexed by actor, for Graph and CsdfGraph.
struct Adjacency {
    std::vector<std::vector<std::size_t>> inputs;
    std::vector<std::vector<std::size_t>> outputs;
};

template <typename GraphT>
Adjacency build_adjacency(const GraphT& graph) {
    Adjacency adj;
    adj.inputs.resize(graph.actor_count());
    adj.outputs.resize(graph.actor_count());
    for (std::size_t c = 0; c < graph.channel_count(); ++c) {
        adj.inputs[graph.channel(c).dst].push_back(c);
        adj.outputs[graph.channel(c).src].push_back(c);
    }
    return adj;
}

/// An SDF firing is a bare actor id whose rates are scalars.  CsdfFiring
/// supplies the (actor, phase) overloads as hidden friends.
inline ActorId firing_actor(ActorId firing) { return firing; }
inline Int firing_rate(Int rate, ActorId /*firing*/) { return rate; }

/// Plays one iteration of `firings` on `graph`.  `fire(i, consumed)`
/// returns the token firing i produces; `consumed` holds its input tokens
/// (input channels in channel order, FIFO order within a channel) and may
/// be moved from.  Token must be brace-constructible from an MpStamp.
///
/// Returns the final tokens in canonical order, or nullopt when the
/// firings do not fit the graph: an actor id out of range, an underflowing
/// channel, or a channel whose token count changed over the iteration.
/// Throws ResourceLimitError above kMaxSymbolicTokens and BudgetExceeded
/// from the per-firing checkpoint.
template <typename Token, typename GraphT, typename Firing, typename Fire>
std::optional<std::vector<Token>> play_token_game(const GraphT& graph,
                                                  const std::vector<Firing>& firings,
                                                  Fire&& fire) {
    require_symbolic_token_count(graph.total_initial_tokens());
    std::vector<std::deque<Token>> fifo(graph.channel_count());
    std::size_t n = 0;
    for (std::size_t c = 0; c < graph.channel_count(); ++c) {
        for (Int k = 0; k < graph.channel(c).initial_tokens; ++k) {
            fifo[c].push_back(Token{MpStamp::unit(n++)});
        }
    }
    const Adjacency adj = build_adjacency(graph);
    std::vector<Token> consumed;  // reused across firings
    for (std::size_t i = 0; i < firings.size(); ++i) {
        SDFRED_CHECKPOINT();
        const std::size_t a = firing_actor(firings[i]);
        if (a >= graph.actor_count()) {
            return std::nullopt;
        }
        consumed.clear();
        for (const std::size_t c : adj.inputs[a]) {
            const Int need = firing_rate(graph.channel(c).consumption, firings[i]);
            for (Int k = 0; k < need; ++k) {
                if (fifo[c].empty()) {
                    return std::nullopt;
                }
                consumed.push_back(std::move(fifo[c].front()));
                fifo[c].pop_front();
            }
        }
        const Token produced = fire(i, consumed);
        for (const std::size_t c : adj.outputs[a]) {
            const Int count = firing_rate(graph.channel(c).production, firings[i]);
            for (Int k = 0; k < count; ++k) {
                fifo[c].push_back(produced);
            }
        }
    }
    std::vector<Token> tokens;
    tokens.reserve(n);
    for (std::size_t c = 0; c < graph.channel_count(); ++c) {
        if (static_cast<Int>(fifo[c].size()) != graph.channel(c).initial_tokens) {
            return std::nullopt;
        }
        for (Token& token : fifo[c]) {
            tokens.push_back(std::move(token));
        }
    }
    return tokens;
}

}  // namespace sdf
