// analysis.hpp (csdf) — consistency, scheduling, symbolic reduction and
// throughput for cyclo-static dataflow graphs.
//
// Everything here is the SDF machinery lifted to phases:
//
//  * consistency / repetition: the balance equations use the per-cycle
//    aggregate rates, q'(a)·Σp = q'(b)·Σc, where q'(a) counts full phase
//    cycles per iteration (Bilsen et al.);
//  * scheduling: a PASS fires (actor, phase) pairs;
//  * Algorithm 1 carries over verbatim — the SDF token game
//    (transform/token_game.hpp) plays (actor, phase) firings with
//    per-phase amounts, stamps are sparse max-plus vectors over the
//    initial tokens, and one iteration yields the same kind of N×N matrix
//    under the same token guard and budget checkpoints.  Its
//    eigenvalue is the iteration period, and feeding it into the paper's
//    Figure 4 construction gives a *reduced HSDF equivalent of a CSDF
//    graph* — the natural extension of the paper's Section 6 result.
#pragma once

#include <vector>

#include "base/rational.hpp"
#include "csdf/graph.hpp"
#include "maxplus/sparse_matrix.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// Per-actor full-cycle repetition counts q' (smallest positive integer
/// solution of the aggregate balance equations).  Throws
/// InconsistentGraphError when unsolvable.
std::vector<Int> csdf_repetition(const CsdfGraph& graph);

/// True when the aggregate balance equations are solvable.
bool csdf_is_consistent(const CsdfGraph& graph);

/// One firing of a PASS: actor id plus the phase it executes.
struct CsdfFiring {
    CsdfActorId actor = 0;
    Int phase = 0;

    friend bool operator==(const CsdfFiring&, const CsdfFiring&) = default;
    /// The symbolic executor's view (transform/token_game.hpp): the actor
    /// that fires, and a channel's per-phase rate in this firing's phase.
    friend CsdfActorId firing_actor(const CsdfFiring& f) { return f.actor; }
    friend Int firing_rate(const std::vector<Int>& rates, const CsdfFiring& f) {
        return rates[static_cast<std::size_t>(f.phase)];
    }
};

/// A sequential schedule for one iteration (every actor fires
/// q'(a)·P(a) phases, channels return to their initial token counts).
/// Throws DeadlockError when none exists.
std::vector<CsdfFiring> csdf_sequential_schedule(const CsdfGraph& graph);

/// True when the graph is consistent and one iteration can execute.
bool csdf_is_live(const CsdfGraph& graph);

/// The max-plus iteration matrix over the initial tokens (Algorithm 1
/// applied at phase granularity) together with the token count.  Throws
/// ResourceLimitError above kMaxSymbolicTokens initial tokens, like the SDF
/// route.
struct CsdfSymbolicIteration {
    MpSparseMatrix matrix;
    Int token_count = 0;
};
CsdfSymbolicIteration csdf_symbolic_iteration(const CsdfGraph& graph);

/// Throughput of a CSDF graph.
struct CsdfThroughput {
    bool deadlocked = false;
    bool unbounded = false;
    Rational period;                 ///< iteration period λ
    std::vector<Rational> per_actor; ///< full phase cycles of a per time unit
};
CsdfThroughput csdf_throughput(const CsdfGraph& graph);

/// The paper's Section 6 conversion applied to CSDF: an HSDF graph (over
/// the N initial tokens) with the same iteration period.
Graph csdf_to_reduced_hsdf(const CsdfGraph& graph);

/// Embeds an SDF graph as a single-phase CSDF graph (for cross-validation
/// and for mixing SDF actors into CSDF models).
CsdfGraph csdf_from_sdf(const Graph& graph);

/// Bounds channel `channel` to `capacity` tokens by the reverse-channel
/// construction, phase-wise (the CSDF buffer model of the paper's citation
/// [19], Wiggers et al.): the reverse channel releases space as the
/// consumer's phases complete and grants it as the producer's phases
/// start.  `capacity` must cover the initial tokens; self-loop channels
/// are rejected.
CsdfGraph csdf_with_buffer_capacity(const CsdfGraph& graph, CsdfChannelId channel,
                                    Int capacity);

}  // namespace sdf
