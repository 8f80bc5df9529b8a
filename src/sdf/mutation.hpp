// mutation.hpp — the typed mutation-delta protocol of the graph model.
//
// A timing or token edit on a fixed structure describes WHAT changed as a
// MutationEvent instead of blanketly discarding the analysis cache: the
// setter swaps in a fresh manager filled by `refine_from(old, graph, log)`,
// which asks every cached analysis slot how it survives the delta — kept
// unchanged, refined in place, or dropped for lazy recomputation (see
// sdf/analysis_manager.hpp for the per-slot contract and docs/INCREMENTAL.md
// for the full protocol).  Rate edits (set_rates) and structural mutators
// (add_actor, add_channel) record no event: the repetition vector fixes the
// firings of one iteration, so they start the graph on an empty manager.
// The graph keeps no history: the event lives only as long as that
// refinement.
//
// Events are value records of the pre- and post-edit scalars, so refinement
// hooks can reason about the *direction* of a change (a token increase can
// never introduce a deadlock; a pure execution-time edit cannot touch any
// untimed result).  A MutationLog is an ordered batch of events; the
// setters hand a one-event log to refine_from.  The serve `edit` op applies
// a client-provided script through the setters, one event each.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/checked.hpp"

namespace sdf {

using ActorId = std::size_t;
using ChannelId = std::size_t;

/// What one value edit did to the graph.  Both kinds keep the structure
/// and the rates fixed, so positional results refine entry-wise.
enum class MutationKind : std::uint8_t {
    execution_time,   ///< set_execution_time; old_a -> new_a on actor `id`
    initial_tokens,   ///< set_initial_tokens; old_a -> new_a on channel `id`
};

/// One recorded mutation.
struct MutationEvent {
    MutationKind kind = MutationKind::execution_time;
    std::size_t id = 0;  ///< actor or channel id, per kind
    Int old_a = 0;       ///< execution time / initial tokens
    Int new_a = 0;

    friend bool operator==(const MutationEvent&, const MutationEvent&) = default;
};

/// An ordered batch of mutations, with the classification predicates the
/// refinement hooks branch on.
class MutationLog {
public:
    MutationLog() = default;

    void push(const MutationEvent& event) { events_.push_back(event); }

    [[nodiscard]] bool empty() const { return events_.empty(); }
    [[nodiscard]] std::size_t size() const { return events_.size(); }
    [[nodiscard]] const std::vector<MutationEvent>& events() const { return events_; }

    /// Only execution-time edits: no untimed result can change.
    [[nodiscard]] bool timing_only() const {
        for (const MutationEvent& e : events_) {
            if (e.kind != MutationKind::execution_time) {
                return false;
            }
        }
        return true;
    }

    /// True when every token edit in the log moves in the given direction
    /// (increase when `increase`, decrease otherwise).  Timing events are
    /// ignored; an empty log is trivially monotone.
    [[nodiscard]] bool tokens_monotone(bool increase) const {
        for (const MutationEvent& e : events_) {
            if (e.kind != MutationKind::initial_tokens) {
                continue;
            }
            if (increase ? e.new_a < e.old_a : e.new_a > e.old_a) {
                return false;
            }
        }
        return true;
    }

private:
    std::vector<MutationEvent> events_;
};

}  // namespace sdf
