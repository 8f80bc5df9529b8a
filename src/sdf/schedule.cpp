#include "sdf/schedule.hpp"

#include <deque>

#include "base/errors.hpp"
#include "robust/budget.hpp"
#include "sdf/repetition.hpp"

namespace sdf {

namespace {

/// True when `actor` currently has enough tokens on every input channel.
bool enabled(const Graph& graph, const std::vector<std::vector<ChannelId>>& inputs,
             const std::vector<Int>& tokens, ActorId actor) {
    for (const ChannelId ci : inputs[actor]) {
        if (tokens[ci] < graph.channel(ci).consumption) {
            return false;
        }
    }
    return true;
}

}  // namespace

namespace {

std::vector<ActorId> compute_sequential_schedule(const Graph& graph) {
    const std::vector<Int> repetition = repetition_vector(graph);
    const std::size_t n = graph.actor_count();

    std::vector<std::vector<ChannelId>> inputs(n);
    std::vector<std::vector<ChannelId>> outputs(n);
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        inputs[graph.channel(c).dst].push_back(c);
        outputs[graph.channel(c).src].push_back(c);
    }

    std::vector<Int> tokens;
    tokens.reserve(graph.channel_count());
    for (const Channel& c : graph.channels()) {
        tokens.push_back(c.initial_tokens);
    }
    std::vector<Int> remaining = repetition;

    Int total_remaining = 0;
    for (const Int r : remaining) {
        total_remaining = checked_add(total_remaining, r);
    }

    std::vector<ActorId> schedule;
    robust_account_bytes(static_cast<std::size_t>(total_remaining) * sizeof(ActorId));
    schedule.reserve(static_cast<std::size_t>(total_remaining));

    // Worklist of actors to re-examine; an actor can only become enabled
    // when one of its input channels gained tokens.
    std::deque<ActorId> worklist;
    std::vector<bool> queued(n, false);
    for (ActorId a = 0; a < n; ++a) {
        worklist.push_back(a);
        queued[a] = true;
    }

    while (!worklist.empty()) {
        const ActorId a = worklist.front();
        worklist.pop_front();
        queued[a] = false;
        while (remaining[a] > 0 && enabled(graph, inputs, tokens, a)) {
            SDFRED_CHECKPOINT();
            for (const ChannelId ci : inputs[a]) {
                tokens[ci] -= graph.channel(ci).consumption;
            }
            for (const ChannelId ci : outputs[a]) {
                tokens[ci] = checked_add(tokens[ci], graph.channel(ci).production);
            }
            --remaining[a];
            --total_remaining;
            schedule.push_back(a);
            for (const ChannelId ci : outputs[a]) {
                const ActorId consumer = graph.channel(ci).dst;
                if (!queued[consumer] && remaining[consumer] > 0) {
                    worklist.push_back(consumer);
                    queued[consumer] = true;
                }
            }
        }
    }

    if (total_remaining != 0) {
        throw DeadlockError("graph '" + graph.name() +
                            "' deadlocks: no admissible sequential schedule");
    }
    return schedule;
}

}  // namespace

bool validate_schedule(const Graph& graph, const std::vector<ActorId>& schedule) {
    const std::size_t n = graph.actor_count();
    std::vector<std::vector<ChannelId>> inputs(n);
    std::vector<std::vector<ChannelId>> outputs(n);
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        inputs[graph.channel(c).dst].push_back(c);
        outputs[graph.channel(c).src].push_back(c);
    }
    std::vector<Int> tokens;
    tokens.reserve(graph.channel_count());
    for (const Channel& c : graph.channels()) {
        tokens.push_back(c.initial_tokens);
    }
    std::vector<Int> fired(n, 0);
    for (const ActorId a : schedule) {
        if (a >= n) {
            return false;
        }
        for (const ChannelId ci : inputs[a]) {
            if (tokens[ci] < graph.channel(ci).consumption) {
                return false;  // underflow: the order is no longer admissible
            }
            tokens[ci] -= graph.channel(ci).consumption;
        }
        for (const ChannelId ci : outputs[a]) {
            tokens[ci] = checked_add(tokens[ci], graph.channel(ci).production);
        }
        ++fired[a];
    }
    // One full iteration returns every channel to its initial count and
    // fires each actor its repetition-vector count; checking the former
    // (plus every actor fired at least once when it appears) certifies the
    // latter without recomputing the vector.
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        if (tokens[c] != graph.channel(c).initial_tokens) {
            return false;
        }
    }
    for (ActorId a = 0; a < n; ++a) {
        if (fired[a] == 0 && schedule.size() >= n) {
            return false;
        }
    }
    return !schedule.empty() || n == 0;
}

std::vector<ActorId> SequentialScheduleAnalysis::compute(const Graph& graph) {
    return compute_sequential_schedule(graph);
}

Refined<std::vector<ActorId>> SequentialScheduleAnalysis::refine(
    const Result& old, const RefineContext& ctx) {
    using Out = Refined<Result>;
    if (ctx.log.timing_only()) {
        return Out::keep();
    }
    // Validation cost is O(firings); past this the certificate check would
    // rival recomputation, so fall back to the lazy path.
    constexpr std::size_t kMaxValidatedFirings = std::size_t{1} << 16;
    if (old.size() > kMaxValidatedFirings) {
        return Out::drop();
    }
    if (ctx.log.tokens_monotone(/*increase=*/true)) {
        return Out::keep();  // more tokens never disable a firing
    }
    return validate_schedule(ctx.graph, old) ? Out::keep() : Out::drop();
}

bool LivenessAnalysis::compute(const Graph& graph) {
    try {
        sequential_schedule(graph);
        return true;
    } catch (const DeadlockError&) {
        return false;
    } catch (const InconsistentGraphError&) {
        return false;
    }
}

Refined<bool> LivenessAnalysis::refine(const Result& old, const RefineContext& ctx) {
    using Out = Refined<Result>;
    if (ctx.log.timing_only()) {
        return Out::keep();  // timing is invisible to liveness
    }
    if (old && ctx.log.tokens_monotone(/*increase=*/true)) {
        return Out::keep();  // more tokens cannot introduce a deadlock
    }
    if (!old && ctx.log.tokens_monotone(/*increase=*/false)) {
        return Out::keep();  // fewer tokens cannot revive a dead graph
    }
    // Phase 1: a schedule the earlier phase kept for the new token
    // distribution is a liveness witness.
    if (ctx.target.cached<SequentialScheduleAnalysis>() != nullptr) {
        return old ? Out::keep() : Out::make(true);
    }
    return Out::drop();
}

std::vector<ActorId> sequential_schedule(const Graph& graph) {
    // Cached per graph in the AnalysisManager: the symbolic conversion,
    // deadlock checks and the mapping heuristics each need one admissible
    // order for the same structure.  Failures (deadlock, inconsistency)
    // re-throw each call.
    return *graph.analyses()->get<SequentialScheduleAnalysis>(graph);
}

bool is_deadlock_free(const Graph& graph) {
    return *graph.analyses()->get<LivenessAnalysis>(graph);
}

}  // namespace sdf
