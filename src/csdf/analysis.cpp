#include "csdf/analysis.hpp"

#include <deque>

#include "base/errors.hpp"
#include "maxplus/mcm.hpp"
#include "robust/budget.hpp"
#include "sdf/repetition.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/token_game.hpp"

namespace sdf {

namespace {

/// Surrogate SDF graph with the aggregate (per-cycle) rates: its
/// repetition vector is exactly the CSDF cycle-count vector q'.
Graph aggregate_sdf(const CsdfGraph& graph) {
    Graph surrogate(graph.name());
    for (const CsdfActor& a : graph.actors()) {
        surrogate.add_actor(a.name, 0);
    }
    for (const CsdfChannel& c : graph.channels()) {
        surrogate.add_channel(c.src, c.dst, c.production_per_cycle(),
                              c.consumption_per_cycle(), c.initial_tokens);
    }
    return surrogate;
}

}  // namespace

std::vector<Int> csdf_repetition(const CsdfGraph& graph) {
    return repetition_vector(aggregate_sdf(graph));
}

bool csdf_is_consistent(const CsdfGraph& graph) {
    return is_consistent(aggregate_sdf(graph));
}

std::vector<CsdfFiring> csdf_sequential_schedule(const CsdfGraph& graph) {
    const std::vector<Int> cycles = csdf_repetition(graph);
    const std::size_t n = graph.actor_count();

    const Adjacency adj = build_adjacency(graph);
    std::vector<Int> tokens;
    tokens.reserve(graph.channel_count());
    for (const CsdfChannel& c : graph.channels()) {
        tokens.push_back(c.initial_tokens);
    }
    std::vector<Int> phase(n, 0);      // next phase per actor
    std::vector<Int> remaining(n, 0);  // phase firings still due
    Int total_remaining = 0;
    for (CsdfActorId a = 0; a < n; ++a) {
        remaining[a] =
            checked_mul(cycles[a], static_cast<Int>(graph.actor(a).phase_count()));
        total_remaining = checked_add(total_remaining, remaining[a]);
    }

    const auto enabled = [&](CsdfActorId a) {
        for (const CsdfChannelId ci : adj.inputs[a]) {
            const Int need =
                graph.channel(ci).consumption[static_cast<std::size_t>(phase[a])];
            if (tokens[ci] < need) {
                return false;
            }
        }
        return true;
    };

    std::vector<CsdfFiring> schedule;
    robust_account_bytes(static_cast<std::size_t>(total_remaining) * sizeof(CsdfFiring));
    schedule.reserve(static_cast<std::size_t>(total_remaining));
    std::deque<CsdfActorId> worklist;
    std::vector<bool> queued(n, false);
    for (CsdfActorId a = 0; a < n; ++a) {
        worklist.push_back(a);
        queued[a] = true;
    }
    while (!worklist.empty()) {
        const CsdfActorId a = worklist.front();
        worklist.pop_front();
        queued[a] = false;
        while (remaining[a] > 0 && enabled(a)) {
            SDFRED_CHECKPOINT();
            const auto p = static_cast<std::size_t>(phase[a]);
            for (const CsdfChannelId ci : adj.inputs[a]) {
                tokens[ci] -= graph.channel(ci).consumption[p];
            }
            for (const CsdfChannelId ci : adj.outputs[a]) {
                tokens[ci] = checked_add(tokens[ci], graph.channel(ci).production[p]);
            }
            schedule.push_back(CsdfFiring{a, phase[a]});
            phase[a] = (phase[a] + 1) % static_cast<Int>(graph.actor(a).phase_count());
            --remaining[a];
            --total_remaining;
            for (const CsdfChannelId ci : adj.outputs[a]) {
                const CsdfActorId consumer = graph.channel(ci).dst;
                if (!queued[consumer] && remaining[consumer] > 0) {
                    worklist.push_back(consumer);
                    queued[consumer] = true;
                }
            }
        }
    }
    if (total_remaining != 0) {
        throw DeadlockError("CSDF graph '" + graph.name() +
                            "' deadlocks: no admissible sequential schedule");
    }
    return schedule;
}

bool csdf_is_live(const CsdfGraph& graph) {
    try {
        csdf_sequential_schedule(graph);
        return true;
    } catch (const DeadlockError&) {
        return false;
    } catch (const InconsistentGraphError&) {
        return false;
    }
}

CsdfSymbolicIteration csdf_symbolic_iteration(const CsdfGraph& graph) {
    const std::vector<CsdfFiring> schedule = csdf_sequential_schedule(graph);
    const auto columns = play_token_game<MpStamp>(
        graph, schedule, [&](std::size_t i, const std::vector<MpStamp>& consumed) {
            const CsdfFiring& f = schedule[i];
            return MpStamp::max_of(consumed).plus(
                graph.actor(f.actor).phase_times[static_cast<std::size_t>(f.phase)]);
        });
    if (!columns) {
        throw Error("internal: CSDF schedule does not fit one iteration");
    }
    CsdfSymbolicIteration result;
    result.matrix = MpSparseMatrix(*columns);
    result.token_count = static_cast<Int>(columns->size());
    return result;
}

CsdfThroughput csdf_throughput(const CsdfGraph& graph) {
    CsdfThroughput result;
    CsdfSymbolicIteration iteration;
    try {
        iteration = csdf_symbolic_iteration(graph);
    } catch (const DeadlockError&) {
        result.deadlocked = true;
        result.per_actor.assign(graph.actor_count(), Rational(0));
        return result;
    }
    const CycleMetric metric = max_cycle_mean(iteration.matrix.precedence_graph());
    if (metric.outcome != CycleOutcome::finite || metric.value.is_zero()) {
        result.unbounded = true;
        return result;
    }
    result.period = metric.value;
    const std::vector<Int> cycles = csdf_repetition(graph);
    result.per_actor.reserve(cycles.size());
    for (const Int q : cycles) {
        result.per_actor.push_back(Rational(q) / result.period);
    }
    return result;
}

Graph csdf_to_reduced_hsdf(const CsdfGraph& graph) {
    const CsdfSymbolicIteration iteration = csdf_symbolic_iteration(graph);
    return reduced_hsdf_from_matrix(iteration.matrix, graph.name() + "_rhsdf");
}

CsdfGraph csdf_with_buffer_capacity(const CsdfGraph& graph, CsdfChannelId channel,
                                    Int capacity) {
    require(channel < graph.channel_count(), "channel id out of range");
    const CsdfChannel& ch = graph.channel(channel);
    require(ch.src != ch.dst, "buffer capacity on a self-loop channel");
    require(capacity >= ch.initial_tokens,
            "capacity smaller than the channel's initial token count");
    CsdfGraph result = graph;
    // Reverse channel: the consumer's phases RELEASE what they consumed,
    // the producer's phases CLAIM what they produce.
    result.add_channel(ch.dst, ch.src, ch.consumption, ch.production,
                       checked_sub(capacity, ch.initial_tokens));
    return result;
}

CsdfGraph csdf_from_sdf(const Graph& graph) {
    CsdfGraph result(graph.name());
    for (const Actor& a : graph.actors()) {
        result.add_actor(a.name, {a.execution_time});
    }
    for (const Channel& c : graph.channels()) {
        result.add_channel(c.src, c.dst, {c.production}, {c.consumption},
                           c.initial_tokens);
    }
    return result;
}

}  // namespace sdf
