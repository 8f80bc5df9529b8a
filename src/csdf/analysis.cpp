#include "csdf/analysis.hpp"

#include <deque>

#include "base/errors.hpp"
#include "maxplus/mcm.hpp"
#include "maxplus/vector.hpp"
#include "sdf/repetition.hpp"
#include "transform/hsdf_reduced.hpp"

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

    std::vector<std::vector<CsdfChannelId>> inputs(n);
    std::vector<std::vector<CsdfChannelId>> outputs(n);
    for (CsdfChannelId c = 0; c < graph.channel_count(); ++c) {
        inputs[graph.channel(c).dst].push_back(c);
        outputs[graph.channel(c).src].push_back(c);
    }

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
        for (const CsdfChannelId ci : inputs[a]) {
            const Int need =
                graph.channel(ci).consumption[static_cast<std::size_t>(phase[a])];
            if (tokens[ci] < need) {
                return false;
            }
        }
        return true;
    };

    std::vector<CsdfFiring> schedule;
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
            const auto p = static_cast<std::size_t>(phase[a]);
            for (const CsdfChannelId ci : inputs[a]) {
                tokens[ci] -= graph.channel(ci).consumption[p];
            }
            for (const CsdfChannelId ci : outputs[a]) {
                tokens[ci] = checked_add(tokens[ci], graph.channel(ci).production[p]);
            }
            schedule.push_back(CsdfFiring{a, phase[a]});
            phase[a] = (phase[a] + 1) % static_cast<Int>(graph.actor(a).phase_count());
            --remaining[a];
            --total_remaining;
            for (const CsdfChannelId ci : outputs[a]) {
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
    const Int token_count = graph.total_initial_tokens();
    const auto n = static_cast<std::size_t>(token_count);

    std::vector<std::deque<MpVector>> fifo(graph.channel_count());
    {
        std::size_t global = 0;
        for (CsdfChannelId c = 0; c < graph.channel_count(); ++c) {
            for (Int i = 0; i < graph.channel(c).initial_tokens; ++i) {
                fifo[c].push_back(MpVector::unit(n, global++));
            }
        }
    }
    std::vector<std::vector<CsdfChannelId>> inputs(graph.actor_count());
    std::vector<std::vector<CsdfChannelId>> outputs(graph.actor_count());
    for (CsdfChannelId c = 0; c < graph.channel_count(); ++c) {
        inputs[graph.channel(c).dst].push_back(c);
        outputs[graph.channel(c).src].push_back(c);
    }

    for (const CsdfFiring& firing : schedule) {
        const auto p = static_cast<std::size_t>(firing.phase);
        MpVector start(n);
        for (const CsdfChannelId ci : inputs[firing.actor]) {
            const Int need = graph.channel(ci).consumption[p];
            for (Int i = 0; i < need; ++i) {
                if (fifo[ci].empty()) {
                    throw Error("internal: CSDF schedule underflowed a channel");
                }
                start = start.max_with(fifo[ci].front());
                fifo[ci].pop_front();
            }
        }
        const MpVector finish = start.plus(graph.actor(firing.actor).phase_times[p]);
        for (const CsdfChannelId ci : outputs[firing.actor]) {
            for (Int i = 0; i < graph.channel(ci).production[p]; ++i) {
                fifo[ci].push_back(finish);
            }
        }
    }

    CsdfSymbolicIteration result;
    result.token_count = token_count;
    result.matrix = MpMatrix(n, n);
    {
        std::size_t global = 0;
        for (CsdfChannelId c = 0; c < graph.channel_count(); ++c) {
            const Int expected = graph.channel(c).initial_tokens;
            if (static_cast<Int>(fifo[c].size()) != expected) {
                throw Error("internal: CSDF channel token count changed");
            }
            for (Int i = 0; i < expected; ++i) {
                result.matrix.set_column(global++, fifo[c][static_cast<std::size_t>(i)]);
            }
        }
    }
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
