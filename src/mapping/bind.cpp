#include "mapping/bind.hpp"

#include <algorithm>
#include <numeric>

#include "base/errors.hpp"
#include "sdf/schedule.hpp"

namespace sdf {

void validate_mapping(const Graph& graph, const Mapping& mapping) {
    require(mapping.processor_count > 0, "mapping needs at least one processor");
    require(mapping.processor_of.size() == graph.actor_count(),
            "mapping must assign every actor");
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        if (mapping.processor_of[a] >= mapping.processor_count) {
            throw InvalidGraphError("actor '" + graph.actor(a).name +
                                    "' mapped to an unknown processor");
        }
    }
}

StaticOrder default_static_order(const Graph& graph, const Mapping& mapping) {
    validate_mapping(graph, mapping);
    require(graph.is_homogeneous(), "static orders are defined on homogeneous graphs");
    StaticOrder result;
    result.order.resize(mapping.processor_count);
    // A PASS visits each actor exactly once (HSDF); its projection onto a
    // processor is consistent with every data dependency.
    for (const ActorId a : sequential_schedule(graph)) {
        result.order[mapping.processor_of[a]].push_back(a);
    }
    return result;
}

Graph bind(const Graph& graph, const Mapping& mapping, const StaticOrder& order) {
    validate_mapping(graph, mapping);
    require(graph.is_homogeneous(), "bind is defined on homogeneous graphs");
    require(order.order.size() == mapping.processor_count,
            "static order must cover every processor");
    // Every actor exactly once, on its own processor.
    std::vector<bool> seen(graph.actor_count(), false);
    for (std::size_t p = 0; p < order.order.size(); ++p) {
        for (const ActorId a : order.order[p]) {
            require(a < graph.actor_count(), "static order names an unknown actor");
            if (mapping.processor_of[a] != p) {
                throw InvalidGraphError("actor '" + graph.actor(a).name +
                                        "' ordered on the wrong processor");
            }
            if (seen[a]) {
                throw InvalidGraphError("actor '" + graph.actor(a).name +
                                        "' ordered twice");
            }
            seen[a] = true;
        }
    }
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        if (!seen[a]) {
            throw InvalidGraphError("actor '" + graph.actor(a).name +
                                    "' missing from the order");
        }
    }

    Graph bound = graph;
    bound.set_name(graph.name() + "_bound");
    for (const std::vector<ActorId>& processor_order : order.order) {
        if (processor_order.empty()) {
            continue;
        }
        for (std::size_t i = 0; i + 1 < processor_order.size(); ++i) {
            bound.add_channel(processor_order[i], processor_order[i + 1], 0);
        }
        // Availability token: the processor frees up after its last actor.
        bound.add_channel(processor_order.back(), processor_order.front(), 1);
    }
    return bound;
}

Graph bind(const Graph& graph, const Mapping& mapping) {
    return bind(graph, mapping, default_static_order(graph, mapping));
}

Mapping balance_load(const Graph& graph, std::size_t processor_count) {
    require(processor_count > 0, "need at least one processor");
    Mapping mapping;
    mapping.processor_count = processor_count;
    mapping.processor_of.assign(graph.actor_count(), 0);

    std::vector<ActorId> by_time(graph.actor_count());
    std::iota(by_time.begin(), by_time.end(), ActorId{0});
    std::sort(by_time.begin(), by_time.end(), [&](ActorId a, ActorId b) {
        return graph.actor(a).execution_time > graph.actor(b).execution_time;
    });
    std::vector<Int> load(processor_count, 0);
    for (const ActorId a : by_time) {
        const auto lightest = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        mapping.processor_of[a] = lightest;
        load[lightest] = checked_add(load[lightest], graph.actor(a).execution_time);
    }
    return mapping;
}

}  // namespace sdf
