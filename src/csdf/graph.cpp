#include "csdf/graph.hpp"

#include <numeric>

#include "base/errors.hpp"

namespace sdf {

Int CsdfChannel::production_per_cycle() const {
    Int total = 0;
    for (const Int p : production) {
        total = checked_add(total, p);
    }
    return total;
}

Int CsdfChannel::consumption_per_cycle() const {
    Int total = 0;
    for (const Int c : consumption) {
        total = checked_add(total, c);
    }
    return total;
}

CsdfActorId CsdfGraph::add_actor(const std::string& name, std::vector<Int> phase_times) {
    require(!name.empty(), "actor name must be non-empty");
    if (phase_times.empty()) {
        throw InvalidGraphError("actor '" + name + "' needs at least one phase");
    }
    for (const Int t : phase_times) {
        if (t < 0) {
            throw InvalidGraphError("actor '" + name + "' has a negative phase time");
        }
    }
    if (actor_by_name_.find(name) != actor_by_name_.end()) {
        throw InvalidGraphError("duplicate actor name '" + name + "'");
    }
    const CsdfActorId id = actors_.size();
    actors_.push_back(CsdfActor{name, std::move(phase_times)});
    actor_by_name_.emplace(name, id);
    return id;
}

CsdfChannelId CsdfGraph::add_channel(CsdfActorId src, CsdfActorId dst,
                                     std::vector<Int> production,
                                     std::vector<Int> consumption, Int initial_tokens) {
    require(src < actors_.size() && dst < actors_.size(),
            "channel endpoint out of range");
    require(production.size() == actors_[src].phase_count(),
            "production vector length must equal the source's phase count");
    require(consumption.size() == actors_[dst].phase_count(),
            "consumption vector length must equal the destination's phase count");
    require(initial_tokens >= 0, "channel initial tokens must be non-negative");
    const auto check_rates = [](const std::vector<Int>& rates, const char* kind) {
        Int total = 0;
        for (const Int r : rates) {
            if (r < 0) {
                throw InvalidGraphError(std::string(kind) + " rates must be non-negative");
            }
            total = checked_add(total, r);
        }
        if (total <= 0) {
            throw InvalidGraphError(std::string(kind) + " rates must not be all zero");
        }
    };
    check_rates(production, "production");
    check_rates(consumption, "consumption");
    const CsdfChannelId id = channels_.size();
    channels_.push_back(CsdfChannel{src, dst, std::move(production),
                                    std::move(consumption), initial_tokens});
    return id;
}

std::optional<CsdfActorId> CsdfGraph::find_actor(const std::string& name) const {
    const auto it = actor_by_name_.find(name);
    if (it == actor_by_name_.end()) {
        return std::nullopt;
    }
    return it->second;
}

Int CsdfGraph::total_initial_tokens() const {
    Int total = 0;
    for (const CsdfChannel& c : channels_) {
        total = checked_add(total, c.initial_tokens);
    }
    return total;
}

}  // namespace sdf
