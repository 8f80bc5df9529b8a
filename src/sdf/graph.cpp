#include "sdf/graph.hpp"

#include "base/errors.hpp"

namespace sdf {

void Graph::record_mutation(const MutationEvent& event) {
    // The retired manager keeps serving copies that still share it; the
    // fresh one starts from whatever the single-event delta lets survive.
    // refine_from never throws (a failing hook only drops its slot), so a
    // mutator can never leave the graph holding stale cached analyses.
    auto fresh = std::make_shared<AnalysisManager>();
    MutationLog delta;
    delta.push(event);
    fresh->refine_from(*analyses_, *this, delta);
    analyses_ = fresh;
}

void Graph::drop_analyses() {
    // A copy may still share the manager, and its results belong to the old
    // structure: leave them to the copy.  An unshared, empty manager already
    // is what a fresh one would be, so the parser and the conversions fill a
    // graph without allocating one manager per element.  Runs before the
    // change, so a failed allocation leaves the graph unchanged.
    if (analyses_.use_count() != 1 || !analyses_->empty()) {
        analyses_ = std::make_shared<AnalysisManager>();
    }
}

ActorId Graph::add_actor(const std::string& name, Int execution_time) {
    require(!name.empty(), "actor name must be non-empty");
    if (execution_time < 0) {
        throw InvalidGraphError("actor '" + name + "' has negative execution time");
    }
    if (actor_by_name_.find(name) != actor_by_name_.end()) {
        throw InvalidGraphError("duplicate actor name '" + name + "'");
    }
    drop_analyses();
    const ActorId id = actors_.size();
    actors_.push_back(Actor{name, execution_time});
    actor_by_name_.emplace(name, id);
    return id;
}

ChannelId Graph::add_channel(ActorId src, ActorId dst, Int production, Int consumption,
                             Int initial_tokens) {
    require(src < actors_.size() && dst < actors_.size(), "channel endpoint out of range");
    require(production > 0, "channel production rate must be positive");
    require(consumption > 0, "channel consumption rate must be positive");
    require(initial_tokens >= 0, "channel initial tokens must be non-negative");
    drop_analyses();
    const ChannelId id = channels_.size();
    channels_.push_back(Channel{src, dst, production, consumption, initial_tokens});
    return id;
}

bool Graph::set_execution_time(ActorId id, Int execution_time) {
    require(id < actors_.size(), "actor id out of range");
    require(execution_time >= 0, "negative execution time");
    if (actors_[id].execution_time == execution_time) {
        return false;  // no-op edit: nothing changed, the whole cache stands
    }
    MutationEvent event;
    event.kind = MutationKind::execution_time;
    event.id = id;
    event.old_a = actors_[id].execution_time;
    event.new_a = execution_time;
    actors_[id].execution_time = execution_time;
    record_mutation(event);
    return true;
}

bool Graph::set_initial_tokens(ChannelId id, Int initial_tokens) {
    require(id < channels_.size(), "channel id out of range");
    require(initial_tokens >= 0, "negative initial tokens");
    if (channels_[id].initial_tokens == initial_tokens) {
        return false;  // no-op edit
    }
    MutationEvent event;
    event.kind = MutationKind::initial_tokens;
    event.id = id;
    event.old_a = channels_[id].initial_tokens;
    event.new_a = initial_tokens;
    channels_[id].initial_tokens = initial_tokens;
    record_mutation(event);
    return true;
}

bool Graph::set_rates(ChannelId id, Int production, Int consumption) {
    require(id < channels_.size(), "channel id out of range");
    require(production > 0, "channel production rate must be positive");
    require(consumption > 0, "channel consumption rate must be positive");
    Channel& channel = channels_[id];
    if (channel.production == production && channel.consumption == consumption) {
        return false;  // no-op edit
    }
    drop_analyses();
    channel.production = production;
    channel.consumption = consumption;
    return true;
}

std::optional<ActorId> Graph::find_actor(const std::string& name) const {
    const auto it = actor_by_name_.find(name);
    if (it == actor_by_name_.end()) {
        return std::nullopt;
    }
    return it->second;
}

std::vector<ChannelId> Graph::in_channels(ActorId id) const {
    std::vector<ChannelId> result;
    for (ChannelId c = 0; c < channels_.size(); ++c) {
        if (channels_[c].dst == id) {
            result.push_back(c);
        }
    }
    return result;
}

std::vector<ChannelId> Graph::out_channels(ActorId id) const {
    std::vector<ChannelId> result;
    for (ChannelId c = 0; c < channels_.size(); ++c) {
        if (channels_[c].src == id) {
            result.push_back(c);
        }
    }
    return result;
}

Int Graph::total_initial_tokens() const {
    Int total = 0;
    for (const Channel& c : channels_) {
        total = checked_add(total, c.initial_tokens);
    }
    return total;
}

bool Graph::is_homogeneous() const {
    for (const Channel& c : channels_) {
        if (!c.is_homogeneous()) {
            return false;
        }
    }
    return true;
}

}  // namespace sdf
