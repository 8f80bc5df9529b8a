#include "sdf/graph.hpp"

#include "base/errors.hpp"

namespace sdf {

void Graph::drop_analyses() {
    // A copy may still share the manager, and its results belong to the old
    // structure: leave them to the copy.  An unshared, empty manager already
    // is what a fresh one would be, so the parser and the conversions fill a
    // graph without allocating one manager per element.  A failed
    // allocation leaves the manager in place: add_channel and set_rates run
    // this before their change, add_actor undoes its change.
    if (analyses_.use_count() != 1 || !analyses_->empty()) {
        analyses_ = std::make_shared<AnalysisManager>();
    }
}

ActorId Graph::add_actor(std::string name, Int execution_time) {
    require(!name.empty(), "actor name must be non-empty");
    if (execution_time < 0) {
        throw InvalidGraphError("actor '" + name + "' has negative execution time");
    }
    // The insertion is the duplicate check, so the name is hashed once.
    // Each later step that can throw undoes the ones before it.
    const ActorId id = actors_.size();
    const auto [slot, inserted] = actor_by_name_.try_emplace(name, id);
    if (!inserted) {
        throw InvalidGraphError("duplicate actor name '" + name + "'");
    }
    try {
        actors_.push_back(Actor{std::move(name), execution_time});
        drop_analyses();
    } catch (...) {
        if (actors_.size() > id) {
            actors_.pop_back();
        }
        actor_by_name_.erase(slot);
        throw;
    }
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

void Graph::reserve(std::size_t actors, std::size_t channels) {
    actors_.reserve(actors);
    actor_by_name_.reserve(actors);
    channels_.reserve(channels);
}

std::size_t Graph::apply_edits(std::span<const ValueEdit> edits) {
    for (const ValueEdit& e : edits) {
        if (e.kind == MutationKind::execution_time) {
            require(e.id < actors_.size(), "actor id out of range");
            require(e.value >= 0, "negative execution time");
        } else {
            require(e.id < channels_.size(), "channel id out of range");
            require(e.value >= 0, "negative initial tokens");
        }
    }
    const auto field = [this](MutationKind kind, std::size_t id) -> Int& {
        return kind == MutationKind::execution_time ? actors_[id].execution_time
                                                    : channels_[id].initial_tokens;
    };
    // The retired manager keeps serving copies that still share it; the
    // fresh one starts from whatever the delta lets survive.  refine_from
    // never throws (a failing hook only drops its slot); if recording or
    // the allocation throws, the values are put back, so the graph never
    // holds an edit its manager has not seen.
    MutationLog log;
    try {
        for (const ValueEdit& e : edits) {
            Int& value = field(e.kind, e.id);
            if (value == e.value) {
                continue;  // no-op edit: nothing to record
            }
            log.push(MutationEvent{e.kind, e.id, value, e.value});
            value = e.value;
        }
        if (log.empty()) {
            return 0;
        }
        auto fresh = std::make_shared<AnalysisManager>();
        fresh->refine_from(*analyses_, *this, log);
        analyses_ = std::move(fresh);
    } catch (...) {
        for (auto it = log.events().rbegin(); it != log.events().rend(); ++it) {
            field(it->kind, it->id) = it->old_a;
        }
        throw;
    }
    return log.size();
}

bool Graph::set_execution_time(ActorId id, Int execution_time) {
    const ValueEdit edit{MutationKind::execution_time, id, execution_time};
    return apply_edits({&edit, 1}) != 0;
}

bool Graph::set_initial_tokens(ChannelId id, Int initial_tokens) {
    const ValueEdit edit{MutationKind::initial_tokens, id, initial_tokens};
    return apply_edits({&edit, 1}) != 0;
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

std::optional<ActorId> Graph::find_actor(std::string_view name) const {
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
