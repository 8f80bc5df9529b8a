// graph.hpp — the timed SDF graph model (Definitions 1 and 2 of the paper).
//
// An SDF graph is a set of actors and a set of dependency channels
// (a, b, p, c, d): actor b depends on actor a, a produces p tokens per
// firing, b consumes c tokens per firing, and the channel initially holds
// d tokens.  Channels are unbounded FIFOs.  A timed graph additionally maps
// every actor to a natural execution time (Definition 2's T).
//
// Actors and channels are referenced by dense indices (ActorId, ChannelId);
// names are unique and exist for I/O, diagnostics and the name-based
// abstraction heuristics.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/checked.hpp"
#include "sdf/analysis_manager.hpp"
#include "sdf/mutation.hpp"

namespace sdf {

/// One actor of a timed SDF graph.
struct Actor {
    std::string name;
    Int execution_time = 0;  ///< time between consuming inputs and producing outputs
};

/// One dependency channel (a, b, p, c, d) of Definition 1.
struct Channel {
    ActorId src = 0;           ///< the producing actor a
    ActorId dst = 0;           ///< the consuming actor b
    Int production = 1;        ///< tokens produced per firing of src (p)
    Int consumption = 1;       ///< tokens consumed per firing of dst (c)
    Int initial_tokens = 0;    ///< initial delay d

    [[nodiscard]] bool is_self_loop() const { return src == dst; }
    [[nodiscard]] bool is_homogeneous() const { return production == 1 && consumption == 1; }
};

/// A timed SDF graph.  Structure is validated on construction: rates must be
/// positive, delays non-negative, names unique and endpoints valid.
class Graph {
public:
    Graph() = default;
    explicit Graph(std::string name) : name_(std::move(name)) {}

    [[nodiscard]] const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    /// Adds an actor; the name must be unique and non-empty, the execution
    /// time non-negative.  Returns its id.  Like add_channel, this is a
    /// structural change: no cached result survives it (see analyses()).
    /// The name is hashed once; when the call throws (a duplicate name, an
    /// invalid time, a failed allocation) the graph is left as it was.
    ActorId add_actor(std::string name, Int execution_time = 0);

    /// Adds a channel (src, dst, p, c, d); rates must be positive and the
    /// delay non-negative.  Returns its id.
    ChannelId add_channel(ActorId src, ActorId dst, Int production, Int consumption,
                          Int initial_tokens);

    /// Convenience for homogeneous channels (p = c = 1).
    ChannelId add_channel(ActorId src, ActorId dst, Int initial_tokens = 0) {
        return add_channel(src, dst, 1, 1, initial_tokens);
    }

    /// Makes room for this many actors and channels in total, so a builder
    /// that knows the final size grows each array and the name index once.
    void reserve(std::size_t actors, std::size_t channels);

    [[nodiscard]] std::size_t actor_count() const { return actors_.size(); }
    [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }

    [[nodiscard]] const Actor& actor(ActorId id) const { return actors_.at(id); }
    [[nodiscard]] const Channel& channel(ChannelId id) const { return channels_.at(id); }
    [[nodiscard]] const std::vector<Actor>& actors() const { return actors_; }
    [[nodiscard]] const std::vector<Channel>& channels() const { return channels_; }

    /// Updates an actor's execution time (used by abstraction & generators).
    /// Returns true when the value changed; a no-op edit records nothing and
    /// keeps the cache whole.
    bool set_execution_time(ActorId id, Int execution_time);

    /// Replaces a channel's initial-token count (used by buffer modelling).
    /// Returns true when the value changed; a no-op edit records nothing.
    bool set_initial_tokens(ChannelId id, Int initial_tokens);

    /// Replaces a channel's production/consumption rates (both positive).
    /// Returns true when the rates changed.  A rate edit changes the
    /// iteration itself, so like add_channel it drops every result; a
    /// no-op edit keeps the cache whole.
    bool set_rates(ChannelId id, Int production, Int consumption);

    /// Id of the actor with this exact name, if any.  The lookup builds no
    /// std::string, so a parser can look up a field of its input in place.
    [[nodiscard]] std::optional<ActorId> find_actor(std::string_view name) const;

    /// Channel ids entering / leaving an actor, in channel-id order.
    [[nodiscard]] std::vector<ChannelId> in_channels(ActorId id) const;
    [[nodiscard]] std::vector<ChannelId> out_channels(ActorId id) const;

    /// Total number of initial tokens across all channels.
    [[nodiscard]] Int total_initial_tokens() const;

    /// True when every channel has production and consumption rate 1
    /// (the graph is a homogeneous SDF graph).
    [[nodiscard]] bool is_homogeneous() const;

    /// This graph's analysis cache (see sdf/analysis_manager.hpp).  Copies
    /// of a graph share the manager until either copy mutates, and results
    /// cached for the old graph stay with the old graph:
    ///   * a timing or token edit (set_execution_time, set_initial_tokens)
    ///     swaps in a fresh manager refined from the old one through the
    ///     recorded delta, so everything the edit cannot move stays with
    ///     this graph;
    ///   * a rate edit (set_rates) or a structural edit (add_*) drops every
    ///     result.  It swaps in a fresh, empty manager only when the current
    ///     one is shared or holds a result, so building a graph allocates
    ///     one manager, not one per element.
    [[nodiscard]] const std::shared_ptr<AnalysisManager>& analyses() const {
        return analyses_;
    }

private:
    /// Called by the timing and token setters AFTER applying the edit: swaps
    /// in a fresh manager refined from the old one through the single-event
    /// delta.  Never throws.
    void record_mutation(const MutationEvent& event);

    /// Called by add_actor/add_channel/set_rates: makes sure this graph's
    /// manager is its own and holds no result.
    void drop_analyses();

    /// Hashes std::string keys and std::string_view probes alike, so that
    /// find_actor looks a view up without copying it (is_transparent).
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view name) const noexcept {
            return std::hash<std::string_view>{}(name);
        }
    };

    std::string name_;
    std::vector<Actor> actors_;
    std::vector<Channel> channels_;
    std::unordered_map<std::string, ActorId, NameHash, std::equal_to<>> actor_by_name_;
    std::shared_ptr<AnalysisManager> analyses_ = std::make_shared<AnalysisManager>();
};

}  // namespace sdf
