// digraph.hpp — a small generic directed multigraph with the graph
// algorithms the analyses need: Tarjan strongly-connected components,
// topological sorting and cycle detection.
//
// Nodes are dense indices 0..node_count-1.  Every edge carries two int64
// payloads, `weight` and `tokens`; algorithms that do not need them ignore
// them.  This is deliberately untyped glue: the typed models live in
// sdf::Graph (SDF graphs) and sdf::MpMatrix (max-plus matrices), both of
// which lower onto this structure for the combinatorial work.
#pragma once

#include <cstddef>
#include <vector>

#include "base/checked.hpp"

namespace sdf {

/// One directed edge of a Digraph.
struct DigraphEdge {
    std::size_t from = 0;
    std::size_t to = 0;
    Int weight = 0;  ///< e.g. execution time along the edge
    Int tokens = 0;  ///< e.g. initial tokens (delay) on the edge

    friend bool operator==(const DigraphEdge&, const DigraphEdge&) = default;
};

/// Directed multigraph over dense node indices with int64 edge payloads.
class Digraph {
public:
    Digraph() = default;
    explicit Digraph(std::size_t node_count) : node_count_(node_count) {}

    [[nodiscard]] std::size_t node_count() const { return node_count_; }
    [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
    [[nodiscard]] const std::vector<DigraphEdge>& edges() const { return edges_; }
    [[nodiscard]] const DigraphEdge& edge(std::size_t index) const { return edges_[index]; }

    /// Appends a node and returns its index.
    std::size_t add_node() { return node_count_++; }

    /// Appends an edge; both endpoints must already exist.
    std::size_t add_edge(std::size_t from, std::size_t to, Int weight = 0, Int tokens = 0);

    /// Outgoing edge indices per node (built lazily by callers that need it).
    [[nodiscard]] std::vector<std::vector<std::size_t>> out_edges() const;

    /// Tarjan SCC.  Returns the component index of every node; components
    /// are numbered in reverse topological order (an edge between distinct
    /// components goes from a higher to a lower component index).
    [[nodiscard]] std::vector<std::size_t> strongly_connected_components(
        std::size_t* component_count = nullptr) const;

    /// True when the graph contains at least one directed cycle
    /// (self-loops count).
    [[nodiscard]] bool has_cycle() const;

    /// Topological order of the nodes; throws InvalidGraphError when the
    /// graph has a cycle.
    [[nodiscard]] std::vector<std::size_t> topological_order() const;

private:
    std::size_t node_count_ = 0;
    std::vector<DigraphEdge> edges_;
};

}  // namespace sdf
