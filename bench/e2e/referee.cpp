#include "referee.hpp"

#include <optional>
#include <vector>

#include "base/errors.hpp"
#include "base/string_util.hpp"
#include "io/xml.hpp"
#include "transform/hsdf_classic.hpp"

namespace e2e {

namespace {

// Path sums of q·T − p·d over thousands of firings can leave int64 range.
__extension__ using Wide = __int128;

struct Edge {
    std::size_t from = 0;
    std::size_t to = 0;
    Wide weight = 0;
    bool delayed = false;
};

/// Kahn's algorithm over the edges `keep` selects; the returned order is
/// shorter than `n` exactly when those edges contain a cycle.
template <typename Keep>
std::vector<std::size_t> acyclic_order(std::size_t n, const std::vector<Edge>& edges,
                                       Keep keep) {
    std::vector<std::vector<std::size_t>> out(n);
    std::vector<std::size_t> indegree(n, 0);
    for (const Edge& e : edges) {
        if (keep(e)) {
            out[e.from].push_back(e.to);
            ++indegree[e.to];
        }
    }
    std::vector<std::size_t> order;
    for (std::size_t v = 0; v < n; ++v) {
        if (indegree[v] == 0) order.push_back(v);
    }
    for (std::size_t i = 0; i < order.size(); ++i) {
        for (const std::size_t v : out[order[i]]) {
            if (--indegree[v] == 0) order.push_back(v);
        }
    }
    return order;
}

}  // namespace

bool period_holds(const sdf::Graph& graph, const sdf::Rational& period,
                  std::string& why) {
    const sdf::Graph hsdf = sdf::to_hsdf_classic(graph).graph;
    const std::size_t n = hsdf.actor_count();
    std::vector<Edge> edges;
    edges.reserve(hsdf.channel_count());
    for (const sdf::Channel& c : hsdf.channels()) {
        const Wide weight =
            Wide(period.den()) * hsdf.actor(c.src).execution_time -
            Wide(period.num()) * c.initial_tokens;
        edges.push_back({c.src, c.dst, weight, c.initial_tokens > 0});
    }
    const std::vector<std::size_t> order =
        acyclic_order(n, edges, [](const Edge& e) { return !e.delayed; });
    if (order.size() < n) {
        why = "zero-token cycle (deadlock)";
        return false;
    }
    std::vector<std::vector<const Edge*>> undelayed_out(n);
    for (const Edge& e : edges) {
        if (!e.delayed) undelayed_out[e.from].push_back(&e);
    }
    // Longest paths: each round settles the zero-delay DAG in topological
    // order, then crosses every delayed edge once.  Without a positive
    // cycle, a round adds at least one delayed edge to every improving
    // path, so n + 1 rounds suffice.
    std::vector<Wide> potential(n, 0);
    bool changed = true;
    for (std::size_t round = 0; changed && round <= n + 1; ++round) {
        changed = false;
        const auto relax = [&](const Edge& e) {
            if (potential[e.from] + e.weight > potential[e.to]) {
                potential[e.to] = potential[e.from] + e.weight;
                changed = true;
            }
        };
        for (const std::size_t u : order) {
            for (const Edge* e : undelayed_out[u]) relax(*e);
        }
        for (const Edge& e : edges) {
            if (e.delayed) relax(e);
        }
    }
    if (changed) {
        why = "a cycle ratio exceeds " + period.to_string();
        return false;
    }
    const std::vector<std::size_t> tight = acyclic_order(n, edges, [&](const Edge& e) {
        return potential[e.from] + e.weight == potential[e.to];
    });
    if (tight.size() == n) {
        why = "no cycle attains " + period.to_string();
        return false;
    }
    return true;
}

sdf::Rational parse_rational(const std::string& text) {
    const std::size_t slash = text.find('/');
    const auto num = sdf::parse_int(text.substr(0, slash));
    const auto den = slash == std::string::npos
                         ? std::optional<sdf::Int>(1)
                         : sdf::parse_int(text.substr(slash + 1));
    if (!num || !den || *den <= 0) {
        throw sdf::ParseError("not a rational: \"" + text + "\"");
    }
    return sdf::Rational(*num, *den);
}

void check_period(const sdf::Graph& graph, const std::string& period,
                  const std::string& label, Failures& failures) {
    std::string why;
    try {
        if (period_holds(graph, parse_rational(period), why)) return;
    } catch (const std::exception& e) {
        why = e.what();
    }
    failures.add(label + ": period " + period + " rejected by the referee (" + why + ")");
}

void check_table1(const Context& ctx, Failures& failures) {
    for (const Table1Model& model : ctx.table1) {
        check_period(sdf::read_xml_file(ctx.data_file(model.file)), model.period,
                     "expected/" + model.file, failures);
    }
}

}  // namespace e2e
