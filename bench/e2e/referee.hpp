// referee.hpp — the bench's own check of a reported iteration period.
//
// No library solver decides whether an answer is right.  A claimed period
// λ = p/q of an SDF graph holds exactly when, on the dependency digraph of
// its classic HSDF (one node per firing, edge weight q·T(src) − p·tokens),
//
//   * no cycle has positive weight  (λ is at least every cycle ratio), and
//   * some cycle has weight zero    (λ is attained by a critical cycle).
//
// The first is a longest-path Bellman–Ford that must converge; the second
// is a cycle among the edges that its potentials leave tight.
#pragma once

#include <string>

#include "base/rational.hpp"
#include "common.hpp"
#include "sdf/graph.hpp"

namespace e2e {

/// True when `period` is the iteration period of `graph`; otherwise false
/// with the reason in `why`.
bool period_holds(const sdf::Graph& graph, const sdf::Rational& period,
                  std::string& why);

/// Parses "p" or "p/q" (as Rational::to_string prints it).  Throws
/// sdf::ParseError on anything else.
sdf::Rational parse_rational(const std::string& text);

/// Records a failure unless the referee confirms `period` for `graph`.
void check_period(const sdf::Graph& graph, const std::string& period,
                  const std::string& label, Failures& failures);

/// Referee-checks every expected period of expected/table1.txt, so no
/// answer is compared against an unverified number.
void check_table1(const Context& ctx, Failures& failures);

}  // namespace e2e
