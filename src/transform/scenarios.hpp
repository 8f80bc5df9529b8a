// scenarios.hpp — worst-case analysis over dataflow scenarios.
//
// The paper's symbolic machinery is the foundation of scenario-aware
// dataflow (Geilen, "Synchronous dataflow scenarios", cited as [7]): an
// application switches between modes — e.g. I-frames vs. P-frames of a
// decoder — and each mode is an SDF graph over the SAME initial tokens with
// its own iteration matrix G_s.  Executing the scenario sequence s1 s2 ...
// composes the matrices, and the worst-case throughput over ARBITRARY
// scenario orders is governed by
//
//     λ_wc = max over cycles that may mix edges of all G_s
//          = maximum cycle mean of the union precedence graph,
//
// because any such cycle can be realised by scheduling the scenario that
// contributes each edge (arbitrary switching), and no product of the
// matrices can grow faster.  This module builds per-scenario matrices,
// their union graph and the worst/best-case periods, plus a reduced HSDF
// whose single graph conservatively models all scenarios at once (the
// union matrix is entry-wise max, i.e. a Proposition 1 style bound).
#pragma once

#include <string>
#include <vector>

#include "base/rational.hpp"
#include "maxplus/sparse_matrix.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// One scenario: a name plus its timed SDF graph.  All scenario graphs of
/// one analysis must agree on the number of initial tokens (they describe
/// the same buffers in different modes).
struct Scenario {
    std::string name;
    Graph graph;
};

/// Result of a scenario analysis.
struct ScenarioAnalysis {
    std::vector<std::string> names;        ///< scenario names, analysis order
    std::vector<MpSparseMatrix> matrices;  ///< per-scenario iteration matrices
    std::vector<Rational> periods;         ///< per-scenario standalone periods
    Rational worst_case_period;            ///< over arbitrary scenario sequences
    MpSparseMatrix envelope;               ///< entry-wise max of all matrices
};

/// Analyses a non-empty scenario set.  Every scenario graph must be
/// consistent, deadlock-free, expose the same initial-token count, and have
/// a finite positive standalone period; otherwise Error is thrown.
ScenarioAnalysis analyse_scenarios(const std::vector<Scenario>& scenarios);

/// A single HSDF graph modelling the worst case over every scenario
/// sequence: the Figure 4 construction applied to the envelope (entry-wise
/// max) matrix.  Its period EQUALS the worst-case period (the envelope's
/// critical cycle both upper-bounds every product, entry-wise, and is
/// realisable by scheduling per step the scenario contributing the critical
/// edge), and dominates every standalone period (tested).
Graph scenario_envelope_hsdf(const ScenarioAnalysis& analysis, const std::string& name);

}  // namespace sdf
