// repetition.hpp — consistency and the repetition vector.
//
// A consistent SDF graph admits a smallest positive integer vector q (the
// repetition vector) such that firing every actor a exactly q(a) times
// returns every channel to its initial token count: for every channel
// (a, b, p, c, d) the balance equation q(a)·p = q(b)·c holds
// (Lee & Messerschmitt).  The sum of q is the iteration length — and the
// exact actor count of the classical SDF→HSDF conversion, which is what the
// paper's new conversion improves on.
#pragma once

#include <vector>

#include "base/rational.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// The repetition vector of `graph`, normalised per weakly connected
/// component (each component's entries are coprime overall).  Throws
/// InconsistentGraphError when the balance equations have no solution and
/// InvalidGraphError on an empty graph.
std::vector<Int> repetition_vector(const Graph& graph);

/// True when the balance equations are solvable.
bool is_consistent(const Graph& graph);

/// AnalysisManager slot behind repetition_vector() (see
/// sdf/analysis_manager.hpp for the traits contract).  Delta-aware: the
/// vector depends on rates only, and a rate edit records no delta (it drops
/// every result), so every delta keeps it.
struct RepetitionVectorAnalysis {
    using Result = std::vector<Int>;
    static constexpr const char* kName = "repetition";
    static constexpr bool kTimeSensitive = false;
    static Result compute(const Graph& graph);
    static Refined<Result> refine(const Result& old, const RefineContext& ctx);
};

/// AnalysisManager slot behind is_consistent().  Delta-aware: like the
/// repetition vector, every delta keeps it.
struct ConsistencyAnalysis {
    using Result = bool;
    static constexpr const char* kName = "consistency";
    static constexpr bool kTimeSensitive = false;
    static Result compute(const Graph& graph);
    static Refined<Result> refine(const Result& old, const RefineContext& ctx);
};

/// Sum of the repetition vector: the number of firings in one iteration.
Int iteration_length(const Graph& graph);

}  // namespace sdf
