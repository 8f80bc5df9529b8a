// ops.hpp — one implementation per analysis op, shared by both front ends.
//
// `sdfred_cli analyze|lint` and `sdfred serve throughput|certify|lint`
// reach the same three analyses.  Each op here runs its analysis once and
// returns a typed report together with its byte-stable Json model; the CLI
// renders the report as text or the Json with Json::dump_report(), serve
// answers with the Json and caches its dump().  Budget trips and semantic
// errors propagate as exceptions, so each front end keeps its own mapping
// onto exit codes (CLI) or in-band errors (serve).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "absint/certificate.hpp"
#include "absint/reachability.hpp"
#include "absint/token_intervals.hpp"
#include "analysis/governed.hpp"
#include "lint/diagnostic.hpp"
#include "serve/json.hpp"

namespace sdf {
namespace serve {
namespace ops {

/// The throughput op: the eigenvalue of the symbolic iteration matrix
/// (Algorithm 1), under a budget.
struct ThroughputReport {
    /// The value plus its fidelity (exact / degraded / aborted).
    Governed<ThroughputResult> governed;
    /// status, method, cause, outcome, period and per-actor throughput;
    /// null when the budget left no result.
    Json json;
    /// 0, or 4 when the budget left no result.
    int exit_code = 0;
    /// Only exact answers are replayable: degraded ones depend on where the
    /// budget tripped.
    bool cacheable = true;
};

/// An unlimited budget reads the graph's AnalysisManager (cached_throughput),
/// so the answer warms every later consumer of the same graph, and runs
/// ungoverned (`governed.used` stays zero); any other budget descends the
/// governed_throughput ladder.
ThroughputReport throughput(const Graph& graph, const GovernOptions& options);

/// The certify op: token intervals, reachability, the buffer-bound
/// certificate with its independent check, and the broken-model verdicts.
struct CertifyReport {
    absint::TokenIntervals intervals;
    absint::Reachability reach;
    /// Present when the certificate was requested.
    std::optional<absint::CertifiedBounds> certified;
    absint::CertificateCheck check;
    /// Why the repetition vector does not exist ("" when consistent).
    std::string inconsistency;
    bool dead_actor = false;
    /// Some firing bound is below the repetition count.
    bool guaranteed_deadlock = false;
    /// The `analyze --json` / serve `certify` document; `certificate` and
    /// `certified_bound` only when the certificate was requested.
    Json json;
    /// 1 when the certificate fails its check or a verdict proves the graph
    /// broken, else 0.
    int exit_code = 0;
};

/// Runs under `budget` and `token`; a trip throws BudgetExceeded.
CertifyReport certify(const Graph& graph, const ExecutionBudget& budget,
                      const CancellationToken& token, bool with_certificate);

/// The lint report document: file, graph, diagnostics (rule, severity,
/// line/column when known, message, hint when present), summary and counts.
Json lint_json(const LintReport& report, const std::string& file,
               const std::string& graph_name);

}  // namespace ops
}  // namespace serve
}  // namespace sdf
