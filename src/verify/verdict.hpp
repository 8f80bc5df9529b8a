// verdict.hpp — structured outcomes of a differential oracle run.
//
// Every oracle reduces to one Verdict.  The four states partition what can
// happen when redundant engines are pitted against each other on an
// arbitrary (possibly inconsistent, deadlocked or degenerate) graph:
//
//   pass    all routes agree and every invariant holds;
//   skip    the graph is outside the oracle's domain by *policy* (too large
//           for an exponential route, wrong shape for the proposition);
//   reject  the library refused the graph with a typed error (Error
//           subclass) — the graceful-degradation contract at work;
//   fail    routes disagree, an invariant broke, or the library crashed
//           with an untyped exception — the bug the fuzzer exists to find.
#pragma once

#include <string>
#include <vector>

namespace sdf {

enum class VerdictStatus { pass, skip, reject, fail };

const char* verdict_status_name(VerdictStatus status);

/// One quantity two independent routes disagree on, with both values.
struct Disagreement {
    std::string quantity;     ///< e.g. "iteration period"
    std::string left_route;   ///< e.g. "symbolic+howard"
    std::string left_value;
    std::string right_route;  ///< e.g. "self-timed simulation"
    std::string right_value;

    [[nodiscard]] std::string describe() const;
};

/// The structured result of running one oracle on one graph.
struct Verdict {
    VerdictStatus status = VerdictStatus::pass;
    std::string oracle;                       ///< id of the producing oracle
    std::string detail;                       ///< reject reason / skip reason / context
    std::vector<Disagreement> disagreements;  ///< non-empty only when failing

    [[nodiscard]] bool failed() const { return status == VerdictStatus::fail; }

    /// Multi-line human-readable report.
    [[nodiscard]] std::string describe() const;

    static Verdict pass(std::string oracle);
    static Verdict skip(std::string oracle, std::string reason);
    static Verdict reject(std::string oracle, std::string reason);
    static Verdict fail(std::string oracle, std::string detail,
                        std::vector<Disagreement> disagreements = {});
};

}  // namespace sdf
