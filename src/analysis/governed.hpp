// governed.hpp — budgeted anytime throughput analysis.
//
// governed_throughput() is the resource-safe front door to the library's
// throughput machinery.  It descends a degradation ladder until a rung
// finishes within budget:
//
//   rung 1  exact    throughput_symbolic — the sparse symbolic iteration
//                    matrix + Howard, the paper's exact route and the fastest
//                    one by far.  Runs under the caller's full budget.
//   rung 2  bound    the paper-abstraction route: classical expansion +
//                    Definition 4 grouping, whose per-actor bound is
//                    conservative by Theorem 1.  Only attempted on graphs
//                    whose expansion is small, under a fresh half-deadline
//                    slice of the budget.
//   rung 3  bound    the sequential-schedule argument: one iteration
//                    executed back-to-back sequentially takes
//                    T = sum_a q(a)·t(a), and self-timed execution is the
//                    fastest admissible execution, so lambda <= T and
//                    throughput(a) >= q(a)/T.  O(sum q), always affordable
//                    when the graph is analysable at all; it also decides
//                    liveness exactly (the schedule exists iff the graph is
//                    deadlock-free), so deadlock is reported exactly even
//                    from this rung.
//
// Only resource failures move the ladder: BudgetExceeded (a budget or the
// fault injector tripped), std::bad_alloc (the allocator itself gave up),
// and ResourceLimitError (a kernel refused an unaffordable input up
// front).  Semantic errors — inconsistency, invalid structure, arithmetic
// overflow — propagate unchanged from every rung: a graph the exact
// analysis would reject is rejected, never "bounded".
//
// Rungs 2 and 3 run under fresh governors sliced to half the original
// deadline each, so the total wall-clock stays within ~2x the caller's
// deadline even when every rung is attempted.
#pragma once

#include "analysis/throughput.hpp"
#include "robust/governed.hpp"

namespace sdf {

/// Anytime throughput analysis under `options.budget`.  See file comment.
/// The value is exact (status `exact`), a conservative per-actor lower
/// bound (`degraded`, with `period` then an upper bound on the true
/// iteration period), or absent (`aborted`).
Governed<ThroughputResult> governed_throughput(const Graph& graph,
                                               const GovernOptions& options = {});

}  // namespace sdf
