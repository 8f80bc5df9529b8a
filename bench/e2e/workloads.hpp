// workloads.hpp — the four workloads of bench_e2e (README.md says why each
// exists) and the helpers they share.
//
// Each workload has two entry points.  run_* is the end-to-end run: a
// closed loop over the workload's seeded op order for the timed window,
// every answer checked.  trace_* is the per-layer run: the same op order,
// first on the live path (spawned CLI, daemon socket, or in-process call),
// then replayed in-process twice through the public calls of each layer,
// untraced and traced.
#pragma once

#include "common.hpp"

namespace e2e {

Result run_cli_table1(const Context& ctx);
Result trace_cli_table1(const Context& ctx);
Result run_cold_large(const Context& ctx);
Result trace_cold_large(const Context& ctx);
Result run_serve_mix(const Context& ctx);
Result trace_serve_mix(const Context& ctx);
Result run_serve_edit(const Context& ctx);
Result trace_serve_edit(const Context& ctx);

/// The child side of cold_large's set-up time: one cold op in a fresh
/// process, whose lazy pool and ISA set-up it pays.  Returns the exit code.
int cold_setup_probe();

/// The child side of cold_large's peak memory: every model once, in a
/// fixed order.  Returns the exit code.
int cold_peak_probe();

}  // namespace e2e
