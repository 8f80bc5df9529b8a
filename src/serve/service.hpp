// service.hpp — ServeCore, the transport-independent heart of `sdfred serve`.
//
// One ServeCore owns the content-addressed GraphStore and turns request
// lines into response lines (serve/protocol.hpp is the wire contract,
// docs/SERVE.md the prose spec).  It is deliberately transport-free: the
// Server (serve/server.hpp) feeds it from sockets or stdin, the golden
// protocol tests feed it strings, and the serve-route fuzz oracle feeds it
// graphs — all through the same handle_line().
//
// handle_line() never throws.  Every failure mode of the pipeline under it
// is caught and mapped onto the structured error member:
//
//   BadRequestError / PipelineParseError   → code 400, exit 2
//   ParseError (model or malformed JSON)   → code 422/400, exit 3/2
//   BudgetExceeded / bad_alloc             → code 429, exit 4, with cause
//   Error (semantic analysis failure)      → code 500, exit 1
//
// DETERMINISM is a design constraint, not an accident: a response's
// `result` member is a pure function of (canonical model, op, canonical
// pipeline spec) — lint runs without source locations, analysis results
// carry no wall-clock fields (timings live in the optional `wall_ms`
// response member, off by default), and Json::dump() is byte-stable.  That
// is what lets the result cache replay responses bit-identically and lets
// the stress test diff daemon answers against one-shot runs.
//
// Thread model: handle_line() is safe to call from any number of server
// workers concurrently; the store has its own lock and the counters are
// atomics.  Per-request budgets install a Governor only for the duration
// of the governed sections, so concurrent requests never share slices.
//
// SUPERVISION and DURABILITY are layered on without changing any of the
// above: ServeOptions::cache_dir attaches a crash-only disk cache
// (serve/persist.hpp) that the store writes through to and re-warms from,
// and ServeOptions::request_deadline arms a Watchdog that cancels requests
// which overrun their hard wall-clock deadline — the reaped worker unwinds
// through the ordinary BudgetExceeded path and answers 429 `cancelled`.
// The `health` op exposes both: queue depth, in-flight count, reap tally,
// and the persistence counters.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pass/pipeline.hpp"
#include "robust/budget.hpp"
#include "serve/graph_store.hpp"
#include "serve/persist.hpp"
#include "serve/protocol.hpp"

namespace sdf {
namespace serve {

/// Configuration of one ServeCore.
struct ServeOptions {
    /// Graphs kept in the content-addressed store (LRU beyond this).
    std::size_t cache_graphs = 64;
    /// Budget applied to requests that do not carry their own.  Unlimited
    /// by default.
    ExecutionBudget default_budget;
    /// Attach "wall_ms" to every response.  Off by default so responses
    /// are byte-stable (golden tests, cache replay).
    bool timings = false;
    /// Disk backing for the result cache ("" = volatile).  Entries written
    /// here survive crashes and warm the store at the next start
    /// (serve/persist.hpp has the guarantees).
    std::string cache_dir;
    /// fsync persisted entries (see PersistOptions::fsync_writes).
    bool persist_fsync = true;
    /// HARD wall-clock deadline per request.  When set, every request runs
    /// governed (the deadline is folded into its budget) and a supervisor
    /// thread cancels requests that overrun — a hung worker becomes a 429
    /// `cancelled` response instead of a leaked pool slot.
    std::optional<std::chrono::milliseconds> request_deadline;
    /// Longest accepted request line, in bytes.  Oversized lines get an
    /// in-band 413 `payload-too-large` error (exit 2) without being parsed.
    std::size_t max_line_bytes = 8 * 1024 * 1024;
};

/// The reaper behind ServeOptions::request_deadline.  Workers arm() a
/// CancellationToken with a timeout before running a request and disarm()
/// it on completion; a supervisor thread cancels whatever overruns.  The
/// cancelled worker unwinds at its next governed checkpoint — cooperative,
/// like all governance here, so the reap count is the number of requests
/// that were stopped, not killed mid-instruction.
class Watchdog {
public:
    Watchdog();
    ~Watchdog();
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// Registers `token` for cancellation `timeout` from now; returns the
    /// handle to disarm with.
    std::uint64_t arm(CancellationToken token, std::chrono::milliseconds timeout);

    /// Withdraws a handle after its request completed in time (no-op for a
    /// handle that was already reaped).
    void disarm(std::uint64_t handle);

    /// Requests cancelled because their deadline passed.
    [[nodiscard]] std::uint64_t reaped() const;

private:
    void loop();

    struct Armed {
        std::uint64_t handle;
        CancellationToken token;
        std::chrono::steady_clock::time_point deadline;
    };

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<Armed> armed_;
    std::uint64_t next_handle_ = 1;
    std::uint64_t reaped_ = 0;
    bool stop_ = false;
    std::thread thread_;  ///< last member: starts after the state above
};

/// Request tallies, surfaced by the `stats` op.
struct ServeCounters {
    std::uint64_t requests = 0;  ///< lines handled, including malformed ones
    std::uint64_t ok = 0;        ///< responses with exit 0 or 1
    std::uint64_t errors = 0;    ///< responses with exit 2, 3 or 4
};

/// See the file comment.
class ServeCore {
public:
    explicit ServeCore(ServeOptions options = {});

    /// Handles one request line; returns the response line (no trailing
    /// newline).  Never throws.
    std::string handle_line(const std::string& line);

    /// True once a `shutdown` request was accepted.
    [[nodiscard]] bool shutdown_requested() const {
        return shutdown_.load(std::memory_order_relaxed);
    }

    /// Lets the transport report its queue depth through the `stats` and
    /// `health` ops.
    void set_queue_depth_fn(std::function<std::size_t()> fn) {
        queue_depth_ = std::move(fn);
    }

    /// Attaches an EXTERNAL persistent cache (not owned; the caller keeps
    /// it alive) and warms the store from it.  The crash-restart oracle
    /// uses this to hand in caches with armed crash hooks; daemons normally
    /// let the constructor build one from ServeOptions::cache_dir instead.
    /// Returns the number of results replayed.
    std::size_t attach_persistence(PersistentCache* persist);

    /// Flushes the persistence index (graceful-drain path); no-op when
    /// volatile.
    void sync_persistence();

    [[nodiscard]] PersistentCache* persistence() { return persist_; }

    /// Requests reaped by the deadline supervisor (0 when none configured).
    [[nodiscard]] std::uint64_t reaped() const {
        return watchdog_ ? watchdog_->reaped() : 0;
    }

    /// Requests currently inside handle_line across all workers.
    [[nodiscard]] std::uint64_t in_flight() const {
        return in_flight_.load(std::memory_order_relaxed);
    }

    /// The request-line bound the transports enforce incrementally.
    [[nodiscard]] std::size_t max_line_bytes() const {
        return options_.max_line_bytes;
    }

    [[nodiscard]] ServeCounters counters() const;
    [[nodiscard]] StoreStats store_stats() const { return store_.stats(); }

private:
    Json handle(const Json& request_json, const CancellationToken& token);
    Json run_model_op(const Request& request, const CancellationToken& token,
                      std::string& cache_state, int& exit_code);
    /// Answers `op` on `interned` (after `pipeline`, when given) through
    /// the result cache under the key "op|canonical pipeline".  Direct
    /// requests and an edit's `then:` op both come through here.
    /// `cacheable` is cleared when the answer depends on the budget.
    Json cached_op(const Request& request, Op op, const GraphStore::Interned& interned,
                   const std::optional<Pipeline>& pipeline,
                   const CancellationToken& token, std::string& cache_state,
                   int& exit_code, bool& cacheable);
    /// Runs one analysis op on `graph` (serve/ops.hpp has the shared ones).
    Json run_op(const Request& request, Op op, const CancellationToken& token,
                const Graph& graph, const ResourceUsage& pipeline_used,
                int& exit_code, bool& cacheable) const;
    Json op_fuzz_smoke(const Request& request, const Graph& graph,
                       int& exit_code, bool& cacheable) const;
    Json op_edit(const Request& request, const CancellationToken& token,
                 std::string& cache_state, int& exit_code);
    Json op_stats() const;
    Json op_health() const;
    [[nodiscard]] ExecutionBudget effective_budget(const Request& request) const;

    ServeOptions options_;
    GraphStore store_;
    std::unique_ptr<PersistentCache> owned_persist_;  ///< from cache_dir
    PersistentCache* persist_ = nullptr;  ///< owned_persist_ or external
    std::unique_ptr<Watchdog> watchdog_;  ///< when request_deadline is set
    std::function<std::size_t()> queue_depth_;
    std::atomic<bool> shutdown_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> ok_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> in_flight_{0};
    std::atomic<std::uint64_t> rejected_oversize_{0};
    /// Delta-refinement tallies across every `edit` request: analysis slots
    /// the mutation protocol KEPT or REFINED instead of recomputing
    /// (sdf/analysis_manager.hpp).  Surfaced by `stats` and `health`.
    std::atomic<std::uint64_t> slots_kept_{0};
    std::atomic<std::uint64_t> slots_refined_{0};
    std::atomic<std::uint64_t> edits_applied_{0};
    std::size_t warmed_ = 0;  ///< results replayed from disk at startup
};

}  // namespace serve
}  // namespace sdf
