// analysis_manager.hpp — typed, lazily-computed, mutation-REFINED analysis
// slots shared by everything that asks questions about one graph.
//
// An *analysis* is a cheap traits struct
//
//     struct RepetitionVectorAnalysis {
//         using Result = std::vector<Int>;
//         static constexpr const char* kName = "repetition";
//         static constexpr bool kTimeSensitive = false;
//         static Result compute(const Graph&);
//         // optional: delta-aware survival under a MutationLog
//         static Refined<Result> refine(const Result&, const RefineContext&);
//         // optional: refinement ordering (lower phases run first)
//         static constexpr int kRefinePhase = 0;
//     };
//
// kTimeSensitive marks results that depend on execution times (throughput)
// rather than only on rates and tokens (repetition, schedule, liveness).
//
// Traits are declared next to their compute function (src/sdf for the
// structural analyses, src/analysis for throughput), so the manager itself
// depends on nothing above the graph model and any layer can add slots
// without touching this file.  AnalysisManager::get<A>() returns the cached
// result or computes, caches and returns it; failures (inconsistency,
// deadlock) propagate as the usual typed errors and cache nothing, so they
// re-throw on every query exactly like the direct call would.
//
// Every Graph owns a manager (Graph::analyses()).  Copies of a graph share
// it until either copy mutates, and results cached for the old graph stay
// with the old graph.  A structural mutation (add_actor, add_channel) or a
// rate edit (set_rates) drops every result: rates fix the repetition
// vector and with it the iteration every other result describes.  A batch
// of timing and token edits on the fixed structure is no blanket
// invalidation: Graph::apply_edits records one MutationEvent per changed
// value (sdf/mutation.hpp) and swaps in a fresh manager that REFINES from
// the old one through the whole log, once — per slot, the delta either
//
//   * KEEPS the cached value (a pure timing edit cannot move any untimed
//     result, no logged edit moves the repetition vector; counted in
//     `kept`, once per batch),
//   * REFINES it through the trait's optional refine() hook (throughput
//     re-certified from the incremental max-plus state; counted in
//     `refined`, once per batch however many events it holds), or
//   * DROPS it for lazy recomputation (the conservative default).
//
// A slot without a refine() hook follows the default rule: kept when the
// analysis is untimed and the log contains only execution-time edits —
// exactly the contract set_execution_time has always offered — dropped
// otherwise.  refine() hooks run OUTSIDE every manager lock in ascending
// kRefinePhase order, so a phase-1 hook may consult phase-0 results already
// installed in the target manager (RefineContext::target).  A hook that
// throws only drops its own slot: mutation never fails because refinement
// did, and an injected fault mid-refine degrades to a cache miss, never to
// a wrong cached value.
//
// The pass pipeline (src/pass) additionally moves slots *across* a
// transformation when the pass declares them preserved (adopt()).
//
// Slots are filled under the mutex and never cleared, so empty() reads one
// atomic flag set under it and takes no lock: Graph asks on every add_actor
// and add_channel.  compute() runs OUTSIDE the mutex: analyses
// call back into the manager (throughput consults the repetition and
// schedule slots), and a held lock would self-deadlock.  Concurrent readers
// may race to compute the same slot; the first result wins and the loser's
// work is discarded — the same benign race the old memo allowed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sdf/mutation.hpp"

namespace sdf {

class Graph;
class AnalysisManager;

/// Everything a refine() hook may look at: the post-mutation graph, the
/// delta and the manager being filled (for sibling results already
/// kept/refined in an earlier phase).  Hooks must not call target.get<>()
/// — refinement may consult caches, never trigger recomputation.
struct RefineContext {
    const Graph& graph;        ///< the graph AFTER the mutation
    const MutationLog& log;    ///< what changed
    AnalysisManager& target;   ///< manager being refined into
};

/// What a refine() hook decided for one slot.
template <typename R>
struct Refined {
    enum class Action { kept, refined, dropped };
    Action action = Action::dropped;
    std::shared_ptr<const R> value;  ///< set when action == refined

    static Refined keep() { return {Action::kept, nullptr}; }
    static Refined drop() { return {Action::dropped, nullptr}; }
    static Refined make(R refined_value) {
        return {Action::refined, std::make_shared<const R>(std::move(refined_value))};
    }
};

/// Cache counters of one slot, for --time-passes style reporting and the
/// preservation tests.
struct AnalysisSlotStats {
    std::string analysis;        ///< the traits' kName
    std::uint64_t hits = 0;      ///< queries served from the cache
    std::uint64_t misses = 0;    ///< queries that had to compute
    std::uint64_t adopted = 0;   ///< results inherited from a previous graph
    std::uint64_t kept = 0;      ///< results that survived a delta unchanged
    std::uint64_t refined = 0;   ///< results updated in place under a delta
    bool cached = false;         ///< a result is currently stored
};

namespace detail {

/// Detects the optional `static Refined<Result> refine(const Result&,
/// const RefineContext&)` hook on an analysis trait.
template <typename A, typename = void>
struct has_refine_hook : std::false_type {};
template <typename A>
struct has_refine_hook<A, std::void_t<decltype(A::refine(
                              std::declval<const typename A::Result&>(),
                              std::declval<const RefineContext&>()))>> : std::true_type {};

/// Detects the optional `static constexpr int kRefinePhase` member.
template <typename A, typename = void>
struct refine_phase {
    static constexpr int value = 0;
};
template <typename A>
struct refine_phase<A, std::void_t<decltype(A::kRefinePhase)>> {
    static constexpr int value = A::kRefinePhase;
};

}  // namespace detail

/// See the file comment.
class AnalysisManager {
public:
    AnalysisManager() = default;
    AnalysisManager(const AnalysisManager&) = delete;
    AnalysisManager& operator=(const AnalysisManager&) = delete;

    /// The result of analysis A on `graph`, computed on the first call and
    /// served from the cache afterwards.  Whatever A::compute throws
    /// propagates unchanged and leaves the slot empty.
    template <typename A>
    std::shared_ptr<const typename A::Result> get(const Graph& graph) {
        const std::type_index key(typeid(A));
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            const auto it = slots_.find(key);
            if (it != slots_.end() && it->second.value) {
                ++it->second.hits;
                return std::static_pointer_cast<const typename A::Result>(
                    it->second.value);
            }
        }
        std::shared_ptr<const typename A::Result> computed =
            std::make_shared<typename A::Result>(A::compute(graph));
        const std::lock_guard<std::mutex> lock(mutex_);
        Slot& slot = slots_[key];
        describe_slot<A>(slot);
        if (!slot.value) {
            fill(slot, computed);
            ++slot.misses;
        } else {
            // Lost a compute race; keep the first result so every caller
            // sees one consistent object.
            ++slot.hits;
            computed = std::static_pointer_cast<const typename A::Result>(slot.value);
        }
        return computed;
    }

    /// The cached result of A, or nullptr — never computes.
    template <typename A>
    [[nodiscard]] std::shared_ptr<const typename A::Result> cached() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(std::type_index(typeid(A)));
        if (it == slots_.end()) {
            return nullptr;
        }
        return std::static_pointer_cast<const typename A::Result>(it->second.value);
    }

    /// True when a result for A is currently cached.
    template <typename A>
    [[nodiscard]] bool is_cached() const {
        return cached<A>() != nullptr;
    }

    /// True when a slot with this kName holds a result.
    [[nodiscard]] bool has(const std::string& analysis) const;

    /// True when no slot holds a result.  Lock-free.
    [[nodiscard]] bool empty() const { return !filled_.load(std::memory_order_acquire); }

    /// Copies the cached results whose kName appears in `analyses` from
    /// another manager (typically the one of the graph a pass just
    /// replaced).  Only fills empty slots; counts as `adopted` in stats().
    void adopt(const AnalysisManager& from, const std::vector<std::string>& analyses);

    /// adopt() for every slot `from` holds.
    void adopt_all(const AnalysisManager& from);

    /// Refines every cached result of `from` through the mutation delta
    /// `log` into this manager (see the file comment for the per-slot
    /// kept/refined/dropped contract).  `graph` is the POST-mutation graph.
    /// Hooks run outside all manager locks, in ascending refine phase; a
    /// throwing hook drops its slot and nothing else.  Never throws.
    void refine_from(const AnalysisManager& from, const Graph& graph,
                     const MutationLog& log);

    /// Per-slot cache counters, sorted by analysis name.
    [[nodiscard]] std::vector<AnalysisSlotStats> stats() const;

private:
    /// Type-erased refine hook: old value in, kept/refined/dropped out.
    struct ErasedOutcome {
        int action = 0;  ///< 0 dropped, 1 kept, 2 refined
        std::shared_ptr<const void> value;
    };
    using RefineFn = ErasedOutcome (*)(const std::shared_ptr<const void>&,
                                       const RefineContext&);

    struct Slot {
        const char* name = "";
        bool timed = false;
        RefineFn refine_fn = nullptr;  ///< null: default untimed/timing rule
        int phase = 0;
        std::shared_ptr<const void> value;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t adopted = 0;
        std::uint64_t kept = 0;
        std::uint64_t refined = 0;
    };

    /// Stamps the static trait metadata onto a slot (idempotent).
    template <typename A>
    static void describe_slot(Slot& slot) {
        slot.name = A::kName;
        slot.timed = A::kTimeSensitive;
        slot.phase = detail::refine_phase<A>::value;
        if constexpr (detail::has_refine_hook<A>::value) {
            slot.refine_fn = [](const std::shared_ptr<const void>& old_value,
                                const RefineContext& ctx) -> ErasedOutcome {
                const auto& old =
                    *std::static_pointer_cast<const typename A::Result>(old_value);
                Refined<typename A::Result> out = A::refine(old, ctx);
                ErasedOutcome erased;
                switch (out.action) {
                    case Refined<typename A::Result>::Action::kept:
                        erased.action = 1;
                        break;
                    case Refined<typename A::Result>::Action::refined:
                        erased.action = out.value ? 2 : 0;
                        erased.value = std::move(out.value);
                        break;
                    case Refined<typename A::Result>::Action::dropped:
                        erased.action = 0;
                        break;
                }
                return erased;
            };
        }
    }

    void adopt_matching(const AnalysisManager& from,
                        const std::vector<std::string>* filter);

    /// Stores a result in an empty slot; the caller holds mutex_.
    void fill(Slot& slot, std::shared_ptr<const void> value) {
        slot.value = std::move(value);
        filled_.store(true, std::memory_order_release);
    }

    mutable std::mutex mutex_;
    std::unordered_map<std::type_index, Slot> slots_;
    std::atomic<bool> filled_{false};  ///< some slot holds a result
};

}  // namespace sdf
