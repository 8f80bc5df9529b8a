#include "sdf/analysis_manager.hpp"

#include <algorithm>
#include <string_view>

namespace sdf {

bool AnalysisManager::has(const std::string& analysis) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, slot] : slots_) {
        if (slot.value && analysis == slot.name) {
            return true;
        }
    }
    return false;
}

bool AnalysisManager::empty() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, slot] : slots_) {
        if (slot.value) {
            return false;
        }
    }
    return true;
}

void AnalysisManager::adopt_matching(const AnalysisManager& from,
                                     const std::vector<std::string>* filter) {
    // Lock ordering: `from` is always the retired manager of a graph the
    // caller just replaced, never the adopting one, so the two locks
    // nest without a cycle.  Self-adoption is a no-op.
    if (&from == this) {
        return;
    }
    const std::lock_guard<std::mutex> source_lock(from.mutex_);
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, source] : from.slots_) {
        if (!source.value) {
            continue;
        }
        if (filter != nullptr &&
            std::find(filter->begin(), filter->end(), source.name) == filter->end()) {
            continue;
        }
        Slot& slot = slots_[key];
        if (slot.value) {
            continue;  // a fresher result already exists; keep it
        }
        slot.name = source.name;
        slot.timed = source.timed;
        slot.refine_fn = source.refine_fn;
        slot.phase = source.phase;
        slot.value = source.value;
        ++slot.adopted;
    }
}

void AnalysisManager::adopt(const AnalysisManager& from,
                            const std::vector<std::string>& analyses) {
    adopt_matching(from, &analyses);
}

void AnalysisManager::adopt_all(const AnalysisManager& from) {
    adopt_matching(from, nullptr);
}

void AnalysisManager::refine_from(const AnalysisManager& from, const Graph& graph,
                                  const MutationLog& log) {
    if (&from == this || log.empty()) {
        return;
    }
    // Snapshot the source slots so the hooks run without any lock held:
    // refinement may consult sibling caches of the target, and a held
    // lock would self-deadlock exactly like it would for compute().
    struct Pending {
        std::type_index key;
        Slot slot;  // metadata + value copy; counters irrelevant here
    };
    std::vector<Pending> pending;
    {
        const std::lock_guard<std::mutex> source_lock(from.mutex_);
        pending.reserve(from.slots_.size());
        for (const auto& [key, source] : from.slots_) {
            if (source.value) {
                pending.push_back(Pending{key, source});
            }
        }
    }
    // Phase order lets derived slots (liveness, warm throughput) read base
    // slots (repetition, schedule) the earlier phases already installed;
    // ties break on the slot name for determinism.
    std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
        if (a.slot.phase != b.slot.phase) {
            return a.slot.phase < b.slot.phase;
        }
        return std::string_view(a.slot.name) < std::string_view(b.slot.name);
    });

    const RefineContext ctx{graph, log, *this};
    for (const Pending& p : pending) {
        ErasedOutcome outcome;
        if (p.slot.refine_fn != nullptr) {
            try {
                outcome = p.slot.refine_fn(p.slot.value, ctx);
            } catch (...) {
                // A refinement failure (budget trip, injected fault) only
                // costs the cache entry: the mutation itself must never
                // fail, and a later query recomputes from scratch.
                outcome.action = 0;
            }
        } else if (!p.slot.timed && log.timing_only()) {
            // Default rule: untimed results survive pure timing edits —
            // the contract set_execution_time has always offered.
            outcome.action = 1;
        }
        if (outcome.action == 0) {
            continue;
        }
        const std::lock_guard<std::mutex> lock(mutex_);
        Slot& slot = slots_[p.key];
        slot.name = p.slot.name;
        slot.timed = p.slot.timed;
        slot.refine_fn = p.slot.refine_fn;
        slot.phase = p.slot.phase;
        if (slot.value) {
            continue;  // a concurrent first result wins, as everywhere
        }
        if (outcome.action == 1) {
            slot.value = p.slot.value;
            ++slot.kept;
        } else {
            slot.value = std::move(outcome.value);
            ++slot.refined;
        }
    }
}

std::vector<AnalysisSlotStats> AnalysisManager::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<AnalysisSlotStats> result;
    result.reserve(slots_.size());
    for (const auto& [key, slot] : slots_) {
        AnalysisSlotStats s;
        s.analysis = slot.name;
        s.hits = slot.hits;
        s.misses = slot.misses;
        s.adopted = slot.adopted;
        s.kept = slot.kept;
        s.refined = slot.refined;
        s.cached = slot.value != nullptr;
        result.push_back(std::move(s));
    }
    std::sort(result.begin(), result.end(),
              [](const AnalysisSlotStats& a, const AnalysisSlotStats& b) {
                  return a.analysis < b.analysis;
              });
    return result;
}

}  // namespace sdf
