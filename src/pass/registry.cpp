#include "pass/registry.hpp"

#include <algorithm>

#include "base/errors.hpp"

namespace sdf {

void PassParams::set(const std::string& name, Int value) {
    for (auto& [key, existing] : entries_) {
        if (key == name) {
            existing = value;
            return;
        }
    }
    entries_.emplace_back(name, value);
}

std::optional<Int> PassParams::find(const std::string& name) const {
    for (const auto& [key, value] : entries_) {
        if (key == name) {
            return value;
        }
    }
    return std::nullopt;
}

Int PassParams::at(const std::string& name) const {
    const std::optional<Int> value = find(name);
    if (!value) {
        throw InvalidGraphError("pass parameter '" + name + "' was never set");
    }
    return *value;
}

const char* period_contract_name(PeriodContract contract) {
    switch (contract) {
        case PeriodContract::none: return "none";
        case PeriodContract::preserves: return "preserves";
        case PeriodContract::scales_by_n: return "scales-by-n";
        case PeriodContract::not_faster: return "not-faster";
    }
    return "unknown";
}

const PassRegistry& PassRegistry::instance() {
    static const PassRegistry registry = [] {
        PassRegistry r;
        register_builtin_passes(r);
        return r;
    }();
    return registry;
}

void PassRegistry::add(std::unique_ptr<Pass> pass) {
    require(pass != nullptr, "cannot register a null pass");
    if (find(pass->name()) != nullptr) {
        throw InvalidGraphError("pass '" + pass->name() + "' registered twice");
    }
    passes_.push_back(std::move(pass));
}

const Pass* PassRegistry::find(const std::string& name) const {
    for (const auto& pass : passes_) {
        if (pass->name() == name) {
            return pass.get();
        }
    }
    return nullptr;
}

std::vector<const Pass*> PassRegistry::list(bool include_hidden) const {
    std::vector<const Pass*> result;
    for (const auto& pass : passes_) {
        if (include_hidden || !pass->hidden()) {
            result.push_back(pass.get());
        }
    }
    std::sort(result.begin(), result.end(),
              [](const Pass* a, const Pass* b) { return a->name() < b->name(); });
    return result;
}

}  // namespace sdf
