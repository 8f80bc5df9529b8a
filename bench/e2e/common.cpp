#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "base/portable_rng.hpp"

namespace e2e {

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<Table1Model> load_table1(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    std::vector<Table1Model> models;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        Table1Model model;
        if (!(fields >> model.file >> model.period >> model.reduced_actors)) {
            throw std::runtime_error("malformed line in " + path + ": " + line);
        }
        models.push_back(std::move(model));
    }
    if (models.empty()) {
        throw std::runtime_error(path + " lists no models");
    }
    return models;
}

void Failures::add(const std::string& why) {
    ++count;
    if (reasons.size() < 8) reasons.push_back(why);
}

void Failures::merge(const Failures& other) {
    count += other.count;
    for (const std::string& why : other.reasons) {
        if (reasons.size() < 8) reasons.push_back(why);
    }
}

std::mt19937 Context::rng(std::uint32_t salt) const {
    std::seed_seq seq{static_cast<std::uint32_t>(options.seed),
                      static_cast<std::uint32_t>(options.seed >> 32), salt};
    return std::mt19937(seq);
}

Clock::time_point Context::window_end(double share) const {
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(options.seconds * share));
}

std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond) {
    const std::size_t n = samples.size();
    if (n == 0) return std::nullopt;
    const auto rank = static_cast<std::size_t>(
        std::clamp(std::ceil(q * static_cast<double>(n)), 1.0, static_cast<double>(n)));
    if (n - rank < min_beyond) return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void Samples::merge(const Samples& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(), other.latency_ms.end());
}

void add_end_to_end(Result& result, const Samples& samples, double window_s, double setup_s,
                    double peak_rss_mb) {
    result.add("ops_per_s", static_cast<double>(samples.size()) / window_s, "1/s");
    if (const auto p50 = percentile(samples.latency_ms, 0.50)) {
        result.add("latency_p50_ms", *p50, "ms");
    }
    if (const auto p90 = percentile(samples.latency_ms, 0.90)) {
        result.add("latency_p90_ms", *p90, "ms");
    }
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", peak_rss_mb, "MB");
}

std::size_t ShuffledCycle::next() {
    if (pos_ == block_.size()) {
        block_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) block_[i] = i;
        // Fisher–Yates with the library's portable bounded draws, so a seed
        // names the same order on every toolchain.
        for (std::size_t i = n_; i > 1; --i) {
            std::swap(block_[i - 1], block_[sdf::draw_index(rng_, i)]);
        }
        pos_ = 0;
    }
    return block_[pos_++];
}

std::optional<std::string> string_member(const std::string& json, const std::string& key,
                                         std::size_t from) {
    const std::string needle = "\"" + key + "\":\"";
    const std::size_t start = json.find(needle, from);
    if (start == std::string::npos) return std::nullopt;
    const std::size_t begin = start + needle.size();
    const std::size_t end = json.find('"', begin);
    if (end == std::string::npos) return std::nullopt;
    return json.substr(begin, end - begin);
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot read " + path);
    }
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

}  // namespace e2e
