// common.hpp — what the four workloads of bench_e2e share: options, the
// result of one run, statistics, seeded op orders and the Table-1 data.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start);
double seconds_since(Clock::time_point start);

/// Command-line options of one run.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;       ///< the timed window
    std::size_t max_ops = 0;     ///< 0: as many ops as the window allows
    std::string trace_path;      ///< non-empty: traced replay run
    std::string cli;             ///< sdfred_cli binary
    std::string data;            ///< the repository's data/ directory
    std::string expected;        ///< expected/table1.txt
    std::string scratch;         ///< where sockets go
};

/// One row of expected/table1.txt: a bundled Table-1 model, its iteration
/// period and the actor count of its reduced HSDF.
struct Table1Model {
    std::string file;
    std::string period;
    std::size_t reduced_actors = 0;
};

/// Reads expected/table1.txt; throws std::runtime_error when malformed.
std::vector<Table1Model> load_table1(const std::string& path);

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// Failed checks and the first few reasons; one per client thread, merged
/// at the end of a run.
struct Failures {
    std::uint64_t count = 0;
    std::vector<std::string> reasons;

    void add(const std::string& why);
    void merge(const Failures& other);
};

/// The outcome of one run: what the last output line reports.
struct Result {
    std::uint64_t attempted = 0;
    Failures failures;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    [[nodiscard]] bool correct() const { return failures.count == 0 && attempted > 0; }
};

/// Everything a workload needs to run.
struct Context {
    Options options;
    std::vector<Table1Model> table1;

    /// A generator for one purpose (`salt`) under this run's seed.
    [[nodiscard]] std::mt19937 rng(std::uint32_t salt) const;
    [[nodiscard]] std::string data_file(const std::string& file) const {
        return options.data + "/" + file;
    }
    /// True while op number `done` may still start in a window ending at
    /// `end`.
    [[nodiscard]] bool more(std::size_t done, Clock::time_point end) const {
        return (options.max_ops == 0 || done < options.max_ops) && Clock::now() < end;
    }
    [[nodiscard]] Clock::time_point window_end(double share = 1.0) const;
};

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt unless
/// at least `min_beyond` samples lie above its rank: a tail percentile of
/// fewer samples is just their largest values.
std::optional<double> percentile(std::vector<double> samples, double q,
                                 std::size_t min_beyond = 10);

double median(std::vector<double> values);

/// The latency of every op of a timed window.
struct Samples {
    std::vector<double> latency_ms;

    /// Records an op that started at `op_start` and has just finished.
    void add(Clock::time_point op_start) { latency_ms.push_back(ms_since(op_start)); }
    void merge(const Samples& other);
    [[nodiscard]] std::size_t size() const { return latency_ms.size(); }
};

/// Adds the end-to-end block every workload reports: ops per second of the
/// window, the p50 and p90 op latency (each only with ten ops beyond it),
/// set-up time and peak memory.
void add_end_to_end(Result& result, const Samples& samples, double window_s, double setup_s,
                    double peak_rss_mb);

/// An endless op order over `n` kinds: concatenated seeded shuffles of
/// 0..n-1, so each block of n ops holds every kind once and the mix does
/// not depend on how many ops a run gets through.
class ShuffledCycle {
public:
    ShuffledCycle(std::size_t n, std::mt19937 rng) : n_(n), rng_(rng) {}
    std::size_t next();

private:
    std::size_t n_;
    std::mt19937 rng_;
    std::vector<std::size_t> block_;
    std::size_t pos_ = 0;
};

/// The value of the first string member `"key":"..."` at or after `from`
/// in a compact JSON line.  Not unescaped: meant for values such as
/// periods and display ids, which never contain escapes.
std::optional<std::string> string_member(const std::string& json, const std::string& key,
                                         std::size_t from = 0);

std::string read_file(const std::string& path);

}  // namespace e2e
