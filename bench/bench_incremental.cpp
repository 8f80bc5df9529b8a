// bench_incremental — the delta-refinement payoff: one execution-time edit
// on a warm graph versus a from-scratch throughput solve.
//
// The warm path goes through the mutation protocol end to end on a parent
// primed only by warm_throughput: Graph copy (shares the warm
// AnalysisManager), set_execution_time (refines a fresh manager through
// the MutationEvent), and the answer read through cached_throughput on the
// child — i.e. exactly what one `edit` request with `then: throughput`
// costs inside `sdfred serve`.  The baseline is throughput_symbolic on the
// same edited graph, bypassing every cache.
//
// Bit-exactness is checked on every repetition (the edited answer's period
// and per-actor vector must equal the cold solve, Rational for Rational), and
// so is its source: the answer must be the refined warm slot's result, not a
// cold fallback.  An edit that leaves no refined warm slot, a fallback or a
// divergence exits 1.  The speedup gate for CI:
//
//   --min-speedup X   exit 1 unless median(full) / median(edit) >= X
//
// Flags (see docs/PERFORMANCE.md):
//   --json FILE   write a BENCH_incremental.json report and skip the
//                 google-benchmark run
//   --reps N      repetitions per measurement (default 5)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "analysis/incremental.hpp"
#include "analysis/throughput.hpp"
#include "gen/structured.hpp"
#include "sdf/graph.hpp"

namespace {

using namespace sdf;

struct Fixture {
    std::string label;
    Graph graph;
    ActorId edit_actor;  ///< the worker whose time the edit lowers
    Int base_time;
    Int edited_time;
};

std::vector<Fixture> prepare() {
    std::vector<Fixture> out;
    {
        // The ISSUE's headline case: 1024 parallel workers, lower one
        // worker's time 5 -> 4.  The edit touches one actor out of 1026 and
        // one SCC out of 1026, so nearly the whole warm state survives.
        Graph g = fork_join_graph(1024, 5, 4);
        const ActorId worker = *g.find_actor("w3");
        out.push_back(Fixture{"fork_join(1024)", std::move(g), worker, 5, 4});
    }
    {
        // A single large cycle: the edit dirties the one SCC everything is
        // on, so this bounds the speedup from below (replay + one re-solve).
        Graph g = ring_graph(256, 3, 4);
        out.push_back(Fixture{"ring(256)", std::move(g), 17, 3, 2});
    }
    return out;
}

/// One edited copy of the fixture through the mutation protocol.
Graph edited_copy(const Fixture& f) {
    Graph copy = f.graph;
    copy.set_execution_time(f.edit_actor, f.edited_time);
    return copy;
}

bool same_answer(const ThroughputResult& a, const ThroughputResult& b) {
    return a.outcome == b.outcome && a.period == b.period && a.per_actor == b.per_actor;
}

struct Report {
    std::string name;
    std::size_t actors = 0;
    std::size_t channels = 0;
    sdfbench::Stats full;
    sdfbench::Stats edit;
    double speedup = 0;
    std::uint64_t refines = 0;
    std::uint64_t rescored_sccs = 0;
    bool bit_identical = true;
};

Report measure(const Fixture& f, int reps) {
    Report r;
    r.name = f.label;
    r.actors = f.graph.actor_count();
    r.channels = f.graph.channel_count();

    // Prime the warm state once — the cost every serve daemon already paid
    // when it first analysed the parent model.
    const auto warm = warm_throughput(f.graph);
    if (warm->state == nullptr) {
        std::printf("ERROR: %s has no warm state (too large to trace?)\n",
                    f.label.c_str());
        std::exit(1);
    }

    // The cold reference on the edited graph, and the refinement counters:
    // the edit must have refined the warm slot, not dropped it.
    const Graph edited_cold = edited_copy(f);
    const ThroughputResult reference = throughput_symbolic(edited_cold);
    const auto refined = edited_cold.analyses()->cached<IncrementalThroughputAnalysis>();
    if (refined == nullptr || refined->refines == 0) {
        std::printf("ERROR: the edit did not refine the warm slot on %s\n",
                    f.label.c_str());
        std::exit(1);
    }
    r.refines = refined->refines;
    r.rescored_sccs = refined->rescored_sccs;

    r.full = sdfbench::measure_ms(reps, [&] {
        benchmark::DoNotOptimize(throughput_symbolic(edited_cold));
    });
    // Every repetition's answer must be the refined warm result itself (a
    // cold fallback fails here on every row) and equal the cold solve.
    bool from_warm = true;
    r.edit = sdfbench::measure_ms(reps, [&] {
        const Graph copy = edited_copy(f);
        const auto answer = cached_throughput(copy);
        const auto slot = copy.analyses()->cached<IncrementalThroughputAnalysis>();
        from_warm = from_warm && slot != nullptr && answer.get() == &slot->result;
        r.bit_identical = r.bit_identical && same_answer(*answer, reference);
        benchmark::DoNotOptimize(answer);
    });
    if (!from_warm) {
        std::printf("ERROR: the edited answer was not read from the warm slot on %s\n",
                    f.label.c_str());
        std::exit(1);
    }
    if (!r.bit_identical) {
        std::printf("ERROR: edited answer diverges from the cold solve on %s\n",
                    f.label.c_str());
        std::exit(1);
    }
    r.speedup = r.edit.median_ms > 0 ? r.full.median_ms / r.edit.median_ms : 0;
    return r;
}

void write_json(const std::string& path, const std::vector<Report>& reports,
                int reps) {
    std::ofstream out(path);
    out << "{\n";
    out << "  \"bench\": \"incremental\",\n";
    out << "  \"machine\": " << sdfbench::machine_json() << ",\n";
    out << "  \"reps\": " << reps << ",\n";
    out << "  \"cases\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const Report& r = reports[i];
        out << "    {\n";
        out << "      \"name\": \"" << sdfbench::json_escape(r.name) << "\",\n";
        out << "      \"actors\": " << r.actors << ",\n";
        out << "      \"channels\": " << r.channels << ",\n";
        out << "      \"baseline_full_solve\": " << sdfbench::stats_json(r.full)
            << ",\n";
        out << "      \"incremental_edit\": " << sdfbench::stats_json(r.edit)
            << ",\n";
        out << "      \"speedup_edit_vs_full\": " << sdfbench::json_num(r.speedup)
            << ",\n";
        out << "      \"refines\": " << r.refines << ",\n";
        out << "      \"rescored_sccs\": " << r.rescored_sccs << ",\n";
        out << "      \"bit_identical\": " << (r.bit_identical ? "true" : "false")
            << "\n";
        out << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    std::printf("wrote %s\n", path.c_str());
}

void BM_FullSolve(benchmark::State& state) {
    const auto fixtures = prepare();
    const Fixture& f = fixtures[static_cast<std::size_t>(state.range(0))];
    const Graph edited = edited_copy(f);
    for (auto _ : state) {
        benchmark::DoNotOptimize(throughput_symbolic(edited));
    }
    state.SetLabel(f.label);
}

void BM_IncrementalEdit(benchmark::State& state) {
    const auto fixtures = prepare();
    const Fixture& f = fixtures[static_cast<std::size_t>(state.range(0))];
    warm_throughput(f.graph);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cached_throughput(edited_copy(f)));
    }
    state.SetLabel(f.label);
}

BENCHMARK(BM_FullSolve)->DenseRange(0, 1);
BENCHMARK(BM_IncrementalEdit)->DenseRange(0, 1);

}  // namespace

int main(int argc, char** argv) {
    const std::string json_path = sdfbench::consume_flag(argc, argv, "--json", "");
    const int reps = std::max(1, std::atoi(
        sdfbench::consume_flag(argc, argv, "--reps", "5").c_str()));
    const double min_speedup = std::atof(
        sdfbench::consume_flag(argc, argv, "--min-speedup", "0").c_str());

    std::vector<Report> reports;
    for (const Fixture& f : prepare()) {
        reports.push_back(measure(f, reps));
    }
    std::printf("%-20s %16s %16s %10s %8s %8s\n", "test case", "full (ms)",
                "edit (ms)", "speedup", "refines", "rescored");
    for (const Report& r : reports) {
        std::printf("%-20s %16.3f %16.3f %9.1fx %8llu %8llu\n", r.name.c_str(),
                    r.full.median_ms, r.edit.median_ms, r.speedup,
                    static_cast<unsigned long long>(r.refines),
                    static_cast<unsigned long long>(r.rescored_sccs));
    }

    if (!json_path.empty()) {
        write_json(json_path, reports, reps);
    }
    // The gate applies to the headline case only: the single-cycle fixture
    // exists to document the lower bound, not to enforce it.
    if (min_speedup > 0 && reports.front().speedup < min_speedup) {
        std::printf("ERROR: %s speedup %.1fx below the %.1fx gate\n",
                    reports.front().name.c_str(), reports.front().speedup,
                    min_speedup);
        return 1;
    }
    if (!json_path.empty()) {
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
