// Fast routing-only sweep over the Table I suite, emitting a JSON
// record per (circuit, router, layout_trials) cell:
//
//   [{"circuit": "qft_n15", "router": "sabre", "wall_ms": 1.84,
//     "swaps": 155, "layout_ms": 11.2, "layout_trials": 1,
//     "route_passes": 1}, ...]
//
// The `bench_json` CMake/CTest target runs this and CI uploads the
// resulting BENCH_routing.json, so the repository accumulates a
// routing-performance trajectory across commits;
// bench/compare_bench_json.py diffs it against the committed
// bench/BENCH_baseline.json as an advisory regression gate.
//
// Two timed regions per cell, both deliberately separated:
//
//  - layout_ms: one search_and_route() run (the LayoutSearch engine,
//    honouring --threads), timed per trial count; this includes the
//    per-trial full-circuit scoring passes, which on kSabre pipelines
//    double as the final route (retained-trial reuse);
//  - wall_ms: route_circuit() alone, best of --reps runs from the one
//    fixed layout derived above — layout search never sits inside the
//    routing-timed region, so the router trend stays clean.
//
// route_passes records the full-circuit routing passes a transpile()
// with that (router, trials) cell performs: the per-trial scoring
// passes, plus one separate final route unless the winning trial's
// pass is reused (kSabre).  Reuse therefore shows exactly one fewer
// pass than the same cell without it.
//
// Usage: routing_sweep_json [--out PATH] [--reps N] [--trials N]
//                           [--threads N]
//
// By default each circuit is swept at layout_trials = 1 and 4;
// --trials N restricts the sweep to that single trial count.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/route/layout_search.h"
#include "nassc/route/sabre.h"
#include "nassc/topo/backends.h"

using namespace nassc;

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_routing.json";
    int reps = 3;   // best-of-N wall time per cell
    int trials_override = 0;
    int threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[++i];
        else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc)
            reps = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--trials") && i + 1 < argc)
            trials_override = std::atoi(argv[++i]);
        else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc)
            threads = std::atoi(argv[++i]);
    }
    if (reps < 1)
        reps = 1;
    std::vector<int> trial_counts = {1, 4};
    if (trials_override > 0)
        trial_counts = {trials_override};

    Backend dev = montreal_backend();
    const DenseDistanceProvider dist(hop_distance(dev.coupling));

    std::string json = "[\n";
    bool first = true;
    for (const BenchmarkCase &bc : table_benchmarks()) {
        QuantumCircuit logical = decompose_to_2q(bc.circuit);
        for (int trials : trial_counts) {
            // One shared SABRE-refined layout per (circuit, trials)
            // cell (as in transpile()), derived once and hoisted out of
            // the routing-timed loop below.
            RoutingOptions lopts;
            lopts.layout_trials = trials;
            lopts.layout_threads = threads;
            // Best-of-reps like wall_ms below: the search is
            // deterministic, so repeats only shave scheduler noise off
            // the regression gate.
            double layout_ms = 0.0;
            LayoutSearchResult search;
            for (int r = 0; r < reps; ++r) {
                auto l0 = std::chrono::steady_clock::now();
                search = search_and_route(logical, dev.coupling, dist,
                                          lopts);
                auto l1 = std::chrono::steady_clock::now();
                double ms =
                    std::chrono::duration<double, std::milli>(l1 - l0)
                        .count();
                if (r == 0 || ms < layout_ms)
                    layout_ms = ms;
            }
            const Layout &init = search.initial;
            for (RoutingAlgorithm alg :
                 {RoutingAlgorithm::kSabre, RoutingAlgorithm::kNassc}) {
                RoutingOptions opts;
                opts.algorithm = alg;
                // What a transpile() of this cell performs.  The
                // kSabre count comes from the search's own accounting
                // (it ran with exactly these options, retention
                // included); kNassc retains nothing, so it pays the
                // same racing-mode scoring passes plus the tracker
                // route — scoring_passes would be 0 for trials == 1
                // since nothing consumes an unretained single score.
                const int route_passes =
                    alg == RoutingAlgorithm::kSabre
                        ? search.scoring_passes +
                              (search.routed ? 0 : 1)
                        : (trials > 1 ? trials : 0) + 1;
                double best_ms = 0.0;
                int swaps = 0;
                for (int r = 0; r < reps; ++r) {
                    auto t0 = std::chrono::steady_clock::now();
                    RoutingResult res = route_circuit(
                        logical, dev.coupling, dist, init, opts);
                    auto t1 = std::chrono::steady_clock::now();
                    double ms =
                        std::chrono::duration<double, std::milli>(t1 - t0)
                            .count();
                    if (r == 0 || ms < best_ms)
                        best_ms = ms;
                    swaps = res.stats.num_swaps;
                }
                char row[360];
                std::snprintf(
                    row, sizeof(row),
                    "  {\"circuit\": \"%s\", \"router\": \"%s\", "
                    "\"wall_ms\": %.3f, \"swaps\": %d, "
                    "\"layout_ms\": %.3f, \"layout_trials\": %d, "
                    "\"route_passes\": %d}",
                    bc.name.c_str(),
                    alg == RoutingAlgorithm::kSabre ? "sabre" : "nassc",
                    best_ms, swaps, layout_ms, trials, route_passes);
                if (!first)
                    json += ",\n";
                json += row;
                first = false;
                std::printf(
                    "%-16s %-6s %8.3f ms  %6d swaps  (layout %8.3f ms, "
                    "%d trials, %d passes)\n",
                    bc.name.c_str(),
                    alg == RoutingAlgorithm::kSabre ? "sabre" : "nassc",
                    best_ms, swaps, layout_ms, trials, route_passes);
            }
        }
    }
    json += "\n]\n";

    std::ofstream f(out_path);
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    f << json;
    std::printf("json written to %s\n", out_path.c_str());
    return 0;
}
