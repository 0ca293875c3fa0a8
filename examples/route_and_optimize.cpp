// Scenario: compile a QFT onto the ibmq_montreal heavy-hex lattice and
// compare the SABRE baseline against NASSC — the paper's Table I
// experiment for one workload, with the routing statistics that explain
// where the savings come from.
//
//   $ ./route_and_optimize [n_qubits]

#include <cstdio>
#include <cstdlib>

#include "nassc/circuits/library.h"
#include "nassc/transpile/context.h"

using namespace nassc;

int
main(int argc, char **argv)
{
    int n = argc > 1 ? std::atoi(argv[1]) : 15;
    Backend device = montreal_backend();
    QuantumCircuit logical = qft(n);

    // Optimization-only baseline: the circuit cost without any routing.
    TranspileResult base = optimize_only(logical);
    std::printf("qft_n%d, original optimized CNOTs: %d, depth %d\n\n", n,
                base.cx_total, base.depth);

    TranspileContext &ctx = TranspileContext::global();
    const char *names[2] = {"Qiskit+SABRE", "Qiskit+NASSC"};
    for (int r = 0; r < 2; ++r) {
        double cx = 0, depth = 0, secs = 0;
        RoutingStats stats{};
        const int seeds = 5;
        for (int s = 0; s < seeds; ++s) {
            TranspileOptions opts;
            opts.router = static_cast<RoutingAlgorithm>(r);
            opts.seed = static_cast<unsigned>(s);
            TranspileResult res = ctx.transpile(logical, device, opts);
            cx += res.cx_total;
            depth += res.depth;
            secs += res.seconds;
            stats.num_swaps += res.routing_stats.num_swaps;
            stats.flagged_swaps += res.routing_stats.flagged_swaps;
            stats.c2q_hits += res.routing_stats.c2q_hits;
            stats.commute1_hits += res.routing_stats.commute1_hits;
            stats.commute2_hits += res.routing_stats.commute2_hits;
            stats.moved_1q += res.routing_stats.moved_1q;
        }
        std::printf("%s (avg of %d seeds):\n", names[r], seeds);
        std::printf("  CNOT total      %.1f  (additional %.1f)\n",
                    cx / seeds, cx / seeds - base.cx_total);
        std::printf("  depth           %.1f\n", depth / seeds);
        std::printf("  swaps           %.1f\n",
                    double(stats.num_swaps) / seeds);
        if (r == 1) {
            std::printf("  swaps flagged   %.1f (commute1 %.1f, commute2 "
                        "%.1f)\n",
                        double(stats.flagged_swaps) / seeds,
                        double(stats.commute1_hits) / seeds,
                        double(stats.commute2_hits) / seeds);
            std::printf("  c2q-aware picks %.1f\n",
                        double(stats.c2q_hits) / seeds);
            std::printf("  1q gates moved  %.1f\n",
                        double(stats.moved_1q) / seeds);
        }
        std::printf("  transpile time  %.3fs\n\n", secs / seeds);
    }
    return 0;
}
