// Tests for the perfect-layout (subgraph isomorphism) search and the
// closed-form fidelity estimator.

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/route/perfect_layout.h"
#include "nassc/route/sabre.h"
#include "nassc/sim/fidelity.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

TEST(InteractionEdges, DeduplicatesAndOrders)
{
    QuantumCircuit qc(3);
    qc.cx(0, 1);
    qc.cx(1, 0);
    qc.cz(2, 1);
    auto edges = interaction_edges(qc);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_EQ(edges[0], std::make_pair(0, 1));
    EXPECT_EQ(edges[1], std::make_pair(1, 2));
}

TEST(PerfectLayout, ChainEmbedsInLine)
{
    Backend dev = linear_backend(6);
    QuantumCircuit qc = ghz(5); // chain interactions 0-1-2-3-4
    auto layout = find_perfect_layout(qc, dev.coupling);
    ASSERT_TRUE(layout.has_value());
    for (auto [a, b] : interaction_edges(qc))
        EXPECT_TRUE(dev.coupling.connected(layout->phys_of(a),
                                           layout->phys_of(b)));
}

TEST(PerfectLayout, ChainEmbedsInMontreal)
{
    Backend dev = montreal_backend();
    QuantumCircuit qc = ghz(10);
    auto layout = find_perfect_layout(qc, dev.coupling);
    ASSERT_TRUE(layout.has_value());
    for (auto [a, b] : interaction_edges(qc))
        EXPECT_TRUE(dev.coupling.connected(layout->phys_of(a),
                                           layout->phys_of(b)));
}

TEST(PerfectLayout, StarRejectsOnLine)
{
    // A degree-4 hub cannot embed into a line (max degree 2).
    Backend dev = linear_backend(8);
    QuantumCircuit qc(5);
    for (int i = 1; i < 5; ++i)
        qc.cx(0, i);
    EXPECT_FALSE(find_perfect_layout(qc, dev.coupling).has_value());
}

TEST(PerfectLayout, StarEmbedsInGrid)
{
    // Degree-4 hub fits a grid center.
    Backend dev = grid_backend(3, 3);
    QuantumCircuit qc(5);
    for (int i = 1; i < 5; ++i)
        qc.cx(0, i);
    auto layout = find_perfect_layout(qc, dev.coupling);
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->phys_of(0), 4); // only the center has degree 4
}

TEST(PerfectLayout, FullGraphRejectsQuickly)
{
    // K5 interaction graph cannot embed into any sparse topology.
    Backend dev = montreal_backend();
    QuantumCircuit qc = vqe_full(5, 1, 1);
    EXPECT_FALSE(find_perfect_layout(qc, dev.coupling).has_value());
}

TEST(PerfectLayout, PerfectLayoutNeedsNoSwaps)
{
    Backend dev = montreal_backend();
    const DenseDistanceProvider dist(hop_distance(dev.coupling));
    QuantumCircuit qc = ghz(8);
    auto layout = find_perfect_layout(qc, dev.coupling);
    ASSERT_TRUE(layout.has_value());
    RoutingOptions opts;
    RoutingResult res = route_circuit(qc, dev.coupling, dist, *layout, opts);
    EXPECT_EQ(res.stats.num_swaps, 0);
}

TEST(Fidelity, EmptyCircuitIsPerfect)
{
    Backend dev = linear_backend(3);
    QuantumCircuit qc(3);
    EXPECT_DOUBLE_EQ(estimate_success_probability(qc, dev), 1.0);
}

TEST(Fidelity, RzIsFree)
{
    Backend dev = linear_backend(3);
    QuantumCircuit qc(3);
    qc.rz(0.3, 0);
    qc.t(1);
    EXPECT_DOUBLE_EQ(estimate_success_probability(qc, dev), 1.0);
}

TEST(Fidelity, MonotoneInCxCount)
{
    Backend dev = linear_backend(3);
    QuantumCircuit one(3);
    one.cx(0, 1);
    QuantumCircuit three = one;
    three.cx(0, 1);
    three.cx(0, 1);
    EXPECT_GT(estimate_success_probability(one, dev),
              estimate_success_probability(three, dev));
}

TEST(Fidelity, MatchesProductByHand)
{
    Backend dev = linear_backend(3);
    QuantumCircuit qc(3);
    qc.sx(0);
    qc.cx(0, 1);
    qc.measure(1);
    double expect = (1.0 - dev.calibration.error_1q[0]) *
                    (1.0 - dev.calibration.cx_error(0, 1)) *
                    (1.0 - dev.calibration.readout_error[1]);
    EXPECT_NEAR(estimate_success_probability(qc, dev), expect, 1e-12);
}

TEST(Fidelity, NasscRoutingNotWorseOnAggregate)
{
    Backend dev = montreal_backend();
    double sabre_p = 0.0, nassc_p = 0.0;
    for (auto &bc : fig11_benchmarks()) {
        TranspileOptions so;
        so.router = RoutingAlgorithm::kSabre;
        TranspileOptions no;
        no.router = RoutingAlgorithm::kNassc;
        sabre_p +=
            estimate_success_probability(transpile(bc.circuit, dev, so).circuit,
                                         dev);
        nassc_p +=
            estimate_success_probability(transpile(bc.circuit, dev, no).circuit,
                                         dev);
    }
    EXPECT_GT(nassc_p, sabre_p * 0.9);
}

} // namespace
} // namespace nassc
