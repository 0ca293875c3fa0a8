// Tests for the transpilation verifier and the GHZ / QAOA / VQE /
// random-SU(4) circuit generators.

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/sim/verify.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

TEST(Verify, AcceptsCorrectTranspilationOnMontreal)
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = mod5mils_65();
    TranspileOptions opts;
    TranspileResult res = transpile(logical, dev, opts);
    EXPECT_TRUE(verify_transpilation(logical, res));
}

TEST(Verify, RejectsCorruptedResult)
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = mod5mils_65();
    TranspileOptions opts;
    TranspileResult res = transpile(logical, dev, opts);
    // Corrupt: flip an X on a wire holding a logical qubit.
    res.circuit.x(res.final_l2p[0]);
    EXPECT_FALSE(verify_transpilation(logical, res));
}

TEST(Verify, BothRoutersOnAllBenchSmall)
{
    Backend dev = montreal_backend();
    for (auto &bc : fig11_benchmarks()) {
        for (int r = 0; r < 2; ++r) {
            TranspileOptions opts;
            opts.router = static_cast<RoutingAlgorithm>(r);
            TranspileResult res = transpile(bc.circuit, dev, opts);
            EXPECT_TRUE(verify_transpilation(bc.circuit, res))
                << bc.name << " router=" << r;
        }
    }
}

TEST(NewCircuits, GhzStructure)
{
    QuantumCircuit qc = ghz(5);
    EXPECT_EQ(qc.cx_count(), 4);
    EXPECT_EQ(qc.depth(), 5);
}

TEST(NewCircuits, QaoaDeterministicAndRzzHeavy)
{
    QuantumCircuit a = qaoa_maxcut(8, 2, 3);
    QuantumCircuit b = qaoa_maxcut(8, 2, 3);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.count(OpKind::kRZZ), 10);
}

TEST(NewCircuits, VqeLinearCheaperThanFull)
{
    EXPECT_LT(vqe_linear(8).cx_count(), vqe_full(8).cx_count());
}

TEST(NewCircuits, RandomSu4Transpiles)
{
    Backend dev = linear_backend(6);
    QuantumCircuit logical = random_su4_circuit(5, 2, 11);
    TranspileOptions opts;
    TranspileResult res = transpile(logical, dev, opts);
    EXPECT_TRUE(verify_transpilation(logical, res));
}

} // namespace
} // namespace nassc
