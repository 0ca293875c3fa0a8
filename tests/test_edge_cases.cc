// Error-path and boundary-condition tests across modules: the places a
// downstream user will hit first when they hold the API wrong.

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/math/weyl.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/sim/noise.h"
#include "nassc/sim/statevector.h"
#include "nassc/sim/unitary.h"
#include "nassc/synth/mct.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

// ---- construction errors ------------------------------------------------------

TEST(EdgeCases, CircuitRejectsNegativeRegister)
{
    EXPECT_THROW(QuantumCircuit(-1), std::invalid_argument);
}

TEST(EdgeCases, ComposeRejectsBiggerRegister)
{
    QuantumCircuit small(2), big(3);
    big.h(2);
    EXPECT_THROW(small.compose(big), std::invalid_argument);
}

TEST(EdgeCases, TranspileRejectsOversizedCircuit)
{
    Backend dev = linear_backend(3);
    QuantumCircuit qc(5);
    TranspileOptions opts;
    EXPECT_THROW(transpile(qc, dev, opts), std::invalid_argument);
}

TEST(EdgeCases, TranspileRejectsOverWideCircuitBeforeAllocating)
{
    // A two-gate circuit declaring 10^8 qubits: every pipeline stage
    // sizes per-wire state by num_qubits(), so the width check has to
    // come first or the lowering and pre-optimization passes allocate
    // gigabytes before the layout stage rejects it.
    const QuantumCircuit qc =
        from_qasm("qreg q[100000000]; h q[0]; cx q[0], q[1];");
    TranspileOptions opts;
    try {
        (void)transpile(qc, montreal_backend(), opts);
        FAIL() << "over-wide circuit was accepted";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(), "more logical than physical qubits");
    }
}

TEST(EdgeCases, StatevectorRejectsHugeRegister)
{
    EXPECT_THROW(Statevector(27), std::invalid_argument);
}

// ---- degenerate circuits ------------------------------------------------------

TEST(EdgeCases, TranspileEmptyCircuit)
{
    Backend dev = linear_backend(4);
    QuantumCircuit qc(3);
    TranspileOptions opts;
    TranspileResult res = transpile(qc, dev, opts);
    EXPECT_EQ(res.cx_total, 0);
    EXPECT_EQ(res.depth, 0);
}

TEST(EdgeCases, TranspileMeasureOnlyCircuit)
{
    Backend dev = linear_backend(4);
    QuantumCircuit qc(2);
    qc.measure_all();
    TranspileOptions opts;
    TranspileResult res = transpile(qc, dev, opts);
    EXPECT_EQ(res.circuit.count(OpKind::kMeasure), 2);
}

TEST(EdgeCases, SingleQubitDevice)
{
    Backend dev = linear_backend(1);
    QuantumCircuit qc(1);
    qc.h(0);
    TranspileOptions opts;
    TranspileResult res = transpile(qc, dev, opts);
    EXPECT_TRUE(is_basis_circuit(res.circuit));
    EXPECT_EQ(res.routing_stats.num_swaps, 0);
}

TEST(EdgeCases, BarrierOnlyCircuit)
{
    Backend dev = linear_backend(3);
    QuantumCircuit qc(3);
    qc.barrier();
    TranspileOptions opts;
    TranspileResult res = transpile(qc, dev, opts);
    EXPECT_EQ(res.circuit.count(OpKind::kBarrier), 1);
}

// ---- qasm error paths ----------------------------------------------------------

TEST(EdgeCases, QasmMissingRegister)
{
    EXPECT_THROW(from_qasm("h q[0];"), std::runtime_error);
}

TEST(EdgeCases, QasmMalformedExpression)
{
    EXPECT_THROW(from_qasm("qreg q[1]; rz(pi*) q[0];"), std::runtime_error);
    EXPECT_THROW(from_qasm("qreg q[1]; rz(frob) q[0];"), std::runtime_error);
    EXPECT_THROW(from_qasm("qreg q[1]; rz((1+2) q[0];"), std::runtime_error);
}

/** The message from_qasm(text) throws, or "" when it parses. */
std::string
qasm_error(const std::string &text)
{
    try {
        from_qasm(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(EdgeCases, QasmNumericLiteralsOutOfRange)
{
    // Each rejection is a qasm: error naming the offending statement,
    // not a bare std::stoi / std::stod message.
    const struct
    {
        const char *text;
        const char *stmt;
    } cases[] = {
        {"qreg q[99999999999999999999];", "qreg q[99999999999999999999]"},
        {"qreg q[2]; h q[99999999999999999999];",
         "h q[99999999999999999999]"},
        {"qreg q[1]; rz(1e400) q[0];", "rz(1e400) q[0]"},
        {"qreg q[1]; rz(.) q[0];", "rz(.) q[0]"},
    };
    for (const auto &c : cases) {
        const std::string msg = qasm_error(c.text);
        EXPECT_EQ(msg.rfind("qasm:", 0), 0u) << c.text << " -> " << msg;
        EXPECT_NE(msg.find(c.stmt), std::string::npos)
            << c.text << " -> " << msg;
    }
}

TEST(EdgeCases, QasmRegisterDeclarationsAreBounded)
{
    // Duplicate names, empty or negative sizes, and totals past INT_MAX
    // are rejected rather than rebound, accepted, or overflowed.
    for (const char *text : {
             "qreg q[2]; qreg q[3];",
             "qreg q[0];",
             "qreg q[-4];",
             "qreg q[99999999999];",
             "qreg a[2000000000]; qreg b[2000000000];",
         }) {
        const std::string msg = qasm_error(text);
        EXPECT_EQ(msg.rfind("qasm:", 0), 0u) << text << " -> " << msg;
    }
    // Distinct registers still flatten in declaration order.
    EXPECT_EQ(from_qasm("qreg a[2]; qreg b[3]; cx a[1], b[2];").num_qubits(),
              5);
}

TEST(EdgeCases, QasmWholeRegisterOperandUnsupported)
{
    EXPECT_THROW(from_qasm("qreg q[2]; h q;"), std::runtime_error);
}

TEST(EdgeCases, QasmEmptyInputGivesEmptyCircuit)
{
    QuantumCircuit qc = from_qasm("OPENQASM 2.0;\n");
    EXPECT_EQ(qc.num_qubits(), 0);
    EXPECT_EQ(qc.size(), 0u);
}

// ---- numerical boundaries -------------------------------------------------------

TEST(EdgeCases, KakAtChamberCorners)
{
    // Exact chamber corners: identity, CX class, iSWAP class, SWAP class,
    // B-gate (pi/4, pi/8, 0) and the chiral midpoint (pi/8, pi/8, pi/8).
    const double pi4 = M_PI / 4.0, pi8 = M_PI / 8.0;
    struct
    {
        double a, b, c;
        int cost;
    } cases[] = {
        {0, 0, 0, 0},          {pi4, 0, 0, 1},   {pi4, pi4, 0, 2},
        {pi4, pi4, pi4, 3},    {pi4, pi8, 0, 2}, {pi8, pi8, pi8, 3},
        {pi4, pi4, -pi4 + 1e-3, 3},
    };
    for (auto &cs : cases) {
        Mat4 u = canonical_gate(cs.a, cs.b, cs.c);
        EXPECT_EQ(cnot_cost(u), cs.cost)
            << cs.a << "," << cs.b << "," << cs.c;
        Kak k = kak_decompose(u);
        canonicalize(k);
        EXPECT_LT(frobenius_distance(u, kak_reconstruct(k)), 1e-6);
    }
}

TEST(EdgeCases, KakNearBoundaryPerturbations)
{
    // Tiny perturbations off chamber corners must not destabilize the
    // decomposition.
    std::mt19937 rng(4);
    std::uniform_real_distribution<double> eps(-1e-9, 1e-9);
    const double pi4 = M_PI / 4.0;
    for (int trial = 0; trial < 25; ++trial) {
        Mat4 u = canonical_gate(pi4 + eps(rng), eps(rng), eps(rng));
        Kak k = kak_decompose(u);
        canonicalize(k);
        EXPECT_LT(frobenius_distance(u, kak_reconstruct(k)), 1e-6);
        EXPECT_EQ(cnot_cost_coords(k.a, k.b, k.c), 1);
    }
}

TEST(EdgeCases, RzAnglePeriodicity)
{
    // rz(theta + 4pi) == rz(theta) exactly; 2pi differs by global phase
    // only, which synthesis treats as equal.
    QuantumCircuit a(1), b(1);
    a.rz(0.5, 0);
    b.rz(0.5 + 4.0 * M_PI, 0);
    EXPECT_TRUE(circuits_equivalent(a, b));
}

TEST(EdgeCases, NoiseModelZeroTrialGuard)
{
    Backend dev = linear_backend(3);
    NoiseModel nm = NoiseModel::from_backend(dev);
    QuantumCircuit qc(3);
    qc.h(0);
    SuccessRate sr = monte_carlo_success(qc, nm, {0, 1, 2}, 0, 1);
    EXPECT_EQ(sr.trials, 1);
}

TEST(EdgeCases, CalibrationRejectsUnknownEdge)
{
    Backend dev = linear_backend(4);
    EXPECT_THROW(dev.calibration.cx_error(0, 3), std::out_of_range);
}

TEST(EdgeCases, MctNoControlsIsX)
{
    auto gates = decompose_mcx({}, 2, 4);
    ASSERT_EQ(gates.size(), 1u);
    EXPECT_EQ(gates[0].kind, OpKind::kX);
}

} // namespace
} // namespace nassc
