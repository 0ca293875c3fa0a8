// Golden-metrics regression for the router core.
//
// The optimized router (flat DistanceMatrix, CSR DAG adjacency, epoch-
// stamped scratch buffers, delta scoring) must emit *bit-identical*
// results to the seed implementation: same RoutingStats, same physical
// gate sequence (including SWAP orientation flags), same initial and
// final layouts.  The golden values below were recorded by running the
// seed implementation over the Table I suite on ibmq_montreal for both
// SABRE and NASSC, with and without decay, on hop and noise-aware
// distances.
//
// Regenerate after an *intentional* behavior change with:
//
//   NASSC_REGEN_GOLDENS=1 ./test_router_equivalence | grep '^    {'
//
// and paste the output into kGoldens.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "nassc/circuits/library.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/route/sabre.h"
#include "nassc/topo/backends.h"
#include "nassc/transpile/transpile.h"

namespace nassc {
namespace {

/** FNV-1a over the routed gate stream and the layouts. */
class Fnv
{
  public:
    void
    mix_u64(std::uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= (v >> (8 * byte)) & 0xffu;
            h_ *= 1099511628211ull;
        }
    }

    void
    mix_double(double x)
    {
        std::uint64_t v;
        std::memcpy(&v, &x, sizeof(v));
        mix_u64(v);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t
routing_fingerprint(const RoutingResult &res)
{
    Fnv f;
    for (const Gate &g : res.circuit.gates()) {
        f.mix_u64(static_cast<std::uint64_t>(g.kind));
        f.mix_u64(static_cast<std::uint64_t>(g.swap_orient) + 2);
        for (int q : g.qubits)
            f.mix_u64(static_cast<std::uint64_t>(q));
        for (double p : g.params)
            f.mix_double(p);
    }
    for (int p : res.initial_l2p)
        f.mix_u64(static_cast<std::uint64_t>(p));
    for (int p : res.final_l2p)
        f.mix_u64(static_cast<std::uint64_t>(p));
    return f.value();
}

struct Config
{
    const char *tag;
    RoutingAlgorithm algorithm;
    bool use_decay;
    bool noise_aware;
};

constexpr Config kConfigs[] = {
    {"sabre/decay/hops", RoutingAlgorithm::kSabre, true, false},
    {"sabre/nodecay/noise", RoutingAlgorithm::kSabre, false, true},
    {"nassc/decay/hops", RoutingAlgorithm::kNassc, true, false},
    {"nassc/nodecay/noise", RoutingAlgorithm::kNassc, false, true},
};

struct Golden
{
    const char *circuit;
    const char *config;
    RoutingStats stats;
    std::uint64_t fingerprint;
};

// clang-format off
const Golden kGoldens[] = {
    {"grover_n4", "sabre/decay/hops", {43, 0, 0, 0, 0, 0, 0}, 0xffc5126c5e224f57ull},
    {"grover_n4", "sabre/nodecay/noise", {52, 0, 0, 0, 0, 0, 0}, 0x700fadf0f2eacc54ull},
    {"grover_n4", "nassc/decay/hops", {31, 17, 24, 17, 0, 33, 0}, 0x50ca2b6c77ce0d06ull},
    {"grover_n4", "nassc/nodecay/noise", {29, 22, 22, 19, 3, 35, 0}, 0xb832d6afd77c6360ull},
    {"grover_n6", "sabre/decay/hops", {215, 0, 0, 0, 0, 0, 0}, 0x7a8d12302d3bf046ull},
    {"grover_n6", "sabre/nodecay/noise", {204, 0, 0, 0, 0, 0, 0}, 0x9dc0ce192f703db6ull},
    {"grover_n6", "nassc/decay/hops", {185, 93, 97, 93, 0, 165, 0}, 0x68703b1316114d10ull},
    {"grover_n6", "nassc/nodecay/noise", {193, 87, 91, 87, 0, 158, 0}, 0x34092e6bf17771dbull},
    {"grover_n8", "sabre/decay/hops", {733, 0, 0, 0, 0, 0, 0}, 0x8c495334138c3cb8ull},
    {"grover_n8", "sabre/nodecay/noise", {985, 0, 0, 0, 0, 0, 0}, 0xbf77a545fdd6919cull},
    {"grover_n8", "nassc/decay/hops", {727, 356, 343, 341, 15, 550, 0}, 0xee508ad625700ef3ull},
    {"grover_n8", "nassc/nodecay/noise", {902, 358, 355, 346, 12, 560, 0}, 0x65391c667be97c97ull},
    {"vqe_n8", "sabre/decay/hops", {85, 0, 0, 0, 0, 0, 0}, 0x96796306c5e435f7ull},
    {"vqe_n8", "sabre/nodecay/noise", {107, 0, 0, 0, 0, 0, 0}, 0x1a482dcffe224328ull},
    {"vqe_n8", "nassc/decay/hops", {73, 56, 41, 55, 1, 17, 0}, 0x71c019e10b48cae7ull},
    {"vqe_n8", "nassc/nodecay/noise", {80, 69, 67, 69, 0, 20, 0}, 0xb396697087d3a8caull},
    {"vqe_n12", "sabre/decay/hops", {260, 0, 0, 0, 0, 0, 0}, 0xaa62b56d81303a91ull},
    {"vqe_n12", "sabre/nodecay/noise", {315, 0, 0, 0, 0, 0, 0}, 0xe1f0f1f2450eefe1ull},
    {"vqe_n12", "nassc/decay/hops", {268, 162, 137, 153, 9, 29, 0}, 0xd74792b38d51d1ebull},
    {"vqe_n12", "nassc/nodecay/noise", {344, 168, 135, 128, 40, 20, 0}, 0x4f942a03794b337full},
    {"bv_n19", "sabre/decay/hops", {17, 0, 0, 0, 0, 0, 0}, 0xaaf5b08d8667a516ull},
    {"bv_n19", "sabre/nodecay/noise", {33, 0, 0, 0, 0, 0, 0}, 0x9631b2045e5249daull},
    {"bv_n19", "nassc/decay/hops", {23, 9, 7, 7, 2, 7, 0}, 0x29c0b7929cc80c3bull},
    {"bv_n19", "nassc/nodecay/noise", {28, 14, 11, 13, 1, 13, 0}, 0xc944bf30612d1b7eull},
    {"qft_n15", "sabre/decay/hops", {155, 0, 0, 0, 0, 0, 0}, 0xd6772d32acf3addeull},
    {"qft_n15", "sabre/nodecay/noise", {177, 0, 0, 0, 0, 0, 0}, 0x75ec18e733ef591eull},
    {"qft_n15", "nassc/decay/hops", {169, 13, 43, 0, 13, 0, 0}, 0x0e5e4a38b0a82348ull},
    {"qft_n15", "nassc/nodecay/noise", {168, 30, 38, 0, 30, 0, 0}, 0x1d6e23653ac441f9ull},
    {"qft_n20", "sabre/decay/hops", {318, 0, 0, 0, 0, 0, 0}, 0xf8ea8f6ddce453adull},
    {"qft_n20", "sabre/nodecay/noise", {379, 0, 0, 0, 0, 0, 0}, 0xf21f6c5ef960505cull},
    {"qft_n20", "nassc/decay/hops", {304, 42, 71, 0, 42, 0, 0}, 0xb6a9be76001bda55ull},
    {"qft_n20", "nassc/nodecay/noise", {476, 58, 113, 0, 58, 0, 0}, 0xd3dda62e6af59affull},
    {"qpe_n9", "sabre/decay/hops", {39, 0, 0, 0, 0, 0, 0}, 0x0a8f96a2688d3fa9ull},
    {"qpe_n9", "sabre/nodecay/noise", {39, 0, 0, 0, 0, 0, 0}, 0xd12e2295a7cae2a9ull},
    {"qpe_n9", "nassc/decay/hops", {47, 5, 23, 0, 5, 0, 0}, 0x31e948cbcefa76ddull},
    {"qpe_n9", "nassc/nodecay/noise", {48, 2, 23, 0, 2, 0, 0}, 0x15f262be7d556be1ull},
    {"adder_n10", "sabre/decay/hops", {25, 0, 0, 0, 0, 0, 0}, 0x72a41105b2a578faull},
    {"adder_n10", "sabre/nodecay/noise", {30, 0, 0, 0, 0, 0, 0}, 0xcc39b6df137d50e0ull},
    {"adder_n10", "nassc/decay/hops", {21, 8, 8, 8, 0, 12, 0}, 0xc3ee2e6ee7bb229dull},
    {"adder_n10", "nassc/nodecay/noise", {22, 9, 9, 9, 0, 12, 0}, 0x025a58b4086e805full},
    {"multiplier_n25", "sabre/decay/hops", {649, 0, 0, 0, 0, 0, 0}, 0xd147df97f9a5a5abull},
    {"multiplier_n25", "sabre/nodecay/noise", {928, 0, 0, 0, 0, 0, 0}, 0xa5cab9bdd99d8aafull},
    {"multiplier_n25", "nassc/decay/hops", {632, 281, 281, 281, 0, 407, 0}, 0x58feb58b9a923551ull},
    {"multiplier_n25", "nassc/nodecay/noise", {1351, 296, 291, 290, 6, 440, 0}, 0xd5df98a8875b9a77ull},
    {"sqn_258", "sabre/decay/hops", {2662, 0, 0, 0, 0, 0, 0}, 0x78a18f11e3c73acaull},
    {"sqn_258", "sabre/nodecay/noise", {4387, 0, 0, 0, 0, 0, 0}, 0x9ad06189d32c9277ull},
    {"sqn_258", "nassc/decay/hops", {2665, 1180, 1149, 1150, 30, 1900, 0}, 0xb1b6b08837b6eeecull},
    {"sqn_258", "nassc/nodecay/noise", {4646, 1381, 1323, 1313, 68, 2133, 0}, 0xd32cabb8cd0f7124ull},
    {"rd84_253", "sabre/decay/hops", {3760, 0, 0, 0, 0, 0, 0}, 0x5cac92044ad884abull},
    {"rd84_253", "sabre/nodecay/noise", {5940, 0, 0, 0, 0, 0, 0}, 0x8886f950b35c5106ull},
    {"rd84_253", "nassc/decay/hops", {3747, 1627, 1588, 1588, 39, 2598, 0}, 0xf7b5b3389e6ab203ull},
    {"rd84_253", "nassc/nodecay/noise", {6210, 1871, 1819, 1800, 71, 2877, 0}, 0x110c1ccee103f64full},
    {"co14_215", "sabre/decay/hops", {5571, 0, 0, 0, 0, 0, 0}, 0xf14d09c9779154e8ull},
    {"co14_215", "sabre/nodecay/noise", {8749, 0, 0, 0, 0, 0, 0}, 0x90e8914924adc299ull},
    {"co14_215", "nassc/decay/hops", {5484, 2157, 2131, 2131, 26, 3503, 0}, 0xb009155854124646ull},
    {"co14_215", "nassc/nodecay/noise", {10101, 2495, 2364, 2361, 134, 3799, 0}, 0x3f728a03338dcf61ull},
    {"sym9_193", "sabre/decay/hops", {11244, 0, 0, 0, 0, 0, 0}, 0x0795d24c55ebb134ull},
    {"sym9_193", "sabre/nodecay/noise", {15309, 0, 0, 0, 0, 0, 0}, 0x01a81ade71e4b28eull},
    {"sym9_193", "nassc/decay/hops", {11013, 4351, 4282, 4283, 68, 6960, 0}, 0x189d7eaed4bf5a50ull},
    {"sym9_193", "nassc/nodecay/noise", {15823, 4691, 4503, 4479, 212, 7279, 0}, 0xb8d2cd265a3c687full},
};
// clang-format on

RoutingResult
route_one(const QuantumCircuit &raw, unsigned seed, const Config &cfg)
{
    Backend dev = montreal_backend();
    QuantumCircuit logical = decompose_to_2q(raw);

    RoutingOptions opts;
    opts.algorithm = cfg.algorithm;
    opts.use_decay = cfg.use_decay;
    opts.seed = seed;

    const DenseDistanceProvider dist(cfg.noise_aware
                                         ? noise_aware_distance(dev)
                                         : hop_distance(dev.coupling));
    Layout init = sabre_initial_layout(logical, dev.coupling, dist, opts);
    return route_circuit(logical, dev.coupling, dist, init, opts);
}

TEST(RouterEquivalence, TableISuiteMatchesSeedGoldens)
{
    const bool regen = std::getenv("NASSC_REGEN_GOLDENS") != nullptr;
    auto suite = table_benchmarks();

    std::size_t golden_idx = 0;
    for (std::size_t ci = 0; ci < suite.size(); ++ci) {
        for (const Config &cfg : kConfigs) {
            RoutingResult res =
                route_one(suite[ci].circuit, static_cast<unsigned>(ci), cfg);
            const RoutingStats &s = res.stats;
            std::uint64_t fp = routing_fingerprint(res);

            if (regen) {
                std::printf("    {\"%s\", \"%s\", {%d, %d, %d, %d, %d, %d, "
                            "%d}, 0x%016" PRIx64 "ull},\n",
                            suite[ci].name.c_str(), cfg.tag, s.num_swaps,
                            s.flagged_swaps, s.c2q_hits, s.commute1_hits,
                            s.commute2_hits, s.moved_1q, s.forced_moves, fp);
                continue;
            }

            ASSERT_LT(golden_idx, std::size(kGoldens))
                << "golden table shorter than the suite — regenerate";
            const Golden &g = kGoldens[golden_idx++];
            SCOPED_TRACE(std::string(suite[ci].name) + " / " + cfg.tag);
            ASSERT_STREQ(g.circuit, suite[ci].name.c_str());
            ASSERT_STREQ(g.config, cfg.tag);
            EXPECT_EQ(g.stats.num_swaps, s.num_swaps);
            EXPECT_EQ(g.stats.flagged_swaps, s.flagged_swaps);
            EXPECT_EQ(g.stats.c2q_hits, s.c2q_hits);
            EXPECT_EQ(g.stats.commute1_hits, s.commute1_hits);
            EXPECT_EQ(g.stats.commute2_hits, s.commute2_hits);
            EXPECT_EQ(g.stats.moved_1q, s.moved_1q);
            EXPECT_EQ(g.stats.forced_moves, s.forced_moves);
            EXPECT_EQ(g.fingerprint, fp)
                << "routed gate stream / layouts diverged from seed";
        }
    }
    if (!regen) {
        EXPECT_EQ(golden_idx, std::size(kGoldens));
    }
}

// Full-pipeline goldens: what transpile() emits after the optimization
// loop, not just what the router emits.  One row per Table I circuit x
// {sabre, nassc} on ibmq_montreal, default TranspileOptions, seed =
// circuit index.  Regenerate with the same NASSC_REGEN_GOLDENS idiom as
// kGoldens above (grep '^    {' picks up both tables, in this order).

struct PipelineGolden
{
    const char *circuit;
    const char *router;
    std::uint64_t fingerprint; ///< QuantumCircuit::fingerprint() of output
    int cx_total;
    int depth;
    int baseline_cx_total; ///< optimize_only() cx_total
};

// clang-format off
const PipelineGolden kPipelineGoldens[] = {
    {"grover_n4", "sabre", 0x76c3a1ebe4c3c74bull, 157, 377, 96},
    {"grover_n4", "nassc", 0x12bd2033db3be365ull, 141, 411, 96},
    {"grover_n6", "sabre", 0xb07a4237965befdbull, 885, 1374, 400},
    {"grover_n6", "nassc", 0xd515b6798e4eeea9ull, 767, 1487, 400},
    {"grover_n8", "sabre", 0x811a55dc52eb10bfull, 3377, 4681, 1328},
    {"grover_n8", "nassc", 0xa3c6e39e11389ac9ull, 3042, 5033, 1328},
    {"vqe_n8", "sabre", 0x10f5e9ae1cb1b44eull, 238, 194, 84},
    {"vqe_n8", "nassc", 0x61575333dff4d8b4ull, 161, 183, 84},
    {"vqe_n12", "sabre", 0xb38719d3ba842128ull, 869, 536, 198},
    {"vqe_n12", "nassc", 0x5da3f1557394e191ull, 660, 553, 198},
    {"bv_n19", "sabre", 0x151eeeea5cdb9e8bull, 61, 83, 18},
    {"bv_n19", "nassc", 0x5ed88a1cddfd068full, 69, 105, 18},
    {"qft_n15", "sabre", 0x62eeecd86133ed1full, 621, 705, 210},
    {"qft_n15", "nassc", 0xd35f14e94f71d03bull, 627, 696, 210},
    {"qft_n20", "sabre", 0x25aa42c9c1109c4bull, 1246, 1138, 380},
    {"qft_n20", "nassc", 0x40a022c062a51f4bull, 1150, 1112, 380},
    {"qpe_n9", "sabre", 0x2e6e268f66e3ff61ull, 129, 287, 63},
    {"qpe_n9", "nassc", 0xd4ed6bbaa8f5b027ull, 134, 280, 63},
    {"adder_n10", "sabre", 0x1af1d7bf9313fa66ull, 134, 204, 65},
    {"adder_n10", "nassc", 0xe35bb88b2ac0b55eull, 112, 204, 65},
    {"multiplier_n25", "sabre", 0x33f22128c530c4f4ull, 2422, 2674, 864},
    {"multiplier_n25", "nassc", 0x5f3a4ac2e6ca89e3ull, 2215, 3144, 864},
    {"sqn_258", "sabre", 0x911ec596ac23164aull, 10596, 14863, 4468},
    {"sqn_258", "nassc", 0x1905a210291e6f4eull, 10110, 15984, 4468},
    {"rd84_253", "sabre", 0x3848bb5fdbee2120ull, 16289, 20765, 6061},
    {"rd84_253", "nassc", 0xfa52aedb43f0bb44ull, 15352, 23732, 6061},
    {"co14_215", "sabre", 0x38bf8b33ee128cb2ull, 20923, 26568, 7949},
    {"co14_215", "nassc", 0x74cfe17eafd73927ull, 20060, 30130, 7949},
    {"sym9_193", "sabre", 0xb02b09743357e449ull, 42464, 54742, 15709},
    {"sym9_193", "nassc", 0xc2c8c0bd9499b786ull, 39369, 61604, 15709},
};
// clang-format on

TEST(RouterEquivalence, TableIPipelineMatchesGoldens)
{
    const bool regen = std::getenv("NASSC_REGEN_GOLDENS") != nullptr;
    const auto suite = table_benchmarks();
    const Backend dev = montreal_backend();
    DistanceCache cache;
    const struct
    {
        const char *tag;
        RoutingAlgorithm algorithm;
    } routers[] = {{"sabre", RoutingAlgorithm::kSabre},
                   {"nassc", RoutingAlgorithm::kNassc}};

    std::size_t golden_idx = 0;
    for (std::size_t ci = 0; ci < suite.size(); ++ci) {
        const int baseline_cx = optimize_only(suite[ci].circuit).cx_total;
        for (const auto &r : routers) {
            TranspileOptions opts;
            opts.router = r.algorithm;
            opts.seed = static_cast<unsigned>(ci);
            const TranspileResult res =
                transpile(suite[ci].circuit, dev, opts, cache);
            const std::uint64_t fp = res.circuit.fingerprint();

            if (regen) {
                std::printf("    {\"%s\", \"%s\", 0x%016" PRIx64
                            "ull, %d, %d, %d},\n",
                            suite[ci].name.c_str(), r.tag, fp, res.cx_total,
                            res.depth, baseline_cx);
                continue;
            }

            ASSERT_LT(golden_idx, std::size(kPipelineGoldens))
                << "pipeline golden table shorter than the suite — "
                   "regenerate";
            const PipelineGolden &g = kPipelineGoldens[golden_idx++];
            SCOPED_TRACE(std::string(suite[ci].name) + " / " + r.tag);
            ASSERT_STREQ(g.circuit, suite[ci].name.c_str());
            ASSERT_STREQ(g.router, r.tag);
            EXPECT_EQ(g.cx_total, res.cx_total);
            EXPECT_EQ(g.depth, res.depth);
            EXPECT_EQ(g.baseline_cx_total, baseline_cx);
            EXPECT_EQ(g.fingerprint, fp)
                << "transpiled output diverged from the recorded pipeline";
        }
    }
    if (!regen) {
        EXPECT_EQ(golden_idx, std::size(kPipelineGoldens));
    }
}

} // namespace
} // namespace nassc
