// The serving workload: serve_repeat_mix.
//
// An in-process NasscServer (two service threads) on a unix socket,
// driven by a closed loop of two client connections.  Request i of the
// stream is a pure function of (--seed, i): about 9 in 10 pick one of
// the 18 warmed hot keys (cache hits), the rest a small circuit with a
// seed never used before (misses, which transpile and insert).  After
// the timed window every distinct response is compared byte for byte
// with to_qasm(transpile(...)) computed in this process, and the hot
// set's reference transpiles -- one caller, one at a time -- are the
// workload's compile pass.

#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "workloads.h"
#include "nassc/circuits/library.h"
#include "nassc/ir/qasm.h"
#include "nassc/passes/basis_translation.h"
#include "nassc/serve/client.h"
#include "nassc/serve/protocol.h"
#include "nassc/serve/server.h"
#include "nassc/sim/verify.h"
#include "nassc/transpile/context.h"

namespace perfbench {

using namespace nassc;

namespace {

using WireOptions = std::vector<std::pair<std::string, std::string>>;

constexpr const char *kBackend = "ibmq_montreal";
constexpr int kClients = 2;
constexpr int kServiceThreads = 2;
constexpr std::uint64_t kMissPerMille = 100;
/** Miss requests carry seed kFreshSeedBase + their stream index. */
constexpr std::uint64_t kFreshSeedBase = 1000000;

struct Key
{
    std::string name;
    std::string qasm; ///< lowered with decompose_to_2q: to_qasm needs it
    WireOptions options;
};

struct ServeInputs
{
    std::vector<Key> hot;
    std::vector<std::string> miss_qasm;
    std::unique_ptr<NasscServer> server;
};

/** One request of the stream. */
struct Draw
{
    int hot = -1;  ///< index into ServeInputs::hot, or -1 for a miss
    int miss = -1; ///< index into ServeInputs::miss_qasm
    WireOptions options;
};

Draw
draw(const ServeInputs &in, unsigned seed, std::uint64_t i)
{
    const std::uint64_t x = mix64(mix64(seed) + i);
    Draw d;
    if (x % 1000 < kMissPerMille) {
        d.miss = static_cast<int>((x >> 12) % in.miss_qasm.size());
        d.options = {{"router", (x >> 24) & 1 ? "nassc" : "sabre"},
                     {"seed", std::to_string(kFreshSeedBase + i)}};
    } else {
        d.hot = static_cast<int>((x >> 12) % in.hot.size());
    }
    return d;
}

ServeInputs
setup(const Args &args, const std::string &socket)
{
    ServeInputs in;
    const std::vector<std::string> hot_names =
        args.quick ? std::vector<std::string>{"qpe_n9", "adder_n10"}
                   : std::vector<std::string>{
                         "grover_n6", "vqe_n12", "qft_n15", "qft_n20",
                         "qpe_n9", "adder_n10", "multiplier_n25", "bv_n19",
                         "rd84_253"};
    for (const std::string &name : hot_names) {
        const std::string qasm = to_qasm(decompose_to_2q(benchmark_by_name(name)));
        for (const char *router : {"sabre", "nassc"})
            in.hot.push_back({name + "/" + router, qasm,
                              {{"router", router}, {"seed", "0"}}});
    }
    for (const char *name :
         {"grover_n4", "vqe_n8", "mod5mils_65", "decod24_v2_43"})
        in.miss_qasm.push_back(to_qasm(decompose_to_2q(benchmark_by_name(name))));

    ServerOptions options;
    options.unix_path = socket;
    options.service.num_threads = kServiceThreads;
    in.server = std::make_unique<NasscServer>(options);
    in.server->start();

    // Warm the hot set, two connections as in the timed loop.
    std::atomic<std::size_t> next{0};
    const std::vector<std::string> errors =
        parallel_for(kClients, kClients, [&](std::size_t) {
            ServeClient client = ServeClient::connect_unix(socket);
            for (std::size_t k = next++; k < in.hot.size(); k = next++) {
                const ServeResponse r = client.transpile_qasm(
                    in.hot[k].qasm, kBackend, in.hot[k].options);
                if (r.status != "ok")
                    throw std::runtime_error("warm-up " + in.hot[k].name +
                                             ": " + r.status + " " + r.error);
            }
        });
    for (const std::string &e : errors)
        if (!e.empty())
            throw std::runtime_error(e);
    return in;
}

struct Record
{
    std::uint64_t index = 0;
    double ms = 0.0;
    std::string source;
    bool ok = false;
    std::size_t hash = 0;
    std::size_t request_bytes = 0;
    std::size_t response_bytes = 0;
};

struct ClientLog
{
    std::vector<Record> records;
    std::map<int, std::string> hot_text;            ///< first reply per key
    std::map<std::uint64_t, std::string> miss_text; ///< by stream index
    long transport_errors = 0;
};

void
client_loop(const ServeInputs &in, const std::string &socket, unsigned seed,
            std::atomic<std::uint64_t> &next, Clock::time_point deadline,
            ClientLog &log)
{
    std::optional<ServeClient> client;
    while (Clock::now() < deadline) {
        const std::uint64_t i = next++;
        const Draw d = draw(in, seed, i);
        const std::string &qasm =
            d.hot >= 0 ? in.hot[d.hot].qasm : in.miss_qasm[d.miss];
        const WireOptions &options =
            d.hot >= 0 ? in.hot[d.hot].options : d.options;
        Record rec;
        rec.index = i;
        rec.request_bytes = qasm.size();
        try {
            if (!client)
                client.emplace(ServeClient::connect_unix(socket));
            const auto t0 = Clock::now();
            ServeResponse r = client->transpile_qasm(qasm, kBackend, options);
            rec.ms = ms_between(t0, Clock::now());
            rec.ok = r.status == "ok";
            rec.source = r.source;
            rec.response_bytes = r.qasm.size();
            rec.hash = std::hash<std::string>{}(r.qasm);
            if (rec.ok) {
                if (d.hot >= 0)
                    log.hot_text.emplace(d.hot, std::move(r.qasm));
                else
                    log.miss_text.emplace(i, std::move(r.qasm));
            }
        } catch (const std::exception &) {
            ++log.transport_errors;
            client.reset();
        }
        log.records.push_back(std::move(rec));
    }
}

/** Per-key reference: to_qasm(transpile(from_qasm(payload))). */
struct Reference
{
    TranspileResult result;
    QuantumCircuit logical;
    std::string text;
    std::size_t hash = 0;
};

Reference
reference(const TranspileContext &ctx, const Backend &backend,
          const std::string &qasm, const WireOptions &options,
          double *transpile_ms = nullptr)
{
    Reference ref;
    ref.logical = from_qasm(qasm);
    const TranspileOptions opts = parse_transpile_options(options);
    const auto t0 = Clock::now();
    ref.result = ctx.transpile(ref.logical, backend, opts);
    if (transpile_ms)
        *transpile_ms = ms_between(t0, Clock::now());
    ref.text = to_qasm(ref.result.circuit);
    ref.hash = std::hash<std::string>{}(ref.text);
    return ref;
}

/** Median wall time of fn over a few repetitions, in ms. */
double
time_ms(int reps, const std::function<void()> &fn)
{
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        fn();
        v.push_back(ms_between(t0, Clock::now()));
    }
    return median(v);
}

} // namespace

void
run_serve_workload(const Args &args, Report &report)
{
    const std::string socket =
        "perfbench-" + std::to_string(::getpid()) + ".sock";

    std::vector<double> setup_s;
    ServeInputs in;
    for (int i = 0; i < 3; ++i) {
        if (in.server)
            in.server->stop();
        const auto t0 = Clock::now();
        in = setup(args, socket);
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    report.set("setup_s", median(setup_s));
    std::printf("%s: %zu hot keys, %zu miss circuits, stream seed %u, "
                "%.0f s\n",
                args.workload.c_str(), in.hot.size(), in.miss_qasm.size(),
                args.seed, args.seconds);

    // ------------------------------------------------------ timed window
    const ServiceStats before = in.server->service().stats();
    std::atomic<std::uint64_t> next{0};
    std::vector<ClientLog> logs(kClients);
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; ++c)
            clients.emplace_back(client_loop, std::cref(in),
                                 std::cref(socket), args.seed,
                                 std::ref(next), deadline, std::ref(logs[c]));
        for (std::thread &t : clients)
            t.join();
    }
    const double window_s = seconds_between(start, Clock::now());
    report.set("peak_rss_mb", peak_rss_mb());
    const ServiceStats after = in.server->service().stats();
    in.server->stop();

    std::vector<Record> records;
    std::map<int, std::string> hot_text;
    std::map<std::uint64_t, std::string> miss_text;
    for (ClientLog &log : logs) {
        for (Record &r : log.records)
            records.push_back(std::move(r));
        hot_text.merge(log.hot_text);
        miss_text.merge(log.miss_text);
        for (long e = 0; e < log.transport_errors; ++e)
            report.fail("transport error on a client connection");
    }

    std::vector<double> all_ms, hit_ms, miss_ms;
    double request_bytes = 0.0, response_bytes = 0.0;
    for (const Record &r : records) {
        report.attempt();
        if (!r.ok)
            continue;
        all_ms.push_back(r.ms);
        (r.source == "cache_hit" ? hit_ms : miss_ms).push_back(r.ms);
        request_bytes += r.request_bytes;
        response_bytes += r.response_bytes;
    }
    report.set("requests_per_s", records.size() / window_s);
    report.set("request_ms_p50", quantile(all_ms, 0.50));
    report.set("request_ms_p99", quantile(all_ms, 0.99));
    std::printf("timed window: %.2f s, %zu requests (%zu hits, %zu "
                "transpiled or coalesced)\n",
                window_s, records.size(), hit_ms.size(), miss_ms.size());

    // ------------------------------------------- references and checks
    const Backend backend = montreal_backend();
    std::unique_ptr<TranspileContext> ctx = [] {
        TranspileContext::Config config;
        config.distances = std::make_shared<DistanceCache>();
        return std::make_unique<TranspileContext>(config);
    }();

    // The hot set's reference transpiles, one caller, are this
    // workload's compile pass.  It runs twice (the second time must
    // reproduce the first), and compile_s sums each key's median time.
    std::vector<Reference> hot_ref(in.hot.size());
    std::vector<std::vector<double>> hot_ms(in.hot.size());
    for (int rep = 0; rep < 2; ++rep)
        for (std::size_t k = 0; k < in.hot.size(); ++k) {
            double ms = 0.0;
            Reference ref = reference(*ctx, backend, in.hot[k].qasm,
                                      in.hot[k].options, &ms);
            hot_ms[k].push_back(ms);
            if (rep == 0)
                hot_ref[k] = std::move(ref);
            else if (ref.text != hot_ref[k].text)
                report.fail(in.hot[k].name + ": reference transpile is "
                                             "not deterministic");
        }
    double compile_ms = 0.0;
    for (const std::vector<double> &ms : hot_ms)
        compile_ms += median(ms);
    double cx_total = 0.0, depth_total = 0.0;
    for (const Reference &ref : hot_ref) {
        cx_total += ref.result.cx_total;
        depth_total += ref.result.depth;
    }
    report.set("compile_s", compile_ms / 1000.0);
    report.set("cx_total", cx_total);
    report.set("depth_total", depth_total);
    report.set("cx_reduction_pct", kNotApplicable);
    report.set("cx_add_reduction_pct", kNotApplicable);

    std::vector<std::uint64_t> miss_index;
    for (const auto &kv : miss_text)
        miss_index.push_back(kv.first);
    std::vector<Reference> miss_ref(miss_index.size());
    {
        const std::vector<std::string> errors = parallel_for(
            miss_index.size(), check_threads(), [&](std::size_t m) {
                const Draw d = draw(in, args.seed, miss_index[m]);
                miss_ref[m] = reference(*ctx, backend, in.miss_qasm[d.miss],
                                        d.options);
            });
        for (const std::string &e : errors)
            if (!e.empty())
                report.fail("reference transpile threw: " + e);
    }

    // Every reply must be the reference's bytes: the first reply per key
    // is compared in full, the others through its hash.
    std::map<std::uint64_t, std::size_t> miss_slot;
    for (std::size_t m = 0; m < miss_index.size(); ++m)
        miss_slot[miss_index[m]] = m;
    for (const auto &kv : hot_text)
        if (kv.second != hot_ref[kv.first].text)
            report.fail(in.hot[kv.first].name + ": served bytes differ from "
                                                "the in-process reference");
    for (std::size_t m = 0; m < miss_index.size(); ++m)
        if (miss_text[miss_index[m]] != miss_ref[m].text)
            report.fail("miss #" + std::to_string(miss_index[m]) +
                        ": served bytes differ from the in-process reference");
    for (const Record &r : records) {
        if (!r.ok) {
            report.fail("request #" + std::to_string(r.index) +
                        ": non-ok status");
            continue;
        }
        const Draw d = draw(in, args.seed, r.index);
        const std::size_t expect =
            d.hot >= 0 ? hot_ref[d.hot].hash : miss_ref[miss_slot[r.index]].hash;
        if (r.hash != expect)
            report.fail("request #" + std::to_string(r.index) +
                        ": reply differs from its key's reference");
    }

    // Unitary check of every distinct output with <= 20 active wires.
    std::vector<const Reference *> outputs;
    for (const Reference &ref : hot_ref)
        outputs.push_back(&ref);
    for (const Reference &ref : miss_ref)
        outputs.push_back(&ref);
    std::vector<int> verdict(outputs.size(), 0); // 1 ok, 2 too wide
    const std::vector<std::string> errors = parallel_for(
        outputs.size(), check_threads(), [&](std::size_t i) {
            try {
                verdict[i] = verify_transpilation(outputs[i]->logical,
                                                  outputs[i]->result, 1)
                                 ? 1
                                 : 0;
            } catch (const std::invalid_argument &) {
                verdict[i] = 2; // more than 20 active wires
            }
        });
    long verified = 0, unverifiable = 0;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        if (!errors[i].empty())
            report.fail("verification threw: " + errors[i]);
        else if (verdict[i] == 2)
            ++unverifiable;
        else if (verdict[i] == 1)
            ++verified;
        else
            report.fail("a served output is not equivalent to its input");
    }
    std::printf("verified %ld distinct output(s), %ld unverifiable (> 20 "
                "active wires)\n",
                verified, unverifiable);

    if (!args.trace)
        return;

    // ---------------------------------------------- per-layer numbers
    const double requests = static_cast<double>(after.requests - before.requests);
    report.set("service.hit_ratio",
               requests > 0 ? (after.cache_hits - before.cache_hits) / requests
                            : 0.0);
    report.set("service.coalesced", after.coalesced - before.coalesced);
    report.set("service.transpiles", after.transpiles_ok - before.transpiles_ok);
    report.set("service.failed",
               after.transpiles_failed - before.transpiles_failed);
    report.set("serve.hit_ms_p50", quantile(hit_ms, 0.50));
    report.set("serve.hit_ms_p99", quantile(hit_ms, 0.99));
    report.set("serve.miss_ms_p50", quantile(miss_ms, 0.50));
    report.set("serve.miss_ms_p99", quantile(miss_ms, 0.99));
    if (!all_ms.empty()) {
        report.set("serve.request_bytes_mean", request_bytes / all_ms.size());
        report.set("serve.response_bytes_mean",
                   response_bytes / all_ms.size());
    }

    // The hit path's IR work, timed on the mix's own payloads and
    // weighted by how often the stream sent each one.
    std::vector<double> parse_ms(in.hot.size()), emit_ms(in.hot.size()),
        fp_ms(in.hot.size());
    for (std::size_t k = 0; k < in.hot.size(); ++k) {
        parse_ms[k] = time_ms(3, [&] { from_qasm(in.hot[k].qasm); });
        fp_ms[k] = time_ms(3, [&] { hot_ref[k].logical.fingerprint(); });
        emit_ms[k] = time_ms(3, [&] { to_qasm(hot_ref[k].result.circuit); });
    }
    double parse = 0.0, emit = 0.0, fp = 0.0;
    std::size_t n = 0;
    for (const Record &r : records) {
        if (!r.ok)
            continue;
        const Draw d = draw(in, args.seed, r.index);
        if (d.hot >= 0) {
            parse += parse_ms[d.hot];
            emit += emit_ms[d.hot];
            fp += fp_ms[d.hot];
        } else {
            const Reference &ref = miss_ref[miss_slot[r.index]];
            const std::string &qasm = in.miss_qasm[d.miss];
            parse += time_ms(1, [&] { from_qasm(qasm); });
            emit += time_ms(1, [&] { to_qasm(ref.result.circuit); });
            fp += time_ms(1, [&] { ref.logical.fingerprint(); });
        }
        ++n;
    }
    if (n > 0) {
        report.set("ir.qasm_parse_ms", parse / n);
        report.set("ir.qasm_emit_ms", emit / n);
        report.set("ir.fingerprint_ms", fp / n);
    }
    report.set("check.verified", verified);
    report.set("check.unverifiable", unverifiable);
}

} // namespace perfbench
