// Hardened-message-layer overhead bench: what --harden and --fault-spec cost
// on the warm steady state, and what recovery costs when faults actually
// fire. One warm session answers rounds of family-algorithm queries in four
// modes:
//
//   off     — hardening disabled (the default every other bench runs): the
//             null path the zero-overhead claim is about;
//   harden  — --harden=1: checksum/sequence framing + verification + dedup
//             on every cross-rank payload, no injection;
//   inject0 — --fault-spec seed=1: the injector armed with all-zero
//             probabilities (per-frame decision cost, nothing fires);
//   faulty  — a low-rate drop/dup/bitflip plan under the retry policy: the
//             price of detection + retransmission to a bit-exact result.
//
// Counts must agree across all modes (faulty included — its plan is chosen
// to recover within budget); the harden row is gated against the off row.
// Snapshot: bench/BENCH_fault.json.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "gen/rmat.hpp"
#include "util/timer.hpp"

namespace {

using namespace katric;

struct ModeResult {
    double round_seconds = 0.0;
    std::uint64_t check = 0;           ///< summed counts (divergence guard)
    std::uint64_t frames_sent = 0;     ///< last round's hardened frames
    std::uint64_t injected = 0;        ///< faults fired (faulty mode only)
    std::uint64_t retransmits = 0;     ///< recoveries paid (faulty mode only)
    bool ok = true;
};

/// One warm steady state: build, one warmup sweep, `rounds` timed sweeps.
ModeResult run_mode(const graph::CsrGraph& g, const Config& config,
                    std::uint64_t rounds) {
    const std::vector<core::Algorithm> family = {
        core::Algorithm::kDitric, core::Algorithm::kDitric2, core::Algorithm::kCetric,
        core::Algorithm::kCetric2};
    ModeResult result;
    Engine session(g, config);
    for (const auto algorithm : family) { (void)session.count(algorithm); }  // warmup
    WallTimer timer;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (const auto algorithm : family) {
            const auto report = session.count(algorithm);
            if (!report.error.ok()) {
                std::cerr << "FAIL: query errored in hardened mode: "
                          << report.error.message << '\n';
                result.ok = false;
                return result;
            }
            result.check += report.count.triangles;
            result.frames_sent = report.faults.frames_sent;
            result.injected += report.faults.injected_total();
            result.retransmits += report.faults.retransmits;
        }
    }
    result.round_seconds = timer.elapsed_seconds() / static_cast<double>(rounds);
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_fault_overhead",
                  "warm rounds with hardening off / framed / armed / faulty");
    cli.option("log-n", "13", "log2 of vertex count (rmat, avg degree 16)");
    cli.option("rounds", "4", "timed rounds per mode");
    cli.option("max-harden-overhead",
               "75",
               "fail when the harden round costs more than this percent over "
               "the off round (0 disables; --smoke skips the gate — rounds "
               "that short are dominated by timing noise)");
    cli.option("faulty-spec",
               "seed=29;drop=0.002;dup=0.002;bitflip=0.001",
               "the faulty mode's FaultPlan (must recover within the retry "
               "budget, or the bench fails)");
    cli.flag("smoke", "CI preset: small instance, fewer rounds");
    Config defaults;
    defaults.num_ranks = 16;
    defaults.options.intersect = seq::IntersectKind::kAdaptive;
    bench::add_engine_options(cli, defaults);
    if (!cli.parse(argc, argv)) { return 0; }

    const auto base = bench::engine_config(cli);
    const bool smoke = cli.get_flag("smoke");
    const auto rounds =
        std::max<std::uint64_t>(1, smoke ? std::uint64_t{2} : cli.get_uint("rounds"));
    const auto gate = static_cast<double>(cli.get_uint("max-harden-overhead"));
    const graph::VertexId n = graph::VertexId{1}
                              << (smoke ? std::uint64_t{11} : cli.get_uint("log-n"));
    bench::print_header("Hardened-layer overhead: off vs harden vs armed vs faulty",
                        base);
    const auto g =
        gen::generate_rmat(static_cast<std::uint32_t>(std::log2(n)), 8 * n, 29);
    std::cout << "rmat n=" << g.num_vertices() << " m=" << g.num_edges()
              << ", p=" << base.num_ranks << ", " << rounds << " round(s) per mode\n\n";

    Config off = base;
    off.charge_preprocessing = false;
    off.harden = false;
    off.fault_spec.clear();

    Config harden = off;
    harden.harden = true;

    Config inject0 = off;
    inject0.fault_spec = "seed=1";  // armed injector, zero probabilities

    Config faulty = off;
    faulty.fault_spec = cli.get_string("faulty-spec");
    faulty.max_retries = 16;

    const auto r_off = run_mode(g, off, rounds);
    const auto r_harden = run_mode(g, harden, rounds);
    const auto r_inject0 = run_mode(g, inject0, rounds);
    const auto r_faulty = run_mode(g, faulty, rounds);
    if (!r_off.ok || !r_harden.ok || !r_inject0.ok || !r_faulty.ok) { return 1; }
    if (r_off.check != r_harden.check || r_off.check != r_inject0.check
        || r_off.check != r_faulty.check) {
        std::cerr << "FAIL: triangle counts diverged across hardening modes\n";
        return 1;
    }

    const auto overhead = [&](double seconds) {
        return 100.0 * (seconds - r_off.round_seconds) / r_off.round_seconds;
    };
    Table table({"mode", "round (ms)", "overhead vs off (%)", "frames", "injected",
                 "retransmits"});
    const auto add = [&](const char* name, const ModeResult& r) {
        table.row()
            .cell(name)
            .cell(r.round_seconds * 1e3, 3)
            .cell(overhead(r.round_seconds), 2)
            .cell(r.frames_sent)
            .cell(r.injected)
            .cell(r.retransmits);
    };
    add("off", r_off);
    add("harden", r_harden);
    add("inject0", r_inject0);
    add("faulty", r_faulty);
    table.print(std::cout);

    JsonWriter json;
    const auto emit = [&](const char* name, const ModeResult& r) {
        json.begin_row()
            .field("mode", std::string(name))
            .field("rounds", rounds)
            .field("round_seconds", r.round_seconds)
            .field("overhead_percent", name == std::string("off")
                                           ? 0.0
                                           : overhead(r.round_seconds))
            .field("frames_sent", r.frames_sent)
            .field("injected", r.injected)
            .field("retransmits", r.retransmits);
    };
    emit("off", r_off);
    emit("harden", r_harden);
    emit("inject0", r_inject0);
    emit("faulty", r_faulty);
    json.write(cli.get_string("json"));

    if (!smoke && gate > 0.0 && overhead(r_harden.round_seconds) > gate) {
        std::cerr << "FAIL: harden overhead " << overhead(r_harden.round_seconds)
                  << "% > gate " << gate << "%\n";
        return 1;
    }
    if (r_faulty.injected == 0) {
        std::cerr << "FAIL: the faulty mode injected nothing — raise its rates\n";
        return 1;
    }
    return 0;
}
