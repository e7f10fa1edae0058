/**
 * @file
 * Virtual-time soak harness (DESIGN.md §13): long fault-injected
 * campaigns per strategy, sized in simulated cycles rather than
 * iterations, with every PR-6 fault domain armed on an MTBF-style
 * schedule and the temporal-safety oracle riding along.
 *
 * Per strategy the harness reports survival (run completed, epoch
 * counter rests even, quarantine drained, zero oracle violations),
 * recovery-latency percentiles per protocol, and steady-state memory
 * overhead versus a baseline run of the same workload. A final
 * oracle-on/oracle-off pair checks the oracle's zero-simulated-cost
 * contract end to end and records its host-time overhead.
 *
 * Results accumulate in BENCH_SOAK.json (same "runs"-array pattern as
 * BENCH_TRAJECTORY.json; DESIGN.md §9), which
 * tools/check_trajectory.py gates on in CI.
 *
 * Usage: soak [--quick] [--cycles N] [--out FILE] [--label NAME]
 *   --quick:  CI-sized campaign (50M virtual cycles per strategy).
 *   --cycles: explicit virtual-cycle target per strategy, a positive
 *             decimal (default 2,000,000,000).
 * Any other argument, or a missing or malformed value, prints the
 * usage line and exits 2.
 */

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_runner.h"
#include "bench_util.h"
#include "core/machine.h"
#include "core/mutator.h"

using namespace crev;

namespace {

/** The chaos-campaign churn mix, gtest-free: allocation bursts,
 *  frees, capability links, register parking, and hoards. */
void
churnBatch(core::Machine &m, core::Mutator &ctx, int iters)
{
    struct Obj
    {
        cap::Capability c;
        std::size_t size;
    };
    std::vector<Obj> live;
    auto &rng = ctx.rng();

    for (int i = 0; i < iters; ++i) {
        const double dice = rng.uniform();
        if (dice < 0.45 || live.size() < 4) {
            const std::size_t size = 16 << rng.below(7);
            live.push_back({ctx.malloc(size), size});
            ctx.store64(live.back().c, 0, static_cast<uint64_t>(i));
        } else if (dice < 0.80) {
            const std::size_t idx = rng.below(live.size());
            ctx.free(live[idx].c);
            live[idx] = live.back();
            live.pop_back();
        } else if (dice < 0.90) {
            const std::size_t a = rng.below(live.size());
            const std::size_t b = rng.below(live.size());
            if (live[a].size >= 32) {
                ctx.storeCap(live[a].c, 16, live[b].c);
                (void)ctx.loadCap(live[a].c, 16);
            }
        } else if (dice < 0.95) {
            ctx.thread().reg(1 + rng.below(8)) =
                live[rng.below(live.size())].c;
        } else {
            const std::size_t slot =
                ctx.hoardPut(live[rng.below(live.size())].c);
            (void)ctx.hoardTake(slot);
        }
    }
    for (auto &o : live)
        ctx.free(o.c);
    m.heap().drain(ctx.thread());
}

/** Every fault domain armed at soak intensity. Probabilities are
 *  per-decision-point, so the realised mean-time-between-faults
 *  scales with workload activity; the counters in the report say
 *  what actually fired. */
sim::FaultPlan
soakFaults(std::uint64_t seed)
{
    sim::FaultPlan p;
    p.enabled = true;
    p.seed = seed;
    p.sweeper_stall_prob = 0.02;
    p.sweeper_stall_cycles = 250'000;
    p.sweeper_kill_prob = 0.05;
    p.max_sweeper_kills = 2;
    p.fault_drop_prob = 0.05;
    p.max_fault_drops = 8;
    p.fault_duplicate_prob = 0.05;
    p.stw_delay_prob = 0.10;
    p.stw_delay_cycles = 25'000;
    p.mem_spike_period = 1'000'000;
    p.mem_spike_duration = 50'000;
    p.mem_spike_extra = 30;
    p.shootdown_drop_prob = 0.10;
    p.max_shootdown_drops = 64;
    p.shootdown_late_prob = 0.10;
    p.shootdown_late_cycles = 10'000;
    p.core_stall_prob = 0.002;
    p.core_stall_cycles = 100'000;
    p.max_core_stalls = 16;
    p.summary_corrupt_prob = 0.10;
    p.max_summary_corruptions = 32;
    p.quarantine_drop_prob = 0.10;
    p.max_quarantine_drops = 16;
    p.quarantine_duplicate_prob = 0.10;
    return p;
}

struct SoakResult
{
    core::Strategy strategy;
    core::RunMetrics metrics;
    std::uint64_t final_epoch_value = 1;
    std::size_t final_quarantine_bytes = ~std::size_t{0};
    double host_seconds = 0;
    bool survived = false;
};

SoakResult
runSoak(core::Strategy s, Cycles target_cycles, bool with_faults,
        bool oracle)
{
    core::MachineConfig cfg;
    cfg.strategy = s;
    cfg.audit = true;
    cfg.oracle = oracle;
    cfg.policy.min_bytes = 64 * 1024;
    cfg.background_sweepers = 2;
    cfg.seed = 42;
    if (with_faults)
        cfg.faults = soakFaults(0x50a1c + static_cast<int>(s));

    SoakResult r;
    r.strategy = s;
    const auto host_start = std::chrono::steady_clock::now();
    core::Machine m(cfg);
    m.spawnMutator("app", 1u << 3, [&](core::Mutator &ctx) {
        while (ctx.thread().now() < target_cycles)
            churnBatch(m, ctx, 400);
        r.final_epoch_value = m.kernel().epoch().value();
        r.final_quarantine_bytes = m.heap().quarantineBytes();
    });
    m.run();
    r.host_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - host_start)
                         .count();
    r.metrics = m.metrics();
    r.survived = r.final_epoch_value % 2 == 0 &&
                 r.final_quarantine_bytes == 0 &&
                 r.metrics.oracle_violations == 0 &&
                 (s == core::Strategy::kBaseline ||
                  !r.metrics.epochs.empty());
    return r;
}

void
printRepro(const SoakResult &r, Cycles target)
{
    std::fprintf(
        stderr,
        "soak repro: strategy=%s fault_seed=%" PRIu64
        " window=[0,max) machine_seed=42 target_cycles=%" PRIu64
        " (epoch=%" PRIu64 " quar=%zu oracle_violations=%" PRIu64
        ")\n",
        core::strategyName(r.strategy),
        soakFaults(0x50a1c + static_cast<int>(r.strategy)).seed,
        static_cast<std::uint64_t>(target), r.final_epoch_value,
        r.final_quarantine_bytes, r.metrics.oracle_violations);
}

std::string
recoveryJson(const core::RunMetrics &m)
{
    std::string out = "[";
    for (unsigned i = 0; i < trace::kNumRecoveryProtocols; ++i) {
        const auto p = static_cast<trace::RecoveryProtocol>(i);
        const auto &st = m.recovery_protocols[i];
        const auto &lat = m.recovery_latency[i];
        char buf[384];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"protocol\": \"%s\", \"tickets\": %" PRIu64
            ", \"attempts\": %" PRIu64 ", \"successes\": %" PRIu64
            ", \"retries_exhausted\": %" PRIu64
            ", \"deadline_expiries\": %" PRIu64
            ", \"latency_p50\": %.1f, \"latency_p90\": %.1f, "
            "\"latency_p99\": %.1f, \"latency_max\": %.1f}",
            i == 0 ? "" : ", ", trace::recoveryProtocolName(p),
            st.tickets, st.attempts, st.successes,
            st.retries_exhausted, st.deadline_expiries,
            lat.percentile(0.50), lat.percentile(0.90),
            lat.percentile(0.99), lat.empty() ? 0.0 : lat.max());
        out += buf;
    }
    out += "]";
    return out;
}

/** Previously accumulated run entries (same format as bench_all's
 *  trajectory file): the text between "runs": [ and the final ]. */
std::string
readPreviousRuns(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "";
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    const std::string open = "\"runs\": [";
    const auto begin = text.find(open);
    const auto end = text.rfind(']');
    if (begin == std::string::npos || end == std::string::npos ||
        end <= begin)
        return "";
    std::string runs = text.substr(begin + open.size(),
                                   end - begin - open.size());
    const auto first = runs.find_first_not_of(" \n\t");
    const auto last = runs.find_last_not_of(" \n\t");
    if (first == std::string::npos)
        return "";
    return runs.substr(first, last - first + 1);
}

/** Parse a positive decimal cycle count; false on anything else. */
bool
parseCycles(const char *text, Cycles *out)
{
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || v == 0)
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    Cycles target = 2'000'000'000;
    bool explicit_cycles = false;
    std::string out_path = "BENCH_SOAK.json";
    std::string label = "local";
    // Anything unknown, a missing value or a malformed cycle count is
    // rejected before a campaign starts.
    for (int i = 1; i < argc; ++i) {
        const bool has_value = i + 1 < argc;
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--cycles") == 0 && has_value &&
                 parseCycles(argv[i + 1], &target)) {
            ++i;
            explicit_cycles = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && has_value)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--label") == 0 && has_value)
            label = argv[++i];
        else {
            std::fprintf(stderr,
                         "soak: bad argument '%s'\n"
                         "usage: soak [--quick] [--cycles N] "
                         "[--out FILE] [--label NAME]\n",
                         argv[i]);
            return 2;
        }
    }
    if (quick && !explicit_cycles)
        target = 50'000'000;

    benchutil::banner("Fault-injection soak (virtual-time MTBF)",
                      "robustness harness; no paper figure");

    // Baseline first: the memory-overhead denominator.
    std::fprintf(stderr, "  baseline (no faults) ...\n");
    const SoakResult baseline = runSoak(
        core::Strategy::kBaseline, target, false, /*oracle=*/true);

    const std::vector<core::Strategy> strategies{
        core::Strategy::kCheriVoke, core::Strategy::kCornucopia,
        core::Strategy::kReloaded, core::Strategy::kCheriotFilter};
    std::vector<SoakResult> results;
    bool all_survived = baseline.survived;
    if (!baseline.survived)
        printRepro(baseline, target);
    for (core::Strategy s : strategies) {
        std::fprintf(stderr, "  soak %s (%" PRIu64 " cycles) ...\n",
                     core::strategyName(s),
                     static_cast<std::uint64_t>(target));
        results.push_back(runSoak(s, target, true, /*oracle=*/true));
        const SoakResult &r = results.back();
        if (!r.survived) {
            printRepro(r, target);
            all_survived = false;
        }
    }

    // Oracle-on vs oracle-off: identical simulated cycles (the oracle
    // is an off-clock observer) and a bounded host-time overhead. The
    // pair reuses the soak plan at quick size to stay cheap.
    const Cycles e2e_target = std::min<Cycles>(target, 50'000'000);
    std::fprintf(stderr, "  oracle on/off e2e pair ...\n");
    const SoakResult oracle_on = runSoak(core::Strategy::kReloaded,
                                         e2e_target, true, true);
    const SoakResult oracle_off = runSoak(core::Strategy::kReloaded,
                                          e2e_target, true, false);
    const bool oracle_sim_match =
        oracle_on.metrics.wall_cycles == oracle_off.metrics.wall_cycles &&
        oracle_on.metrics.cpu_cycles == oracle_off.metrics.cpu_cycles &&
        oracle_on.final_epoch_value == oracle_off.final_epoch_value;
    if (!oracle_sim_match) {
        std::fprintf(
            stderr,
            "FAIL: oracle perturbed simulated results "
            "(wall %" PRIu64 " vs %" PRIu64 ")\n",
            static_cast<std::uint64_t>(oracle_on.metrics.wall_cycles),
            static_cast<std::uint64_t>(
                oracle_off.metrics.wall_cycles));
        all_survived = false;
    }

    std::printf("soak results (%" PRIu64 " virtual cycles/strategy):\n",
                static_cast<std::uint64_t>(target));
    std::printf("  %-14s %8s %8s %10s %9s %8s\n", "strategy",
                "survived", "epochs", "degraded", "repairs", "rss_x");
    for (const auto &r : results) {
        const double rss_x =
            baseline.metrics.peak_rss_pages > 0
                ? static_cast<double>(r.metrics.peak_rss_pages) /
                      static_cast<double>(
                          baseline.metrics.peak_rss_pages)
                : 0.0;
        std::printf("  %-14s %8s %8zu %10zu %9" PRIu64 " %7.2fx\n",
                    core::strategyName(r.strategy),
                    r.survived ? "yes" : "NO", r.metrics.epochs.size(),
                    r.metrics.degradedEpochs(),
                    r.metrics.summary_repairs, rss_x);
    }
    std::printf("  oracle e2e: sim_match=%s host %.2fs on / %.2fs "
                "off\n",
                oracle_sim_match ? "yes" : "NO",
                oracle_on.host_seconds, oracle_off.host_seconds);

    // --- BENCH_SOAK.json (accumulating, bench_all pattern) ---
    const std::string prev_runs = readPreviousRuns(out_path);
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"soak\",\n");
    std::fprintf(f, "  \"runs\": [\n");
    if (!prev_runs.empty())
        std::fprintf(f, "    %s,\n", prev_runs.c_str());
    std::fprintf(f, "    {\n      \"label\": \"%s\",\n",
                 benchutil::jsonEscape(label).c_str());
    std::fprintf(f, "      \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "      \"target_cycles\": %" PRIu64 ",\n",
                 static_cast<std::uint64_t>(target));
    std::fprintf(f, "      \"strategies\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        const double rss_x =
            baseline.metrics.peak_rss_pages > 0
                ? static_cast<double>(r.metrics.peak_rss_pages) /
                      static_cast<double>(
                          baseline.metrics.peak_rss_pages)
                : 0.0;
        std::fprintf(
            f,
            "        {\"strategy\": \"%s\", \"survived\": %s, "
            "\"oracle_violations\": %" PRIu64
            ", \"wall_cycles\": %" PRIu64
            ", \"host_seconds\": %.3f, \"epochs\": %zu, "
            "\"degraded_epochs\": %zu, \"summary_repairs\": %" PRIu64
            ", \"memory_overhead_vs_baseline\": %.4f, "
            "\"recovery\": %s, \"metrics\": %s}%s\n",
            core::strategyName(r.strategy),
            r.survived ? "true" : "false",
            r.metrics.oracle_violations,
            static_cast<std::uint64_t>(r.metrics.wall_cycles),
            r.host_seconds, r.metrics.epochs.size(),
            r.metrics.degradedEpochs(), r.metrics.summary_repairs,
            rss_x, recoveryJson(r.metrics).c_str(),
            benchutil::metricsJson(r.metrics).c_str(),
            i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    std::fprintf(f,
                 "      \"oracle_e2e\": {\"sim_cycles_match\": %s, "
                 "\"oracle_on_host_seconds\": %.3f, "
                 "\"oracle_off_host_seconds\": %.3f, "
                 "\"target_cycles\": %" PRIu64 "}\n",
                 oracle_sim_match ? "true" : "false",
                 oracle_on.host_seconds, oracle_off.host_seconds,
                 static_cast<std::uint64_t>(e2e_target));
    std::fprintf(f, "    }\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%s run entries)\n", out_path.c_str(),
                prev_runs.empty() ? "1" : "appended to prior");

    if (!all_survived) {
        std::fprintf(stderr, "soak: FAILED (see repro lines above)\n");
        return 1;
    }
    return 0;
}
