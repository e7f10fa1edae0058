/**
 * @file
 * Figure 8: gRPC QPS latency percentiles under Reloaded and
 * Cornucopia, normalized by the baseline's value at the same
 * percentile, plus throughput reduction.
 *
 * Paper anchors: ~12.8% QPS reduction for both strategies (not
 * significantly different); modest increases at p50/p90/p95; at p99
 * Reloaded doubles latency where Cornucopia more than triples it; at
 * p99.9 both impose ~10x tails (revoker competing for CPU, §7.7).
 * (CHERIvoke is absent from the paper's figure due to a bug in their
 * implementation; we include it for completeness.)
 */

#include "bench_util.h"

using namespace crev;

int
main()
{
    benchutil::banner("Figure 8: gRPC QPS latency percentiles",
                      "paper fig. 8");

    benchutil::CellRunner runner;
    runner.request(benchutil::grpcCell(core::Strategy::kBaseline));
    for (core::Strategy s : benchutil::kSafe)
        runner.request(benchutil::grpcCell(s));
    runner.run();
    const auto &base =
        runner.at(benchutil::grpcCell(core::Strategy::kBaseline));

    const std::vector<std::pair<const char *, double>> pcts = {
        {"p50", 0.50}, {"p90", 0.90},   {"p95", 0.95},
        {"p99", 0.99}, {"p99.9", 0.999}};

    std::vector<std::string> header{"strategy"};
    for (auto &[n, q] : pcts)
        header.push_back(std::string(n) + "_x");
    header.push_back("qps_delta");
    stats::Table table(header);

    {
        std::vector<std::string> row{"baseline_ms"};
        for (auto &[n, q] : pcts)
            row.push_back(stats::Table::fmt(
                base.latency_ms.percentile(q), 4));
        row.push_back(stats::Table::fmt(base.qps, 0) + " qps");
        table.addRow(row);
    }

    for (core::Strategy s : benchutil::kSafe) {
        const auto &r = runner.at(benchutil::grpcCell(s));
        std::vector<std::string> row{core::strategyName(s)};
        for (auto &[n, q] : pcts)
            row.push_back(stats::Table::fmt(
                r.latency_ms.percentile(q) /
                    base.latency_ms.percentile(q),
                2));
        row.push_back(
            stats::Table::pct(r.qps / base.qps - 1.0, 1));
        table.addRow(row);
    }

    table.print();
    std::printf("\nExpected shape: modest inflation through p95; at "
                "p99 Reloaded's multiplier is well below "
                "Cornucopia's; long 99.9%% tails for both (the "
                "unpinned background revoker competes with the "
                "2-thread server for cores 2-3).\n");
    return 0;
}
