/**
 * @file
 * Table 2: revocation-rate statistics under Reloaded for a
 * representative set of benchmarks: mean allocated heap at
 * revocation, total freed (quarantined) bytes, the freed:allocated
 * ratio, revocation count, and revocations per second.
 *
 * Paper anchors: the RSS-heavy SPEC workloads cycle orders of
 * magnitude more address space than their live heaps at < 1
 * revocation/second; pgbench cycles nearly as much as xalancbmk on a
 * ~4% heap, revoking more than an order of magnitude more often —
 * which is what separates fig. 4's bus overheads from fig. 6's.
 */

#include "bench_util.h"

using namespace crev;

namespace {

void
addRow(stats::Table &table, const std::string &name,
       const core::RunMetrics &m)
{
    const double mean_alloc_mib =
        m.quarantine.meanAllocAtTrigger() / (1024.0 * 1024.0);
    const double freed_mib =
        static_cast<double>(m.quarantine.sum_freed_bytes) /
        (1024.0 * 1024.0);
    const double fa =
        mean_alloc_mib > 0 ? freed_mib / mean_alloc_mib : 0.0;
    table.addRow({name, stats::Table::fmt(mean_alloc_mib, 2),
                  stats::Table::fmt(freed_mib, 1),
                  stats::Table::fmt(fa, 1),
                  std::to_string(m.epochs.size()),
                  stats::Table::fmt(m.revocationsPerSecond(), 1)});
}

} // namespace

int
main()
{
    benchutil::banner(
        "Table 2: Reloaded revocation-rate statistics",
        "paper table 2");

    stats::Table table({"benchmark", "mean_alloc_MiB", "sum_freed_MiB",
                        "F:A", "revocations", "rev/sec"});

    const core::Strategy rel = core::Strategy::kReloaded;
    const std::vector<std::string> spec_names{
        "xalancbmk", "astar",       "omnetpp",
        "hmmer_nph3", "hmmer_retro", "gobmk"};
    benchutil::CellRunner runner;
    runner.request(benchutil::specCells(spec_names, {rel}));
    runner.request(benchutil::pgbenchCell(rel));
    runner.request(benchutil::grpcCell(rel));
    runner.run();
    for (const auto &name : spec_names)
        addRow(table, name,
               runner.at(benchutil::specCell(name, rel)).metrics);
    addRow(table, "pgbench",
           runner.at(benchutil::pgbenchCell(rel)).metrics);
    addRow(table, "grpc_qps", runner.at(benchutil::grpcCell(rel)).metrics);

    table.print();
    std::printf(
        "\nExpected shape (paper Table 2, scaled): omnetpp and "
        "xalancbmk have the highest SPEC F:A ratios; gobmk barely "
        "revokes (F:A 1.75); pgbench's F:A dwarfs every SPEC row on "
        "a far smaller heap, at an order of magnitude more "
        "revocations per second. rev/sec values are inflated "
        "uniformly by the ~128x time compression.\n");
    return 0;
}
