/**
 * @file
 * Figure 6: normalized bus access overheads for pgbench, total and
 * on the application core alone.
 *
 * Paper anchor: Reloaded incurs less than half the bus-traffic
 * overhead of Cornucopia, while only slightly increasing traffic on
 * the application core — evidence that Cornucopia revisits
 * approximately all pages with the world stopped.
 */

#include "bench_util.h"

using namespace crev;
using benchutil::overhead;

namespace {

/** Bus transactions on the application core (3, per the pinning). */
std::uint64_t
appCoreTx(const core::RunMetrics &m)
{
    return m.core_mem.at(3).busTransactions();
}

} // namespace

int
main()
{
    benchutil::banner("Figure 6: pgbench normalized bus overheads",
                      "paper fig. 6");

    benchutil::CellRunner runner;
    runner.request(benchutil::pgbenchCell(core::Strategy::kBaseline));
    for (core::Strategy s : benchutil::kSafeAndPaint)
        runner.request(benchutil::pgbenchCell(s));
    runner.run();
    const auto &base =
        runner.at(benchutil::pgbenchCell(core::Strategy::kBaseline));

    stats::Table table(
        {"strategy", "bus_total", "bus_app_core", "abs_total_tx"});
    table.addRow({"baseline", "-", "-",
                  std::to_string(base.metrics.bus_transactions_total)});

    double corn_ovh = 0, rel_ovh = 0;
    for (core::Strategy s : benchutil::kSafeAndPaint) {
        const auto &r = runner.at(benchutil::pgbenchCell(s));
        const double total_ovh = overhead(
            static_cast<double>(r.metrics.bus_transactions_total),
            static_cast<double>(base.metrics.bus_transactions_total));
        const double app_ovh =
            overhead(static_cast<double>(appCoreTx(r.metrics)),
                     static_cast<double>(appCoreTx(base.metrics)));
        table.addRow(
            {core::strategyName(s), stats::Table::pct(total_ovh),
             stats::Table::pct(app_ovh),
             std::to_string(r.metrics.bus_transactions_total)});
        if (s == core::Strategy::kCornucopia)
            corn_ovh = total_ovh;
        if (s == core::Strategy::kReloaded)
            rel_ovh = total_ovh;
    }

    table.print();
    std::printf("\nReloaded total bus overhead is %s of Cornucopia's "
                "(paper: < 50%%).\n",
                corn_ovh > 0
                    ? stats::Table::pct(rel_ovh / corn_ovh).c_str()
                    : "n/a");
    return 0;
}
