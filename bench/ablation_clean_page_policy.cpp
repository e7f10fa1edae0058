/**
 * @file
 * Ablation (paper §7.6): the "capability loads always trap" PTE
 * disposition for clean pages vs the default keep-generations-fresh
 * behaviour, and the effect of clean-page detection itself.
 *
 * With always-trap, capability-clean pages need no generation refresh
 * during revocation (the background pass skips them entirely); the
 * cost is an extra fault on the first tagged load from such a page.
 * The workload here (libquantum-like: a few huge pointer-free arrays
 * plus a small pointer-rich core) is the case §7.6 targets.
 */

#include "bench_util.h"

using namespace crev;

namespace {

core::RunMetrics
runWith(bool clean_detect, bool always_trap)
{
    core::MachineConfig cfg;
    cfg.strategy = core::Strategy::kReloaded;
    cfg.policy = workload::specPolicy();
    cfg.reloaded_clean_detect = clean_detect;
    cfg.always_trap_clean = always_trap;
    core::Machine m(cfg);
    workload::runSpec(m, workload::specProfile("libquantum"));
    return m.metrics();
}

} // namespace

int
main()
{
    benchutil::banner(
        "Ablation: clean-page handling in Reloaded (libquantum)",
        "paper §7.6");

    stats::Table table({"mode", "wall_ms", "pages_swept",
                        "barrier_faults", "pte_updates(shootdowns)"});

    struct Mode
    {
        const char *name;
        bool detect;
        bool trap;
    };
    const Mode modes[] = {Mode{"no-detect", false, false},
                          Mode{"detect", true, false},
                          Mode{"detect+always-trap", true, true}};
    benchutil::CellRunner runner;
    for (const Mode &mode : modes)
        runner.add(mode.name,
                   [mode] { return runWith(mode.detect, mode.trap); });
    runner.run();
    for (const Mode &mode : modes) {
        const auto &m = runner.at(mode.name).metrics;
        table.addRow({mode.name,
                      stats::Table::fmt(cyclesToMillis(m.wall_cycles)),
                      std::to_string(m.sweep.pages_swept),
                      std::to_string(m.mmu.load_barrier_faults),
                      std::to_string(m.mmu.tlb_shootdowns)});
    }

    table.print();
    std::printf("\nExpected shape: clean-page detection cuts "
                "pages_swept (array pages are never re-read); the "
                "always-trap disposition additionally avoids "
                "refreshing clean pages' generations (fewer PTE "
                "updates/shootdowns) at the price of extra "
                "first-touch barrier faults.\n");
    return 0;
}
