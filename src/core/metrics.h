/**
 * @file
 * Run-level metrics collected from one Machine execution — the four
 * key overheads of CHERIvoke-style revocation (paper §5): wall-clock
 * time, CPU time, bus accesses, and memory occupancy — plus the
 * revocation phase timings behind figs. 7 and 9 and the rate
 * statistics behind Table 2.
 */

#ifndef CREV_CORE_METRICS_H_
#define CREV_CORE_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "alloc/quarantine.h"
#include "base/types.h"
#include "mem/memory_system.h"
#include "revoker/recovery.h"
#include "revoker/revoker.h"
#include "revoker/sweep.h"
#include "revoker/watchdog.h"
#include "sim/fault_injector.h"
#include "stats/summary.h"
#include "vm/mmu.h"

namespace crev::trace {
class MetricsRegistry;
}

namespace crev::core {

/** Everything a bench needs from a finished run. */
struct RunMetrics
{
    /** Largest virtual clock reached (wall-clock proxy). */
    Cycles wall_cycles = 0;
    /** Busy cycles per thread name. */
    std::map<std::string, Cycles> thread_busy;
    /** Sum of all threads' busy cycles (total CPU time). */
    Cycles cpu_cycles = 0;

    /** Per-core memory counters; bus transactions are the DRAM-traffic
     *  proxy. */
    std::vector<mem::MemCounters> core_mem;
    std::uint64_t bus_transactions_total = 0;

    /** Peak resident frames (RSS proxy, in pages). */
    std::size_t peak_rss_pages = 0;

    /** Revocation epoch timings (empty for baseline). */
    std::vector<revoker::EpochTiming> epochs;
    revoker::SweepStats sweep;
    alloc::QuarantineStats quarantine;
    alloc::AllocStats allocator;
    vm::MmuStats mmu;

    /** Watchdog recovery activity (all-zero when none was spawned). */
    revoker::RecoveryStats recovery;
    /** Faults actually injected (all-zero without a fault plan). */
    sim::FaultCounters faults_injected;

    /** Per-protocol RecoveryManager counters (all-zero when no
     *  manager was built). Indexed by trace::RecoveryProtocol. */
    std::array<revoker::RecoveryProtocolStats,
               trace::kNumRecoveryProtocols>
        recovery_protocols{};
    /** Per-protocol recovery latency samples (open→close cycles). */
    std::array<stats::Samples, trace::kNumRecoveryProtocols>
        recovery_latency;
    /** Summary corruptions detected and repaired by the Auditor. */
    std::uint64_t summary_repairs = 0;
    /** Temporal-safety oracle totals (zero when the oracle is off). */
    std::uint64_t oracle_loads_checked = 0;
    std::uint64_t oracle_violations = 0;

    /** Epochs that needed an emergency STW sweep to complete. */
    std::size_t degradedEpochs() const;

    /** Simulated wall-clock seconds. */
    double wallSeconds() const;
    /** Revocations per simulated second. */
    double revocationsPerSecond() const;

    /** One-line human-readable summary. */
    std::string summary() const;

    /**
     * Export everything into a MetricsRegistry under dotted names
     * ("run.*", "revoker.*", "sweep.*", "alloc.*", "vm.*",
     * "watchdog.*", "chaos.*"), including per-epoch phase histograms
     * in microseconds. The registry's toJson() is the single
     * machine-readable artifact every bench emits.
     */
    void exportTo(trace::MetricsRegistry &reg) const;
};

} // namespace crev::core

#endif // CREV_CORE_METRICS_H_
