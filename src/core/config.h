/**
 * @file
 * Machine configuration: the one struct an experiment fills in.
 */

#ifndef CREV_CORE_CONFIG_H_
#define CREV_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "alloc/quarantine.h"
#include "mem/cache.h"
#include "mem/memory_system.h"
#include "revoker/watchdog.h"
#include "sim/cost_model.h"
#include "sim/fault_injector.h"

namespace crev::core {

/** Which temporal-safety strategy the machine runs (paper §5). */
enum class Strategy {
    kBaseline,   //!< spatially-safe CHERI binary, no temporal safety
    kPaintOnly,  //!< quarantine machinery without revocation passes
    kCheriVoke,  //!< fully stop-the-world sweeps
    kCornucopia, //!< concurrent + STW re-sweep (store barrier)
    kReloaded,   //!< load barrier (this paper)
    /** CHERIoT-style inline load filter (paper §6.3): every tagged
     *  capability load probes the revocation bitmap and strips
     *  revoked values on the way into the register file. */
    kCheriotFilter,
};

/** Strategy name for table output. */
const char *strategyName(Strategy s);

/**
 * Default for MachineConfig::trace: false unless the CREV_TRACE
 * environment variable is set to something other than "0". Tracing
 * charges zero simulated cycles, so results are identical either way;
 * only host memory/time is spent.
 */
bool defaultTrace();

/**
 * Default for MachineConfig::check: false unless the CREV_CHECK
 * environment variable is set to something other than "0". The race
 * checker is an off-clock observer like the tracer: RunMetrics are
 * bit-identical with checking on or off (tests/check_test.cpp).
 */
bool defaultCheck();

/**
 * Default for MachineConfig::oracle: false unless the CREV_ORACLE
 * environment variable is set to something other than "0". The
 * temporal-safety oracle is an off-clock observer like the race
 * checker: RunMetrics are bit-identical with it on or off.
 */
bool defaultOracle();

/** All strategies in evaluation order. */
constexpr Strategy kAllStrategies[] = {
    Strategy::kBaseline,   Strategy::kPaintOnly,
    Strategy::kCheriVoke,  Strategy::kCornucopia,
    Strategy::kReloaded,   Strategy::kCheriotFilter};

/** Full machine configuration. */
struct MachineConfig
{
    Strategy strategy = Strategy::kReloaded;

    unsigned cores = 4; //!< Morello has four cache-coherent cores
    sim::CostModel costs;
    mem::CacheConfig l1{32 * 1024, 4};
    mem::CacheConfig llc{1024 * 1024, 8};
    mem::MemLatency latency;

    alloc::QuarantinePolicy policy;

    /** Cores the background revoker may run on (paper regime: pinned
     *  to core 2 while applications own core 3). */
    std::uint32_t revoker_core_mask = 1u << 2;

    /** Run the whole-machine invariant audit after every epoch. */
    bool audit = false;

    /** Virtual-time event tracing (DESIGN.md §10). Zero simulated
     *  cost: RunMetrics are bit-identical with tracing on or off. */
    bool trace = defaultTrace();

    /** Simulation-aware race detection (DESIGN.md §11): lockset and
     *  happens-before checking over the declared shared-state domains.
     *  Zero simulated cost, like tracing. */
    bool check = defaultCheck();
    /** Temporal-safety oracle (DESIGN.md §13): records revoked-object
     *  generations and asserts no revoked capability ever loads into
     *  a register file after its epoch completed. Zero simulated
     *  cost, like the race checker. */
    bool oracle = defaultOracle();
    /** Per-thread trace ring capacity, in events. */
    std::size_t trace_buffer_events = 1u << 16;

    /** Reloaded: clear cap_ever when a sweep finds a page clean. */
    bool reloaded_clean_detect = true;
    /** §7.6 ablation: always-trap disposition for clean pages. */
    bool always_trap_clean = false;
    /** §7.1: background sweeper thread count (Reloaded). */
    unsigned background_sweepers = 1;
    /** §7.7: preemption-quantum scale for revoker threads. */
    double revoker_quantum_scale = 1.0;

    /** Chaos-campaign fault plan (disabled by default: no injector is
     *  even constructed, so existing runs are bit-identical). */
    sim::FaultPlan faults;
    /** Epoch watchdog tuning; the watchdog daemon is spawned when
     *  this is enabled or fault injection is on. */
    revoker::WatchdogPolicy watchdog;

    std::uint64_t seed = 1;

    /**
     * Structural validation: empty string when the configuration is
     * well-formed, else a message naming the offending field. The
     * Machine rejects invalid configurations at construction, next to
     * FaultPlan::validate().
     */
    std::string validate() const;
};

} // namespace crev::core

#endif // CREV_CORE_CONFIG_H_
