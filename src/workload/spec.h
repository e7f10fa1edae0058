/**
 * @file
 * Synthetic batch workloads standing in for the CHERI-compatible
 * SPEC CPU2006 INT subset (paper §5.1).
 *
 * Real SPEC binaries cannot run on this simulator, but revocation cost
 * is a function of a few workload properties: live heap size,
 * allocation size distribution, free churn (the freed:allocated ratio
 * of Table 2), pointer density, and pointer-chase intensity. Each
 * profile reproduces those properties for one benchmark, scaled ~128x
 * down from the paper's measurements so the whole suite runs in
 * seconds (quarantine policy constants scale alongside; see
 * DESIGN.md §2).
 *
 * Calibration anchors (paper Table 2): xalancbmk and omnetpp cycle
 * orders of magnitude more address space than their live heaps
 * (F:A 110 and 207) and revoke less than once a second; gobmk barely
 * revokes (F:A 1.75); bzip2 and sjeng never engage revocation at all
 * and are excluded from most figures.
 */

#ifndef CREV_WORKLOAD_SPEC_H_
#define CREV_WORKLOAD_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/machine.h"
#include "core/mutator.h"

namespace crev::workload {

/** A weighted allocation-size bin. */
struct SizeBin
{
    std::size_t size;
    double weight;
};

/** One synthetic SPEC-like benchmark profile. */
struct SpecProfile
{
    std::string name;
    std::vector<SizeBin> sizes;
    /** Steady-state live object count (sets the live heap size). */
    std::size_t target_live = 1000;
    /** Total allocations performed after ramp-up (sets churn). */
    std::uint64_t total_allocs = 100000;
    /** Allocation-free operations after the churn phase (for
     *  compute/data-bound benchmarks that never free). */
    std::uint64_t pure_ops = 0;
    /** Non-allocating operations interleaved per churn event: sets
     *  how much real work the program does per byte freed (this is
     *  what separates hmmer's 2% overhead from xalancbmk's 29%). */
    unsigned ops_per_churn = 1;
    /** Probability per op of storing a capability into a live object. */
    double cap_store_rate = 0.3;
    /** Probability per op of a pointer chase (capability load + use). */
    double cap_load_rate = 0.3;
    /** Probability per op of a bulk data touch. */
    double data_rate = 0.3;
    /** Bytes touched by a data op. */
    std::size_t data_touch_bytes = 64;
    /** ALU cycles between operations. */
    Cycles compute_per_op = 60;
    /** Initialise (write) entire objects on allocation, as array
     *  workloads do — pages whole allocations in, so quarantined
     *  arrays contribute fully to RSS (fig. 3's overshoot). */
    bool init_fill = false;
};

/** All nine profiles, in the paper's figure order. */
const std::vector<SpecProfile> &specProfiles();

/** Lookup by name; fatal if unknown. */
const SpecProfile &specProfile(const std::string &name);

/** Profiles that engage revocation (bzip2 and sjeng excluded). */
std::vector<std::string> revokingSpecNames();

/**
 * Run @p profile as the single application thread of @p m (pinned to
 * core 3, per the paper's regime) and execute the machine to
 * completion. Metrics are read from m.metrics() afterwards.
 */
void runSpec(core::Machine &m, const SpecProfile &profile);

/**
 * Convenience: build a machine with @p strategy (policy scaled for
 * these workloads), run @p profile, and return the metrics.
 */
core::RunMetrics runSpecOn(core::Strategy strategy,
                           const SpecProfile &profile,
                           std::uint64_t seed = 1);

/** The quarantine policy used for all SPEC-like runs. */
alloc::QuarantinePolicy specPolicy();

} // namespace crev::workload

#endif // CREV_WORKLOAD_SPEC_H_
