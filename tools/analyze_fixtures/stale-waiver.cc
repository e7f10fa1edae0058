// Analyze fixture: the waiver audit (crev_analyze --self-test).
// One waiver below is live and must not be reported; one is dead
// (nothing it covers trips its pass) and one names no pass. Each
// line the audit must report carries an `expect:` marker.
// Not compiled -- input for the self-test only.

namespace swfix {

struct Waivers
{
    // Live: the next line really does declare a host mutex.
    // analyze: raw-threading-ok (fixture: live waiver)
    std::mutex host_lock_;

    // analyze: raw-threading-ok (dead) expect: stale-waiver
    int plain_counter_ = 0;

    // analyze: shared-mutation-ok (no such pass) expect: stale-waiver
    unsigned gen_ = 0;
};

} // namespace swfix
