// Analyze fixture: every violation below is waived with an
// `analyze: <rule>-ok` annotation, so the file must be CLEAN under
// `crev_analyze --self-test` with at least one waiver used per pass
// and no waiver reported stale.
// Not compiled -- input for the self-test only.

namespace wvfix {

struct SimThread
{
    void accrue(unsigned long cycles);
};

struct SimEvent
{
    void wait(SimThread &t);
};

void
SimEvent::wait(SimThread &t)
{
    t.accrue(1);
}

struct NoYield
{
    explicit NoYield(SimThread &t);
};

struct Mmu
{
    unsigned gen_ = 0;

    bool peekTag(unsigned long long va);
    void flipGen();
};

// Single-writer: flipped only during construction, before any second
// thread exists.
void
Mmu::flipGen() // analyze: lock-evidence-ok (fixture: init-time only)
{
    gen_ ^= 1u;
}

unsigned
tagsIn(Mmu &mmu, unsigned long long va)
{
    // analyze: uncharged-reach-ok (fixture: caller charged the line)
    return mmu.peekTag(va) ? 1u : 0u;
}

struct Waiter
{
    SimEvent ev_;

    void parkInside(SimThread &t);
};

void
Waiter::parkInside(SimThread &t)
{
    NoYield guard(t);
    // analyze: noyield-reach-ok (fixture: models the waived idiom)
    ev_.wait(t);
}

struct Revoker
{
    void snapshotAuditSet();
    void finishEpoch();
    void doEpoch();
};

void
Revoker::doEpoch() // analyze: epoch-phase-ok (fixture: partial driver)
{
    snapshotAuditSet();
    finishEpoch();
}

// The token passes: a waiver on the finding's line or the line above.
struct HostSide
{
    // analyze: raw-threading-ok (fixture: host-side aggregation)
    std::mutex results_lock_;
    std::unordered_set<unsigned> seen_;
    unsigned clg = 0;

    long
    stamp()
    {
        long n = 0;
        // analyze: unordered-iteration-ok (fixture: order-free sum)
        for (unsigned s : seen_)
            n += s;
        // analyze: host-nondeterminism-ok (fixture: log banner only)
        auto wall = std::chrono::steady_clock::now();
        return n + wall.time_since_epoch().count();
    }

    void
    reset(HostSide &o)
    {
        o.clg = 0; // analyze: pte-publish-ok (fixture: not a Pte)
    }
};

} // namespace wvfix
