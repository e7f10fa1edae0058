// Analyze fixture: noyield-reach (crev_analyze --self-test).
// The helper called inside the NoYield window transitively reaches
// SimMutex::lock, a park point two hops away -- the interprocedural
// pass must report it (the retired line-level lint could not).
// Not compiled -- input for the self-test only.

namespace nyfix {

struct SimThread
{
    void accrue(unsigned long cycles);
};

struct SimMutex
{
    void lock(SimThread &t);
};

void
SimMutex::lock(SimThread &t)
{
    t.accrue(1);
}

struct NoYield
{
    explicit NoYield(SimThread &t);
};

struct Inbox
{
    SimMutex lock_;

    void takeLocked(SimThread &t);
    void splice(SimThread &t);
};

void
Inbox::takeLocked(SimThread &t)
{
    lock_.lock(t);
}

void
Inbox::splice(SimThread &t)
{
    NoYield guard(t);
    takeLocked(t); // expect: noyield-reach (SimMutex::lock)
}

} // namespace nyfix
