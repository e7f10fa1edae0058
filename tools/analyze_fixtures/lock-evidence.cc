// Analyze fixture: lock-evidence (crev_analyze --self-test).
// flipGen mutates the shared generation bit and is reachable from a
// call-graph root with no synchronisation evidence anywhere on the
// path -- the pass must report it.
// Not compiled -- input for the self-test only.

namespace lefix {

struct Mmu
{
    unsigned gen_ = 0;

    void flipGen();
};

void
Mmu::flipGen()
{
    gen_ ^= 1u; // expect: lock-evidence
}

} // namespace lefix
