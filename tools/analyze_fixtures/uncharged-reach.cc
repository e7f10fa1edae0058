// Analyze fixture: uncharged-reach (crev_analyze --self-test).
// scan() peeks tags with no charge in the function and is reachable
// from a non-observer root -- the pass must report it.
// Not compiled -- input for the self-test only.

namespace urfix {

struct Mmu
{
    bool peekTag(unsigned long long va);
};

struct Walker
{
    unsigned tags_seen = 0;

    void scan(Mmu &mmu, unsigned long long va);
};

void
Walker::scan(Mmu &mmu, unsigned long long va)
{
    if (mmu.peekTag(va)) // expect: uncharged-reach
        ++tags_seen;
}

} // namespace urfix
