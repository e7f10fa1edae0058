// Analyze fixture: pte-publish (crev_analyze --self-test).
// An in-place CLG/trap rewrite outside SweepEngine::publishPage, with
// no TLB shootdown paired with it: a core holding a cached
// translation would keep trapping (or worse, not trap) on the stale
// generation. Each line the pass must report carries an `expect:`
// marker; the others must stay silent.
// Not compiled -- input for the self-test only.

namespace ppfix {

struct Pte
{
    unsigned clg = 0;
    bool cap_load_trap = false;
    bool cap_dirty = false;
    bool cap_ever = false;
};

void
publishWithoutInvalidation(Pte &p, Pte *q, unsigned gen)
{
    if (p.clg == gen) // a read: fine
        return;
    p.clg = gen;             // expect: pte-publish
    p.cap_load_trap = false; // expect: pte-publish
    p.cap_dirty = false;     // expect: pte-publish
    q->cap_ever |= true;     // expect: pte-publish
}

} // namespace ppfix
