// Analyze fixture: host-nondeterminism (crev_analyze --self-test).
// Host entropy and wall clocks leak into simulated observables: the
// same (config, seed) would produce different metrics per run. Each
// line the pass must report carries an `expect:` marker; the others
// must stay silent.
// Not compiled -- input for the self-test only.

namespace hnfix {

struct Rng
{
    unsigned rand(); // a declaration: fine
};

using std::chrono::system_clock; // expect: host-nondeterminism

unsigned
seedFromHost(Rng &rng)
{
    // Comments may name rand() or std::chrono::steady_clock freely.
    const char *why = "steady_clock or rand() in a string is fine";
    unsigned seed = rng.rand();      // a member call: fine
    auto wall = system_clock::now(); // expect: host-nondeterminism
    seed += rand();                  // expect: host-nondeterminism
    seed ^= std::time(nullptr);      // expect: host-nondeterminism
    return seed + wall.time_since_epoch().count() + (why != nullptr);
}

} // namespace hnfix
