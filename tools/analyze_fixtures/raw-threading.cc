// Analyze fixture: raw-threading (crev_analyze --self-test).
// Host-side locking in simulated code: the blocking point is
// invisible to the scheduler, so it is neither deterministic nor
// accounted in virtual time. Must use sim::SimMutex. Each line the
// pass must report carries an `expect:` marker; the others must stay
// silent.
// Not compiled -- input for the self-test only.

namespace rtfix {

struct HostLockedQuarantine
{
    // A std::mutex named in a comment is fine.
    std::mutex lock_;                  // expect: raw-threading
    std::thread worker_;               // expect: raw-threading
    std::atomic<unsigned> pending_{0}; // expect: raw-threading
    const char *doc_ = "a std::mutex in a string literal is fine";

    void
    push()
    {
        std::lock_guard<std::mutex> g(lock_); // expect: raw-threading
        (void)pthread_self();                 // expect: raw-threading
    }
};

} // namespace rtfix
