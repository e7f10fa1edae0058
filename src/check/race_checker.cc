#include "check/race_checker.h"

#include <algorithm>
#include <sstream>

namespace crev::check {

// ---------------------------------------------------------------------
// VectorClock
// ---------------------------------------------------------------------

void
VectorClock::tick(unsigned tid)
{
    if (v_.size() <= tid)
        v_.resize(tid + 1, 0);
    ++v_[tid];
}

void
VectorClock::join(const VectorClock &o)
{
    if (v_.size() < o.v_.size())
        v_.resize(o.v_.size(), 0);
    for (std::size_t i = 0; i < o.v_.size(); ++i)
        v_[i] = std::max(v_[i], o.v_[i]);
}

std::uint64_t
VectorClock::at(unsigned tid) const
{
    return tid < v_.size() ? v_[tid] : 0;
}

bool
VectorClock::leq(const VectorClock &o) const
{
    for (std::size_t i = 0; i < v_.size(); ++i)
        if (v_[i] > o.at(static_cast<unsigned>(i)))
            return false;
    return true;
}

// ---------------------------------------------------------------------
// RaceChecker — plumbing
// ---------------------------------------------------------------------

RaceChecker::ThreadState &
RaceChecker::thread(unsigned tid)
{
    if (threads_.size() <= tid)
        threads_.resize(tid + 1);
    return threads_[tid];
}

bool
RaceChecker::holds(unsigned tid, const void *m) const
{
    if (threads_.size() <= tid)
        return false;
    const auto &ls = threads_[tid].locks;
    return std::find(ls.begin(), ls.end(), m) != ls.end();
}

std::string
RaceChecker::lockNames(unsigned tid) const
{
    if (threads_.size() <= tid || threads_[tid].locks.empty())
        return "{}";
    std::string out = "{";
    for (const void *m : threads_[tid].locks) {
        if (out.size() > 1)
            out += ",";
        auto it = lock_names_.find(m);
        out += it != lock_names_.end() ? it->second : "?";
    }
    return out + "}";
}

void
RaceChecker::report(const char *rule, unsigned tid, Cycles at,
                    Addr addr, std::string detail)
{
    if (violations_.size() >= kMaxViolations) {
        ++suppressed_;
        return;
    }
    violations_.push_back(
        Violation{rule, std::move(detail), tid, at, addr});
}

// ---------------------------------------------------------------------
// Scheduler edges
// ---------------------------------------------------------------------

void
RaceChecker::onThreadSpawn(int parent_tid, unsigned child_tid)
{
    ThreadState &child = thread(child_tid);
    if (parent_tid >= 0) {
        ThreadState &parent =
            thread(static_cast<unsigned>(parent_tid));
        parent.vc.tick(static_cast<unsigned>(parent_tid));
        child.vc.join(parent.vc);
    }
    child.vc.tick(child_tid);
}

void
RaceChecker::onWake(unsigned waker, unsigned wakee)
{
    ThreadState &w = thread(waker);
    w.vc.tick(waker);
    thread(wakee).vc.join(w.vc);
}

void
RaceChecker::onStwBegin(unsigned owner)
{
    // The world stops: every thread's history happens-before the
    // owner's world-stopped work.
    ThreadState &o = thread(owner);
    for (const ThreadState &t : threads_)
        o.vc.join(t.vc);
    o.vc.tick(owner);
    stw_owner_ = static_cast<int>(owner);
}

void
RaceChecker::onStwEnd(unsigned owner)
{
    // The world restarts: the owner's world-stopped work
    // happens-before everything that follows on any thread.
    ThreadState &o = thread(owner);
    o.vc.tick(owner);
    for (std::size_t i = 0; i < threads_.size(); ++i)
        if (i != owner)
            threads_[i].vc.join(o.vc);
    stw_owner_ = -1;
}

// ---------------------------------------------------------------------
// Mutexes
// ---------------------------------------------------------------------

void
RaceChecker::onMutexAcquire(unsigned tid, const void *m)
{
    ThreadState &t = thread(tid);
    auto it = mutex_release_.find(m);
    if (it != mutex_release_.end())
        t.vc.join(it->second);
    t.locks.push_back(m);
}

void
RaceChecker::onMutexRelease(unsigned tid, const void *m)
{
    ThreadState &t = thread(tid);
    auto it = std::find(t.locks.rbegin(), t.locks.rend(), m);
    if (it != t.locks.rend())
        t.locks.erase(std::next(it).base());
    t.vc.tick(tid);
    mutex_release_[m] = t.vc;
}

void
RaceChecker::nameLock(const void *m, const char *name)
{
    lock_names_[m] = name;
}

// ---------------------------------------------------------------------
// Shared-state domains
// ---------------------------------------------------------------------

void
RaceChecker::onEpochAdvance(unsigned tid, Cycles, std::uint64_t value)
{
    thread(tid); // materialise
    epoch_value_ = value;
}

void
RaceChecker::onPtePublish(unsigned tid, Cycles at, Addr page,
                          bool disciplined)
{
    ThreadState &t = thread(tid);
    if (!disciplined) {
        std::ostringstream os;
        os << "PTE publish of page 0x" << std::hex << page << std::dec
           << " without the pmap lock or STW ownership; locks held "
           << lockNames(tid);
        report("pte-unlocked-publish", tid, at, page, os.str());
    }
    auto it = last_publish_.find(page);
    if (it != last_publish_.end() && it->second.tid != tid &&
        !it->second.vc.leq(t.vc)) {
        std::ostringstream os;
        os << "publish of page 0x" << std::hex << page << std::dec
           << " by thread " << tid << " at " << at
           << " is unordered with the previous publish by thread "
           << it->second.tid << " at " << it->second.at;
        report("pte-unordered-publish", tid, at, page, os.str());
    }
    LastPublish &lp = last_publish_[page];
    lp.tid = tid;
    lp.at = at;
    lp.vc = t.vc;
}

void
RaceChecker::onPteTeardown(unsigned tid, Cycles at, Addr page,
                           bool locked)
{
    thread(tid);
    // §4.3: bulk PTE teardown is excluded while a revocation sweep is
    // in flight (counter odd) unless serialised by the pmap lock or
    // performed with the world stopped.
    if ((epoch_value_ & 1) != 0 && !locked) {
        std::ostringstream os;
        os << "PTE teardown of page 0x" << std::hex << page << std::dec
           << " while epoch counter is odd (" << epoch_value_
           << ") without the pmap lock or STW ownership";
        report("pte-teardown-during-epoch", tid, at, page, os.str());
    }
    // A teardown supersedes any publish history for the page.
    last_publish_.erase(page);
}

void
RaceChecker::onGenFlip(unsigned tid, Cycles at)
{
    thread(tid);
    if (stw_owner_ != static_cast<int>(tid)) {
        report("gen-flip-outside-stw", tid, at, 0,
               "core load-generation flip while the world is running");
    }
}

void
RaceChecker::onShadowRmwBegin(unsigned tid, Cycles at, Addr byte_va)
{
    thread(tid);
    auto it = open_rmw_.find(byte_va);
    if (it != open_rmw_.end() && it->second != tid) {
        std::ostringstream os;
        os << "shadow byte 0x" << std::hex << byte_va << std::dec
           << ": RMW by thread " << tid
           << " interleaves an open RMW window of thread "
           << it->second << " (lost-update hazard)";
        report("shadow-rmw-race", tid, at, byte_va, os.str());
    }
    open_rmw_[byte_va] = tid;
}

void
RaceChecker::onShadowRmwEnd(unsigned tid, Addr byte_va)
{
    auto it = open_rmw_.find(byte_va);
    if (it != open_rmw_.end() && it->second == tid)
        open_rmw_.erase(it);
}

void
RaceChecker::onShadowWrite(unsigned tid, Cycles at, Addr byte_va,
                           Addr bytes)
{
    thread(tid);
    if (open_rmw_.empty())
        return;
    for (const auto &[va, owner] : open_rmw_) {
        if (owner != tid && va >= byte_va && va < byte_va + bytes) {
            std::ostringstream os;
            os << "bulk shadow write covering byte 0x" << std::hex
               << va << std::dec
               << " inside thread " << owner << "'s open RMW window";
            report("shadow-rmw-race", tid, at, va, os.str());
        }
    }
}

void
RaceChecker::onShadowProbe(unsigned tid, Cycles at, Addr byte_va)
{
    thread(tid);
    auto it = open_rmw_.find(byte_va);
    if (it != open_rmw_.end() && it->second != tid) {
        std::ostringstream os;
        os << "shadow probe of byte 0x" << std::hex << byte_va
           << std::dec << " inside thread " << it->second
           << "'s open RMW window (torn read)";
        report("shadow-rmw-race", tid, at, byte_va, os.str());
    }
}

void
RaceChecker::onQuarantineAccess(unsigned tid, Cycles at, bool locked)
{
    thread(tid);
    if (!locked) {
        report("quarantine-unlocked-access", tid, at, 0,
               "quarantine buffer access without the heap lock; "
               "locks held " +
                   lockNames(tid));
    }
}

void
RaceChecker::onMappingHandoff(unsigned tid, Cycles at,
                              bool shutting_down)
{
    thread(tid);
    if ((epoch_value_ & 1) != 0 && !shutting_down) {
        std::ostringstream os;
        os << "unmap->reap hand-off drained while epoch counter is "
           << "odd (" << epoch_value_
           << "): the munmap quiesce barrier was bypassed";
        report("mapping-handoff-during-epoch", tid, at, 0, os.str());
    }
}

void
RaceChecker::onDequarantineRelease(unsigned tid, Cycles at,
                                   std::uint64_t target,
                                   std::uint64_t counter)
{
    thread(tid);
    if (counter < target) {
        std::ostringstream os;
        os << "quarantine buffer released at epoch counter " << counter
           << " before its dequarantine target " << target
           << " (+2/+3 protocol violated)";
        report("epoch-order-violation", tid, at, 0, os.str());
    }
}

void
RaceChecker::onStwScan(unsigned tid, Cycles at)
{
    thread(tid);
    if (stw_owner_ != static_cast<int>(tid)) {
        report("stw-scan-outside-stw", tid, at, 0,
               "register/hoard scan while mutators may run");
    }
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

namespace {

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
}

} // namespace

std::string
RaceChecker::reportJson() const
{
    std::ostringstream os;
    os << "{\"violations\":[";
    bool first = true;
    for (const Violation &v : violations_) {
        if (!first)
            os << ",";
        first = false;
        std::string detail;
        appendEscaped(detail, v.detail);
        os << "{\"rule\":\"" << v.rule << "\",\"tid\":" << v.tid
           << ",\"at\":" << v.at << ",\"addr\":" << v.addr
           << ",\"detail\":\"" << detail << "\"}";
    }
    os << "],\"suppressed\":" << suppressed_
       << ",\"threads\":" << threads_.size()
       << ",\"epoch_counter\":" << epoch_value_ << "}";
    return os.str();
}

} // namespace crev::check
