#include "vm/tlb.h"

#include "base/logging.h"

namespace crev::vm {

Tlb::Tlb(std::size_t capacity) : capacity_(capacity)
{
    // 4x capacity, power of two: load factor stays <= 0.25.
    std::size_t n = 4;
    while (n < capacity_ * 4)
        n <<= 1;
    slot_vpn_.assign(n, 0);
    slot_pte_.assign(n, Pte{});
}

bool
Tlb::erase(Addr vpn)
{
    std::size_t i = findIndex(vpn);
    if (i == kNone)
        return false;
    // Backward-shift deletion: no tombstones, probes stay short.
    std::size_t j = i;
    for (;;) {
        j = (j + 1) & slotMask();
        if (slot_vpn_[j] == 0)
            break;
        const std::size_t h = homeOf(slot_vpn_[j]);
        if (((j - h) & slotMask()) >= ((j - i) & slotMask())) {
            slot_vpn_[i] = slot_vpn_[j];
            slot_pte_[i] = slot_pte_[j];
            i = j;
        }
    }
    slot_vpn_[i] = 0;
    --size_;
    return true;
}

void
Tlb::insert(Addr vpn, const Pte &pte)
{
    CREV_ASSERT(vpn != 0);
    const std::size_t found = findIndex(vpn);
    if (found != kNone) {
        slot_pte_[found] = pte;
        return;
    }
    if (size_ >= capacity_) {
        // FIFO eviction keeps runs deterministic; the queue may hold
        // vpns already dropped by invalidatePage, so pop until an
        // erase actually lands.
        while (!fifo_.empty()) {
            const Addr victim = fifo_.front();
            fifo_.pop_front();
            if (erase(victim))
                break;
        }
    }
    fifo_.push_back(vpn);
    std::size_t i = homeOf(vpn);
    while (slot_vpn_[i] != 0)
        i = (i + 1) & slotMask();
    slot_vpn_[i] = vpn;
    slot_pte_[i] = pte;
    ++size_;
}

void
Tlb::invalidatePage(Addr vpn)
{
    erase(vpn);
}

void
Tlb::invalidateAll()
{
    slot_vpn_.assign(slot_vpn_.size(), 0);
    size_ = 0;
    fifo_.clear();
}

} // namespace crev::vm
