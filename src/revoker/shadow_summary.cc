#include "revoker/shadow_summary.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "base/logging.h"

namespace crev::revoker {

namespace {

std::uint64_t
popcountWords(const std::uint64_t *w, std::size_t n)
{
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < n; ++i)
        c += static_cast<std::uint64_t>(std::popcount(w[i]));
    return c;
}

} // namespace

ShadowSummary::ShadowSummary()
    : l1_(kBlocks / 64, 0), block_counts_(kBlocks, 0), blocks_(kBlocks)
{
}

void
ShadowSummary::setGranules(Addr g_from, Addr g_to, bool value)
{
    CREV_ASSERT(g_from <= g_to);
    CREV_ASSERT(g_from >= kGranuleFloor);
    CREV_ASSERT(g_to <= kGranuleFloor + kGranuleCount);

    Addr i = g_from - kGranuleFloor;
    const Addr end = g_to - kGranuleFloor;
    while (i < end) {
        const std::size_t b =
            static_cast<std::size_t>(i / kGranulesPerBlock);
        const Addr block_end = std::min<Addr>(
            end, static_cast<Addr>(b + 1) * kGranulesPerBlock);
        std::vector<std::uint64_t> &blk = blocks_[b];
        if (blk.empty()) {
            if (!value) {
                // Clearing an untouched block: nothing to do.
                i = block_end;
                continue;
            }
            blk.assign(kWordsPerBlock, 0);
        }

        // Per-block population delta: the partial edge words keep the
        // masked RMW, the interior full words are counted and filled
        // whole — the span-paint fast path for large quarantine paints
        // and clears.
        std::int64_t delta = 0;
        auto rmw = [&](Addr from, Addr to) {
            const Addr word_base = from & ~Addr{63};
            std::uint64_t mask =
                ~std::uint64_t{0}
                << static_cast<unsigned>(from - word_base);
            if (to - word_base < 64)
                mask &=
                    (std::uint64_t{1}
                     << static_cast<unsigned>(to - word_base)) -
                    1;
            std::uint64_t &w = blk[(from / 64) % kWordsPerBlock];
            const std::uint64_t old = w;
            w = value ? (old | mask) : (old & ~mask);
            delta += std::popcount(w) - std::popcount(old);
        };

        if ((i & 63) != 0) {
            const Addr word_end =
                std::min<Addr>(block_end, (i & ~Addr{63}) + 64);
            rmw(i, word_end);
            i = word_end;
        }
        const std::size_t nfull =
            static_cast<std::size_t>((block_end - i) / 64);
        if (nfull != 0) {
            std::uint64_t *w0 = &blk[(i / 64) % kWordsPerBlock];
            const std::uint64_t pop = popcountWords(w0, nfull);
            delta += value ? static_cast<std::int64_t>(64 * nfull) -
                                 static_cast<std::int64_t>(pop)
                           : -static_cast<std::int64_t>(pop);
            std::fill(w0, w0 + nfull, value ? ~std::uint64_t{0} : 0);
            i += static_cast<Addr>(nfull) * 64;
        }
        if (i < block_end) {
            rmw(i, block_end);
            i = block_end;
        }

        if (delta != 0) {
            count_ = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(count_) + delta);
            block_counts_[b] = static_cast<std::uint32_t>(
                static_cast<std::int64_t>(block_counts_[b]) + delta);
        }
        if (block_counts_[b] != 0)
            l1_[b >> 6] |= std::uint64_t{1} << (b & 63);
        else
            l1_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }
}

void
ShadowSummary::clearRange(Addr base, Addr len)
{
    if (len == 0)
        return;
    setGranules(base >> kGranuleBits,
                (base + len + kGranuleSize - 1) >> kGranuleBits, false);
}

std::vector<std::string>
ShadowSummary::checkConsistent() const
{
    std::vector<std::string> out;
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < kBlocks; ++b) {
        const std::uint64_t cnt =
            popcountWords(blocks_[b].data(), blocks_[b].size());
        total += cnt;
        if (cnt != block_counts_[b]) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "block %zu population %llu != maintained %u",
                          b, static_cast<unsigned long long>(cnt),
                          block_counts_[b]);
            out.push_back(buf);
        }
        const bool l1 = ((l1_[b >> 6] >> (b & 63)) & 1) != 0;
        if (l1 != (cnt != 0)) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "block %zu level-1 bit %d but population %llu",
                          b, l1 ? 1 : 0,
                          static_cast<unsigned long long>(cnt));
            out.push_back(buf);
        }
    }
    if (total != count_) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "total population %llu != maintained count %llu",
                      static_cast<unsigned long long>(total),
                      static_cast<unsigned long long>(count_));
        out.push_back(buf);
    }
    return out;
}

void
ShadowSummary::forEachSet(const std::function<void(Addr)> &fn) const
{
    for (std::size_t b = 0; b < kBlocks; ++b) {
        if (((l1_[b >> 6] >> (b & 63)) & 1) == 0)
            continue;
        const std::vector<std::uint64_t> &blk = blocks_[b];
        if (blk.empty())
            continue;
        for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
            std::uint64_t word = blk[w];
            while (word != 0) {
                const unsigned bit = static_cast<unsigned>(
                    std::countr_zero(word));
                word &= word - 1;
                fn(kGranuleFloor +
                   static_cast<Addr>(b) * kGranulesPerBlock +
                   static_cast<Addr>(w) * 64 + bit);
            }
        }
    }
}

bool
ShadowSummary::corruptBit(std::uint64_t entropy, Addr *granule_out)
{
    std::vector<std::size_t> allocated;
    for (std::size_t b = 0; b < kBlocks; ++b)
        if (!blocks_[b].empty())
            allocated.push_back(b);
    if (allocated.empty())
        return false;
    const std::size_t b = allocated[entropy % allocated.size()];
    const std::size_t w =
        static_cast<std::size_t>(entropy >> 20) % kWordsPerBlock;
    const unsigned bit = static_cast<unsigned>(entropy >> 40) % 64;
    blocks_[b][w] ^= std::uint64_t{1} << bit;
    *granule_out = kGranuleFloor +
                   static_cast<Addr>(b) * kGranulesPerBlock +
                   static_cast<Addr>(w) * 64 + bit;
    return true;
}

std::vector<std::size_t>
ShadowSummary::inconsistentBlocks() const
{
    std::vector<std::size_t> out;
    for (std::size_t b = 0; b < kBlocks; ++b) {
        const std::uint64_t cnt =
            popcountWords(blocks_[b].data(), blocks_[b].size());
        const bool l1 = ((l1_[b >> 6] >> (b & 63)) & 1) != 0;
        if (cnt != block_counts_[b] || l1 != (cnt != 0))
            out.push_back(b);
    }
    return out;
}

void
ShadowSummary::rebuildBlock(std::size_t b,
                            const std::function<bool(Addr)> &painted)
{
    CREV_ASSERT(b < kBlocks);
    std::vector<std::uint64_t> &blk = blocks_[b];
    if (blk.empty())
        blk.assign(kWordsPerBlock, 0);
    const Addr base = kGranuleFloor +
                      static_cast<Addr>(b) * kGranulesPerBlock;
    for (std::size_t w = 0; w < kWordsPerBlock; ++w) {
        std::uint64_t word = 0;
        for (unsigned bit = 0; bit < 64; ++bit) {
            if (painted(base + static_cast<Addr>(w) * 64 + bit))
                word |= std::uint64_t{1} << bit;
        }
        blk[w] = word;
    }
    const std::uint64_t pop = popcountWords(blk.data(), kWordsPerBlock);
    count_ = count_ - block_counts_[b] + pop;
    block_counts_[b] = static_cast<std::uint32_t>(pop);
    if (pop != 0)
        l1_[b >> 6] |= std::uint64_t{1} << (b & 63);
    else
        l1_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
}

} // namespace crev::revoker
