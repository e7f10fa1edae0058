/**
 * @file
 * CHERI-Concentrate-style 128-bit capability compression.
 *
 * Layout of the in-memory form (the tag travels out of band in the
 * tagged memory model):
 *
 *   lo (64 bits) : address (cursor)
 *   hi (64 bits) : | perms (12) | E (6) | B (14) | L (15) | rsvd |
 *
 * Bounds are encoded as a 14-bit base mantissa B and a 15-bit length
 * mantissa L at alignment 2^E, exactly enough to express the CHERI
 * Concentrate properties this reproduction depends on:
 *
 *  - small regions (<= 8 KiB) are byte-precise (E = 0);
 *  - larger regions force E > 0, so encode() rounds bounds outward to
 *    2^E alignment — this is the padding that reservations (paper
 *    §6.2, footnote 26) must account for;
 *  - the base is recovered from the address via the standard
 *    representable-region correction, so moving the cursor outside the
 *    representable region must (and does) untag the capability.
 */

#ifndef CREV_CAP_COMPRESSION_H_
#define CREV_CAP_COMPRESSION_H_

#include <cstdint>

#include "base/logging.h"
#include "base/types.h"
#include "cap/capability.h"

namespace crev::cap {

/** The raw 128-bit in-memory form (tag excluded). */
struct CapBits
{
    std::uint64_t lo = 0; //!< address word
    std::uint64_t hi = 0; //!< metadata word

    bool operator==(const CapBits &o) const = default;
};

/** Mantissa widths of the encoding. */
constexpr unsigned kMantissaBits = 14;
/** Representable-space slack below the base, in 2^E units. */
constexpr unsigned kReprSlackBits = 12;

namespace detail {

// Field layout within the metadata word.
constexpr unsigned kPermsShift = 52;
constexpr unsigned kExpShift = 46;
constexpr unsigned kBaseShift = 32;
constexpr unsigned kLenShift = 17;

constexpr std::uint64_t kMantissaMask = (1ull << kMantissaBits) - 1;
constexpr std::uint64_t kLenMask = (1ull << (kMantissaBits + 1)) - 1;

// Maximum region size, in 2^E units, encodable at a given exponent.
// 2^14 units of representable space minus 2^12 units of slack below the
// base and 2^12 units above the top (so cursors may stray slightly out
// of bounds, e.g. one-past-the-end, without untagging).
constexpr Addr kMaxUnits =
    (Addr{1} << kMantissaBits) - 2 * (Addr{1} << kReprSlackBits);

} // namespace detail

/**
 * Exponent required to encode a region of @p length bytes.
 * E = 0 iff length <= 2^14.
 *
 * encode()/decode() below are inline: they sit on the MMU's per-access
 * capability load/store paths, where the cross-TU call cost is
 * measurable.
 */
inline unsigned
exponentFor(Addr length)
{
    unsigned e = 0;
    while ((roundUp(length, Addr{1} << e) >> e) > detail::kMaxUnits)
        ++e;
    return e;
}

/** Alignment (bytes) the base must have for exact encoding. */
inline Addr
representableAlignment(Addr length)
{
    return Addr{1} << exponentFor(length);
}

/**
 * Round @p length up so that a region of the returned length, placed at
 * representableAlignment() alignment, encodes exactly.
 */
inline Addr
representableLength(Addr length)
{
    return roundUp(length, representableAlignment(length));
}

/**
 * Compress @p c. The capability's bounds are rounded outward to the
 * encoding's precision; callers that need exact bounds must pre-align
 * (the allocator and reservation code do). The tag is not part of the
 * result.
 */
inline CapBits
encode(const Capability &c)
{
    // Select the exponent accounting for alignment-induced growth:
    // rounding the base down and the top up can add up to two units.
    unsigned e = exponentFor(c.length());
    Addr b = 0, t = 0;
    for (;; ++e) {
        b = roundDown(c.base, Addr{1} << e);
        t = roundUp(c.top, Addr{1} << e);
        if (((t - b) >> e) <= detail::kMaxUnits)
            break;
        CREV_ASSERT(e < 50);
    }

    CapBits bits;
    bits.lo = c.address;
    bits.hi = (static_cast<std::uint64_t>(c.perms) & 0xFFF)
                  << detail::kPermsShift |
              (static_cast<std::uint64_t>(e) & 0x3F)
                  << detail::kExpShift |
              ((b >> e) & detail::kMantissaMask) << detail::kBaseShift |
              (((t - b) >> e) & detail::kLenMask) << detail::kLenShift;
    return bits;
}

/**
 * Decompress @p bits; @p tag supplies the out-of-band tag bit.
 * Untagged bit patterns decode to *some* capability value without
 * faulting (sweeps inspect the tag first).
 */
inline Capability
decode(const CapBits &bits, bool tag)
{
    Capability c;
    c.address = bits.lo;
    c.perms = static_cast<std::uint32_t>(bits.hi >> detail::kPermsShift) &
              0xFFF;
    const unsigned e =
        static_cast<unsigned>(bits.hi >> detail::kExpShift) & 0x3F;
    const std::uint64_t bmant =
        (bits.hi >> detail::kBaseShift) & detail::kMantissaMask;
    const std::uint64_t lmant =
        (bits.hi >> detail::kLenShift) & detail::kLenMask;

    // Recover the base's high bits from the address via the
    // representable-region correction (CHERI Concentrate style): the
    // region begins 2^12 units below the base's mantissa.
    const std::uint64_t amid =
        (c.address >> e) & detail::kMantissaMask;
    // Untagged garbage can carry any 6-bit exponent; once e + 14
    // covers the word there are no address bits above the mantissa.
    const unsigned top_shift = e + kMantissaBits;
    const std::uint64_t atop =
        top_shift < 64 ? c.address >> top_shift : 0;
    const std::uint64_t r =
        (bmant - (std::uint64_t{1} << kReprSlackBits)) &
        detail::kMantissaMask;
    const std::int64_t cb = (bmant < r ? 1 : 0) - (amid < r ? 1 : 0);

    const std::uint64_t base_hi = atop + static_cast<std::uint64_t>(cb);
    c.base = ((base_hi << kMantissaBits) | bmant) << e;
    c.top = c.base + (lmant << e);
    c.tag = tag;
    return c;
}

/**
 * The representable region of a capability: cursors within
 * [repr_base, repr_top) keep the encoding decodable. Bounds-valid
 * cursors are always inside it.
 */
struct ReprRange
{
    Addr repr_base;
    Addr repr_top;
};
ReprRange representableRange(const Capability &c);

} // namespace crev::cap

#endif // CREV_CAP_COMPRESSION_H_
