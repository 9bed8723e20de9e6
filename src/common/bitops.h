/**
 * @file
 * Small bit-manipulation helpers used by the address-mapping code.
 *
 * Address maps in this project are described as ordered lists of bit fields;
 * these helpers extract and deposit contiguous fields of a 64-bit word.
 */

#ifndef RELAXFAULT_COMMON_BITOPS_H
#define RELAXFAULT_COMMON_BITOPS_H

#include <bit>
#include <cstdint>

namespace relaxfault {

/** Return a mask with the low @p width bits set (width may be 0..64). */
constexpr uint64_t
maskBits(unsigned width)
{
    return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

/** Extract @p width bits starting at bit @p lsb of @p value. */
constexpr uint64_t
extractBits(uint64_t value, unsigned lsb, unsigned width)
{
    return (value >> lsb) & maskBits(width);
}

/** Deposit the low @p width bits of @p field at bit @p lsb of @p value. */
constexpr uint64_t
depositBits(uint64_t value, unsigned lsb, unsigned width, uint64_t field)
{
    const uint64_t mask = maskBits(width) << lsb;
    return (value & ~mask) | ((field << lsb) & mask);
}

/**
 * Number of bits needed to index @p count distinct values: the width of
 * count - 1, so 0 and 1 both need none.
 */
constexpr unsigned
indexBits(uint64_t count)
{
    return count == 0 ? 0 : static_cast<unsigned>(std::bit_width(count - 1));
}

/** True if @p value is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

/** XOR-fold @p value down to @p width bits (classic set-index hash). */
constexpr uint64_t
xorFold(uint64_t value, unsigned width)
{
    if (width == 0)
        return 0;
    uint64_t folded = 0;
    while (value != 0) {
        folded ^= value & maskBits(width);
        value >>= width;
    }
    return folded;
}

} // namespace relaxfault

#endif // RELAXFAULT_COMMON_BITOPS_H
