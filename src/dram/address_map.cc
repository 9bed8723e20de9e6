#include "dram/address_map.h"

#include "common/bitops.h"
#include "common/log.h"

namespace relaxfault {
namespace {

/**
 * Invert an n x n GF(2) bit matrix in place (row i is a bit mask over
 * columns). Returns false if singular.
 */
bool
invertGf2(std::vector<uint64_t> &rows, unsigned n)
{
    std::vector<uint64_t> inverse(n);
    for (unsigned i = 0; i < n; ++i)
        inverse[i] = uint64_t{1} << i;
    for (unsigned col = 0; col < n; ++col) {
        unsigned pivot = col;
        while (pivot < n && !((rows[pivot] >> col) & 1))
            ++pivot;
        if (pivot == n)
            return false;
        std::swap(rows[col], rows[pivot]);
        std::swap(inverse[col], inverse[pivot]);
        for (unsigned r = 0; r < n; ++r) {
            if (r != col && ((rows[r] >> col) & 1)) {
                rows[r] ^= rows[col];
                inverse[r] ^= inverse[col];
            }
        }
    }
    rows = std::move(inverse);
    return true;
}

/**
 * Append the byte-sliced tables of the matrix whose rows are @p masks
 * (output bit i = parity(masks[i] & input)): entry v of slice k is the
 * XOR of the columns that the set bits of byte v select.
 */
void
appendSliceTables(const std::vector<uint64_t> &masks, unsigned slices,
                  std::vector<uint64_t> &tables)
{
    for (unsigned k = 0; k < slices; ++k) {
        uint64_t columns[8] = {};
        for (unsigned b = 0; b < 8; ++b) {
            for (unsigned i = 0; i < masks.size(); ++i)
                columns[b] |= ((masks[i] >> (8 * k + b)) & 1) << i;
        }
        const size_t base = tables.size();
        tables.resize(base + 256, 0);
        for (unsigned v = 1; v < 256; ++v)
            tables[base + v] = tables[base + (v & (v - 1))] ^
                               columns[__builtin_ctz(v)];
    }
}

/** Column-block bits below the bank field in the Fig. 7a layout. */
constexpr unsigned kColLowBits = 6;

/**
 * Field LSB positions within the line address (the Fig. 7a base layout
 * every scheme builder starts from): channel | col-low | bank |
 * col-high | rank | row.
 */
struct FieldLayout
{
    unsigned colLowBits;
    unsigned colHighBits;
    unsigned channelLsb;
    unsigned colLowLsb;
    unsigned bankLsb;
    unsigned colHighLsb;
    unsigned rankLsb;
    unsigned rowLsb;

    explicit FieldLayout(const DramGeometry &geometry)
    {
        const unsigned col_bits = geometry.colBlockBits();
        colLowBits = col_bits < kColLowBits ? col_bits : kColLowBits;
        colHighBits = col_bits - colLowBits;
        unsigned lsb = 0;
        channelLsb = lsb;
        lsb += geometry.channelBits();
        colLowLsb = lsb;
        lsb += colLowBits;
        bankLsb = lsb;
        lsb += geometry.bankBits();
        colHighLsb = lsb;
        lsb += colHighBits;
        rankLsb = lsb;
        lsb += geometry.rankBits();
        rowLsb = lsb;
    }

    /** Line-address bit holding row bit @p i, or 0 if out of range. */
    uint64_t
    rowBit(const DramGeometry &geometry, unsigned i) const
    {
        return i < geometry.rowBits() ? uint64_t{1} << (rowLsb + i) : 0;
    }

    /** Line-address bit holding high-column bit @p i, or 0. */
    uint64_t
    colHighBit(unsigned i) const
    {
        return i < colHighBits ? uint64_t{1} << (colHighLsb + i) : 0;
    }
};

/** Identity masks of the base layout: no hashing, pure field split. */
std::vector<uint64_t>
baseLayoutMasks(const DramGeometry &geometry, const FieldLayout &layout)
{
    std::vector<uint64_t> masks;
    masks.reserve(CoordBitLayout(geometry).bits());
    for (unsigned i = 0; i < geometry.channelBits(); ++i)
        masks.push_back(uint64_t{1} << (layout.channelLsb + i));
    for (unsigned i = 0; i < geometry.rankBits(); ++i)
        masks.push_back(uint64_t{1} << (layout.rankLsb + i));
    for (unsigned i = 0; i < geometry.bankBits(); ++i)
        masks.push_back(uint64_t{1} << (layout.bankLsb + i));
    for (unsigned i = 0; i < geometry.rowBits(); ++i)
        masks.push_back(uint64_t{1} << (layout.rowLsb + i));
    for (unsigned i = 0; i < geometry.colBlockBits(); ++i)
        masks.push_back(i < layout.colLowBits
                            ? uint64_t{1} << (layout.colLowLsb + i)
                            : uint64_t{1}
                                  << (layout.colHighLsb +
                                      (i - layout.colLowBits)));
    return masks;
}

/** Canonical coordinate-bit index of a hashed field's bit i. */
unsigned
channelBitIndex(const DramGeometry &, unsigned i)
{
    return i;
}

unsigned
rankBitIndex(const DramGeometry &geometry, unsigned i)
{
    return geometry.channelBits() + i;
}

unsigned
bankBitIndex(const DramGeometry &geometry, unsigned i)
{
    return geometry.channelBits() + geometry.rankBits() + i;
}

} // namespace

CoordBitLayout::CoordBitLayout(const DramGeometry &geometry)
{
    const unsigned widths[5] = {
        geometry.channelBits(), geometry.rankBits(), geometry.bankBits(),
        geometry.rowBits(), geometry.colBlockBits(),
    };
    unsigned lsb = 0;
    for (unsigned f = 0; f < 5; ++f) {
        lsb_[f] = lsb;
        mask_[f] = static_cast<unsigned>(maskBits(widths[f]));
        lsb += widths[f];
    }
    bits_ = lsb;
}

DramAddressMap::DramAddressMap(const DramGeometry &geometry,
                               XorScheme scheme)
    : geometry_(geometry), name_(std::move(scheme.name)),
      layout_(geometry), offsetBits_(geometry.offsetBits()),
      slices_((layout_.bits() + 7) / 8),
      decodeMasks_(std::move(scheme.decodeMasks))
{
    const unsigned n = lineBits();
    if (n > 64)
        panic("DramAddressMap: line-address space wider than 64 bits");
    if (n + offsetBits_ != geometry_.paBits())
        panic("DramAddressMap '" + name_ +
              "': coordinate fields do not cover the PA space");
    if (decodeMasks_.size() != n)
        panic("DramAddressMap '" + name_ + "': " +
              std::to_string(decodeMasks_.size()) + " masks for " +
              std::to_string(n) + " line-address bits");
    for (const uint64_t mask : decodeMasks_) {
        if (mask & ~maskBits(n))
            panic("DramAddressMap '" + name_ +
                  "': mask references bits outside the line address");
    }
    encodeMasks_ = decodeMasks_;
    if (!invertGf2(encodeMasks_, n))
        panic("DramAddressMap '" + name_ +
              "': scheme is not invertible (not a bijection)");

    tables_.reserve(size_t{2} * slices_ * 256);
    appendSliceTables(encodeMasks_, slices_, tables_);
    appendSliceTables(decodeMasks_, slices_, tables_);
}

XorScheme
fig7aXorScheme(const DramGeometry &geometry, bool bank_xor_hash)
{
    const FieldLayout layout(geometry);
    XorScheme scheme;
    scheme.name = bank_xor_hash ? "fig7a" : "fig7a_nohash";
    scheme.decodeMasks = baseLayoutMasks(geometry, layout);
    if (bank_xor_hash) {
        // Zhang et al.'s permutation: bank = bank field XOR low row bits.
        for (unsigned i = 0; i < geometry.bankBits(); ++i)
            scheme.decodeMasks[bankBitIndex(geometry, i)] ^=
                layout.rowBit(geometry, i);
    }
    return scheme;
}

XorScheme
intelIvyScheme(const DramGeometry &geometry)
{
    const FieldLayout layout(geometry);
    XorScheme scheme;
    scheme.name = "intel_ivy";
    scheme.decodeMasks = baseLayoutMasks(geometry, layout);
    for (unsigned i = 0; i < geometry.channelBits(); ++i)
        scheme.decodeMasks[channelBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i) ^ layout.rowBit(geometry, i + 2) ^
            layout.rowBit(geometry, i + 4) ^ layout.colHighBit(i);
    for (unsigned i = 0; i < geometry.rankBits(); ++i)
        scheme.decodeMasks[rankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i) ^ layout.rowBit(geometry, i + 3);
    for (unsigned i = 0; i < geometry.bankBits(); ++i)
        scheme.decodeMasks[bankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i) ^
            layout.rowBit(geometry, i + geometry.bankBits());
    return scheme;
}

XorScheme
intelHaswellScheme(const DramGeometry &geometry)
{
    const FieldLayout layout(geometry);
    XorScheme scheme;
    scheme.name = "intel_haswell";
    scheme.decodeMasks = baseLayoutMasks(geometry, layout);
    for (unsigned i = 0; i < geometry.channelBits(); ++i)
        scheme.decodeMasks[channelBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i + 1) ^
            layout.rowBit(geometry, i + 3) ^
            layout.rowBit(geometry, i + 5) ^ layout.colHighBit(i + 1);
    for (unsigned i = 0; i < geometry.rankBits(); ++i)
        scheme.decodeMasks[rankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i + 1) ^
            layout.rowBit(geometry, i + 4);
    for (unsigned i = 0; i < geometry.bankBits(); ++i)
        scheme.decodeMasks[bankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i + 2) ^
            layout.rowBit(geometry, i + 2 + geometry.bankBits());
    return scheme;
}

XorScheme
amdZenScheme(const DramGeometry &geometry)
{
    const FieldLayout layout(geometry);
    XorScheme scheme;
    scheme.name = "amd_zen";
    scheme.decodeMasks = baseLayoutMasks(geometry, layout);
    // Full stride-XOR reductions: every row (and high-column) bit
    // congruent to the bank bit modulo the field width participates.
    for (unsigned i = 0; i < geometry.bankBits(); ++i) {
        uint64_t &mask = scheme.decodeMasks[bankBitIndex(geometry, i)];
        for (unsigned j = i; j < geometry.rowBits();
             j += geometry.bankBits())
            mask ^= layout.rowBit(geometry, j);
        for (unsigned j = i; j < layout.colHighBits;
             j += geometry.bankBits())
            mask ^= layout.colHighBit(j);
    }
    const unsigned channel_stride =
        geometry.channelBits() > 0 ? geometry.channelBits() : 1;
    for (unsigned i = 0; i < geometry.channelBits(); ++i) {
        uint64_t &mask =
            scheme.decodeMasks[channelBitIndex(geometry, i)];
        for (unsigned j = i; j < geometry.rowBits(); j += channel_stride)
            mask ^= layout.rowBit(geometry, j);
    }
    for (unsigned i = 0; i < geometry.rankBits(); ++i)
        scheme.decodeMasks[rankBitIndex(geometry, i)] ^=
            layout.rowBit(geometry, i + 2) ^ layout.colHighBit(i);
    return scheme;
}

const std::vector<std::string> &
addressMapNames()
{
    static const std::vector<std::string> names = {
        "fig7a", "fig7a_nohash", "intel_ivy", "intel_haswell", "amd_zen",
    };
    return names;
}

bool
isAddressMapName(const std::string &name)
{
    for (const std::string &known : addressMapNames()) {
        if (known == name)
            return true;
    }
    return false;
}

std::string
addressMapNamesHint()
{
    std::string hint;
    for (const std::string &known : addressMapNames()) {
        if (!hint.empty())
            hint += " | ";
        hint += known;
    }
    return hint;
}

DramAddressMap
makeAddressMap(const std::string &name, const DramGeometry &geometry)
{
    if (name == "fig7a")
        return DramAddressMap(geometry, fig7aXorScheme(geometry, true));
    if (name == "fig7a_nohash")
        return DramAddressMap(geometry, fig7aXorScheme(geometry, false));
    if (name == "intel_ivy")
        return DramAddressMap(geometry, intelIvyScheme(geometry));
    if (name == "intel_haswell")
        return DramAddressMap(geometry, intelHaswellScheme(geometry));
    if (name == "amd_zen")
        return DramAddressMap(geometry, amdZenScheme(geometry));
    panic("unknown address mapping '" + name + "' (expected " +
          addressMapNamesHint() + ")");
}

} // namespace relaxfault
