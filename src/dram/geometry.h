/**
 * @file
 * Memory-system geometry shared by every model in the project.
 *
 * The default geometry matches the paper's evaluation platform: a node with
 * 8 single-rank DDR3 DIMMs (4 channels x 2 DIMMs), each DIMM built from
 * 18 x4 4Gb devices (16 data + 2 check for chipkill), 8 banks per device,
 * 64Ki rows per bank, and 1KiB rows per device. A 64B cacheline is one
 * rank access: 4B from each of the 16 data devices.
 */

#ifndef RELAXFAULT_DRAM_GEOMETRY_H
#define RELAXFAULT_DRAM_GEOMETRY_H

#include <cstdint>

#include "common/bitops.h"

namespace relaxfault {

/** Static description of a node's memory system. */
struct DramGeometry
{
    unsigned channels = 4;
    unsigned ranksPerChannel = 2;    ///< Single-rank DIMMs: rank == DIMM.
    unsigned dataDevicesPerRank = 16;
    unsigned checkDevicesPerRank = 2;
    unsigned banksPerDevice = 8;
    unsigned rowsPerBank = 64 * 1024;
    /// 64B rank accesses per row: a 4Gb x4 device has 2Ki columns, and a
    /// burst-8 access covers 8 columns, so 256 column blocks per row.
    unsigned colBlocksPerRow = 256;
    unsigned lineBytes = 64;

    /** Devices per rank including the ECC check devices. */
    unsigned devicesPerRank() const
    {
        return dataDevicesPerRank + checkDevicesPerRank;
    }

    /** DIMMs (ranks) per node. */
    unsigned dimmsPerNode() const { return channels * ranksPerChannel; }

    /** DRAM devices per node (including check devices). */
    unsigned devicesPerNode() const
    {
        return dimmsPerNode() * devicesPerRank();
    }

    /** Bytes each data device contributes to one cacheline. */
    unsigned bytesPerDevicePerLine() const
    {
        return lineBytes / dataDevicesPerRank;
    }

    /**
     * Column blocks in one RelaxFault remap unit: 64B of one device's
     * data, 16 blocks of 4B.
     */
    unsigned colBlocksPerRemapUnit() const
    {
        return lineBytes / bytesPerDevicePerLine();
    }

    /** Bytes of one row within a single device. */
    unsigned deviceRowBytes() const
    {
        return colBlocksPerRow * bytesPerDevicePerLine();
    }

    /** Data capacity of one rank (one DIMM) in bytes. */
    uint64_t rankBytes() const
    {
        return uint64_t{banksPerDevice} * rowsPerBank * colBlocksPerRow *
               lineBytes;
    }

    /** Data capacity of the node in bytes. */
    uint64_t nodeBytes() const { return rankBytes() * dimmsPerNode(); }

    /** Physical-address width covering nodeBytes(). */
    unsigned paBits() const { return indexBits(nodeBytes()); }

    unsigned channelBits() const { return indexBits(channels); }
    unsigned rankBits() const { return indexBits(ranksPerChannel); }
    unsigned bankBits() const { return indexBits(banksPerDevice); }
    unsigned rowBits() const { return indexBits(rowsPerBank); }
    unsigned colBlockBits() const { return indexBits(colBlocksPerRow); }
    unsigned offsetBits() const { return indexBits(lineBytes); }
    /// Device-ID width including check devices (5 bits for 18 devices).
    unsigned deviceBits() const { return indexBits(devicesPerRank()); }

    /**
     * Named organizations (paper Sec. 2: "all of these designs are
     * almost equivalent because all inherently use the same device
     * organization"). The presets below keep chipkill-style redundancy
     * so every mechanism is comparable across them.
     */

    /** The paper's platform: DDR3 RDIMMs, 4Gb x4 devices, 8 banks. */
    static DramGeometry ddr3Dimm() { return DramGeometry{}; }

    /** DDR4 RDIMMs: 16 banks in 4 bank groups, 512B device rows. */
    static DramGeometry
    ddr4Dimm()
    {
        DramGeometry geometry;
        geometry.banksPerDevice = 16;
        geometry.colBlocksPerRow = 128;  // 512B device rows.
        return geometry;
    }

    /** LPDDR4-style soldered memory: 2 channels, single rank. */
    static DramGeometry
    lpddr4()
    {
        DramGeometry geometry;
        geometry.channels = 2;
        geometry.ranksPerChannel = 1;
        geometry.rowsPerBank = 32 * 1024;
        geometry.colBlocksPerRow = 64;   // 256B device rows.
        return geometry;
    }

    /** HBM-style stack: many narrow channels, small rows, 16 banks. */
    static DramGeometry
    hbmStack()
    {
        DramGeometry geometry;
        geometry.channels = 8;
        geometry.ranksPerChannel = 1;
        geometry.banksPerDevice = 16;
        geometry.rowsPerBank = 16 * 1024;
        geometry.colBlocksPerRow = 32;   // 128B device rows.
        return geometry;
    }
};

/**
 * Rank-level DRAM coordinates of one 64B line (all devices of the rank
 * participate in the access).
 */
struct LineCoord
{
    unsigned channel = 0;
    unsigned rank = 0;   ///< Rank within the channel; equals the DIMM slot.
    unsigned bank = 0;
    unsigned row = 0;
    unsigned colBlock = 0;

    bool operator==(const LineCoord &) const = default;

    /** Global DIMM index within the node. */
    unsigned dimm(const DramGeometry &geometry) const
    {
        return channel * geometry.ranksPerChannel + rank;
    }
};

/**
 * Device-level coordinates: a LineCoord plus which device of the rank.
 * This is the granularity at which faults live and at which RelaxFault
 * remaps data.
 */
struct DeviceCoord
{
    unsigned dimm = 0;    ///< Global DIMM (rank) index in the node.
    unsigned device = 0;  ///< Device within the rank (0..17; 16,17 = check).
    unsigned bank = 0;
    unsigned row = 0;
    unsigned colBlock = 0;

    bool operator==(const DeviceCoord &) const = default;
};

} // namespace relaxfault

#endif // RELAXFAULT_DRAM_GEOMETRY_H
