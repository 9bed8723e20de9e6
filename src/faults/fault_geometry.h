/**
 * @file
 * Samplers that turn a fault mode into the concrete cell region it
 * disables inside a device.
 *
 * Field studies report *modes* (row, column, bank, ...) but not the exact
 * extents, which the paper also leaves unspecified beyond "a small number
 * of bits in a few (typically just one) rows or columns" and "massive
 * faults that affect entire banks". The distributions below encode that
 * description with physically-motivated structure (a 512x512-cell
 * subarray, per Fig. 1 of the paper) and a small set of calibration
 * constants, kept in one struct so the calibration is explicit.
 */

#ifndef RELAXFAULT_FAULTS_FAULT_GEOMETRY_H
#define RELAXFAULT_FAULTS_FAULT_GEOMETRY_H

#include <vector>

#include "common/rng.h"
#include "dram/geometry.h"
#include "faults/fault.h"

namespace relaxfault {

/** Calibration constants of the fault-extent distributions. */
struct FaultGeometryParams
{
    /** Rows per subarray (paper Fig. 1: 512x512 cell tiles). */
    unsigned subarrayRows = 512;

    /** P(a single-bit-mode fault is a multi-bit word fault). */
    double wordFaultProb = 0.2;

    /** Mean rows affected by a column fault (geometric, subarray-capped).
     * Calibrated so that roughly a third of column faults defeat hashed
     * FreeFault at 1 way (birthday collisions among their lines) while
     * RelaxFault, whose mapping spreads them deterministically, repairs
     * them all — reproducing the Fig. 8 gap. */
    double columnRowsMean = 90.0;

    /// Single-bank fault extent mixture: small decoder glitch (a few rows
    /// in one subarray), medium (many rows across the bank), or massive
    /// (the whole bank; unrepairable by any fine-grained mechanism).
    /// The medium share drives the paper's 1-way vs 4-way RelaxFault gap
    /// (90% -> 97%); the massive share bounds achievable coverage (~3%
    /// of faulty nodes are unrepairable, Sec. 5.1).
    double bankSmallProb = 0.45;
    double bankSmallRowsMean = 6.0;
    double bankMediumProb = 0.35;
    unsigned bankMediumRowsMin = 64;
    unsigned bankMediumRowsMax = 320;

    /** Banks affected by a multi-bank fault (uniform in [min,max]). */
    unsigned multiBankMin = 2;
    unsigned multiBankMax = 8;
    /** P(each affected bank of a multi-bank fault is massive). */
    double multiBankMassiveProb = 0.15;

    /** P(a multi-rank fault is a full data-pin fault: all cells, 1 bit). */
    double multiRankMassiveProb = 0.4;
    /** Rows per bank for the non-massive multi-rank control glitch. */
    double multiRankRowsMean = 4.0;
};

/** Draws a FaultRegion for one device given the fault mode. */
class FaultGeometrySampler
{
  public:
    FaultGeometrySampler(const DramGeometry &geometry,
                         const FaultGeometryParams &params);

    /** Sample the region a fault of @p mode disables. */
    FaultRegion sample(FaultMode mode, Rng &rng) const;

    /**
     * sample into a reused @p region: the same draws, every cluster
     * overwritten, and the region's parked clusters and buffers reused
     * (FaultRegion::reuseClusters), so a warm region allocates nothing.
     */
    void sampleInto(FaultRegion &region, FaultMode mode, Rng &rng) const;

    const FaultGeometryParams &params() const { return params_; }

    /** @p count distinct rows, uniform within [base, base+span): a
     * partial Fisher-Yates when dense (3 * count >= span), else rejection
     * of rows already chosen; sorted without a sort (see DESIGN §17). */
    static RowSet randomRows(unsigned count, uint32_t base, uint32_t span,
                             Rng &rng);
    /** randomRows into @p rows, reusing its buffer (grown with
     * reserveReused, so refills settle fast). */
    static void randomRows(unsigned count, uint32_t base, uint32_t span,
                           Rng &rng, std::vector<uint32_t> &rows);

  private:
    /**
     * A geometric row count on {1, 2, ...} with a fixed mean, with
     * log(1 - 1/mean) worked out once; a mean <= 1 always draws 1.
     */
    struct GeometricCount
    {
        explicit GeometricCount(double mean);

        double mean;
        double logFailure;  ///< log(1 - 1/mean); unused if mean <= 1.
    };

    /** Geometric count with the given mean, >= 1. */
    static unsigned geometricCount(const GeometricCount &count, Rng &rng);

    /** Overwrite @p cluster with one bank-fault extent in @p bank. */
    void bankExtent(RegionCluster &cluster, unsigned bank, Rng &rng) const;

    void sampleSingleBit(FaultRegion &region, Rng &rng) const;
    void sampleSingleRow(FaultRegion &region, Rng &rng) const;
    void sampleSingleColumn(FaultRegion &region, Rng &rng) const;
    void sampleSingleBank(FaultRegion &region, Rng &rng) const;
    void sampleMultiBank(FaultRegion &region, Rng &rng) const;
    void sampleMultiRank(FaultRegion &region, Rng &rng) const;

    DramGeometry geometry_;
    FaultGeometryParams params_;
    GeometricCount bankSmallRows_;
    GeometricCount columnRows_;
    GeometricCount multiRankRows_;
};

} // namespace relaxfault

#endif // RELAXFAULT_FAULTS_FAULT_GEOMETRY_H
