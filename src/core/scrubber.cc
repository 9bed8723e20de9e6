#include "core/scrubber.h"

#include <bit>
#include <iterator>

#include "telemetry/metrics.h"
#include "tracing/trace_payloads.h"
#include "tracing/tracer.h"

namespace relaxfault {

FaultScrubber::FaultScrubber(RelaxFaultController &controller,
                             const ScrubberConfig &config)
    : controller_(controller), config_(config)
{
}

size_t
FaultScrubber::observationCount() const
{
    size_t total = 0;
    for (const auto &[key, log] : logs_)
        total += log.cells.size();
    return total;
}

void
FaultScrubber::scrub(unsigned channel, unsigned rank, unsigned bank,
                     uint32_t row_begin, uint32_t row_count)
{
    const DramGeometry &geometry = controller_.config().geometry;
    const unsigned dimm = channel * geometry.ranksPerChannel + rank;
    ++totals_.scrubPasses;
    const PhaseScope pass_scope(Phase::ScrubPass, trace_);

    controller_.setErrorObserver(
        [&](const LineCoord &coord, uint32_t device_mask,
            EccStatus status) {
            if (status == EccStatus::Uncorrectable) {
                ++pending_.uncorrectableLines;
                if (trace_ != nullptr)
                    trace_->emit(TraceKind::ScrubHit,
                                 kScrubUncorrectable,
                                 (uint64_t{coord.bank} << 48) |
                                     (uint64_t{coord.row} << 16) |
                                     coord.colBlock,
                                 device_mask, coord.dimm(geometry));
                return;
            }
            ++pending_.correctedLines;
            const unsigned line_dimm = coord.dimm(geometry);
            if (trace_ != nullptr)
                trace_->emit(TraceKind::ScrubHit, kScrubCorrected,
                             (uint64_t{coord.bank} << 48) |
                                 (uint64_t{coord.row} << 16) |
                                 coord.colBlock,
                             device_mask, line_dimm);
            for (unsigned device = 0;
                 device < geometry.devicesPerRank(); ++device) {
                if (!(device_mask & (1u << device)))
                    continue;
                if (config_.maxObservations != 0 &&
                    observations_ >= config_.maxObservations) {
                    ++pending_.droppedObservations;
                    continue;
                }
                const bool inserted =
                    logs_[{line_dimm, device}]
                        .cells
                        .insert({coord.bank, coord.row,
                                 static_cast<uint16_t>(coord.colBlock)})
                        .second;
                if (inserted)
                    ++observations_;
            }
        });

    LineCoord coord;
    coord.channel = channel;
    coord.rank = rank;
    coord.bank = bank;
    uint8_t scratch[RelaxFaultController::kLineBytes];
    for (uint32_t r = 0; r < row_count; ++r) {
        coord.row = row_begin + r;
        for (unsigned col = 0; col < geometry.colBlocksPerRow; ++col) {
            coord.colBlock = col;
            controller_.readLine(coord, scratch);
            ++pending_.linesScrubbed;
        }
    }
    controller_.setErrorObserver({});
    (void)dimm;
}

FaultRegion
FaultScrubber::inferRegion(const DeviceLog &log) const
{
    // Per bank: row -> columns and column -> rows index of the cells.
    std::map<unsigned, std::map<uint32_t, std::set<uint16_t>>> row_cols;
    std::map<unsigned, std::map<uint16_t, std::set<uint32_t>>> col_rows;
    for (const auto &[bank, row, col] : log.cells) {
        row_cols[bank][row].insert(col);
        col_rows[bank][col].insert(row);
    }

    std::vector<RegionCluster> clusters;
    for (auto &[bank, rows] : row_cols) {
        // Rows with corrections across many column blocks: row faults.
        std::vector<uint32_t> full_rows;
        for (const auto &[row, cols] : rows) {
            if (cols.size() >= config_.rowPromotionThreshold)
                full_rows.push_back(row);
        }
        if (!full_rows.empty()) {
            RegionCluster cluster;
            cluster.bankMask = 1u << bank;
            cluster.rows = RowSet::of(full_rows);
            cluster.cols = ColSet::allCols();
            clusters.push_back(std::move(cluster));
        }
        const std::set<uint32_t> promoted_rows(full_rows.begin(),
                                               full_rows.end());

        // Columns with corrections across many rows: column faults over
        // the observed rows.
        std::set<uint16_t> promoted_cols;
        for (const auto &[col, col_row_set] : col_rows[bank]) {
            unsigned fresh = 0;
            for (const auto row : col_row_set)
                fresh += promoted_rows.count(row) == 0;
            if (fresh >= config_.columnPromotionThreshold) {
                promoted_cols.insert(col);
                std::vector<uint32_t> column_rows;
                for (const auto row : col_row_set) {
                    if (!promoted_rows.count(row))
                        column_rows.push_back(row);
                }
                RegionCluster cluster;
                cluster.bankMask = 1u << bank;
                cluster.rows = RowSet::of(std::move(column_rows));
                cluster.cols = ColSet::of({col});
                clusters.push_back(std::move(cluster));
            }
        }

        // Leftover isolated cells: exact per-row clusters.
        for (const auto &[row, cols] : rows) {
            if (promoted_rows.count(row))
                continue;
            std::vector<uint16_t> leftover;
            for (const auto col : cols) {
                if (!promoted_cols.count(col))
                    leftover.push_back(col);
            }
            if (leftover.empty())
                continue;
            RegionCluster cluster;
            cluster.bankMask = 1u << bank;
            cluster.rows = RowSet::of({row});
            cluster.cols = ColSet::of(std::move(leftover));
            clusters.push_back(std::move(cluster));
        }
    }
    return FaultRegion(std::move(clusters));
}

FaultScrubber::Report
FaultScrubber::inferAndRepair()
{
    const PhaseScope pass_scope(Phase::InferPass, trace_);
    Report report = pending_;
    for (const auto &[key, log] : logs_) {
        const auto &[dimm, device] = key;
        FaultRegion region = inferRegion(log);
        if (region.empty())
            continue;

        FaultRecord fault;
        fault.persistence = Persistence::Permanent;
        // Label the mode by the inferred shape (coarsest cluster wins).
        fault.mode = FaultMode::SingleBit;
        if (region.bankCount() > 1)
            fault.mode = FaultMode::MultiBank;
        else if (region.distinctRowCount(
                     controller_.config().geometry) > 1)
            fault.mode = FaultMode::SingleBank;
        fault.parts.push_back({dimm, device, std::move(region)});

        ++report.faultsInferred;
        uint64_t inferred_id = 0;
        if (trace_ != nullptr)
            inferred_id =
                trace_->emit(TraceKind::FaultArrival, kFaultInferred,
                             static_cast<uint64_t>(fault.mode),
                             traceFaultPermanence(fault),
                             traceFaultLocation(fault));
        // The repair decision (via the controller's shared sink)
        // chains under the inferred arrival.
        const TraceParentScope inferred_scope(trace_, inferred_id);
        if (controller_.requestRepair(fault))
            ++report.faultsRepaired;
    }
    logs_.clear();
    observations_ = 0;
    pending_ = Report{};

    ++totals_.inferPasses;
    totals_.linesScrubbed += report.linesScrubbed;
    totals_.correctedLines += report.correctedLines;
    totals_.uncorrectableLines += report.uncorrectableLines;
    totals_.droppedObservations += report.droppedObservations;
    totals_.faultsInferred += report.faultsInferred;
    totals_.faultsRepaired += report.faultsRepaired;
    return report;
}

void
FaultScrubber::corruptDropObservation(size_t index)
{
    for (auto &[key, log] : logs_) {
        if (index >= log.cells.size()) {
            index -= log.cells.size();
            continue;
        }
        auto it = log.cells.begin();
        std::advance(it, index);
        log.cells.erase(it);
        --observations_;
        return;
    }
}

void
FaultScrubber::publishTelemetry(MetricRegistry &registry) const
{
    registry.gauge("scrubber.scrub_passes").set(
        static_cast<int64_t>(totals_.scrubPasses));
    registry.gauge("scrubber.infer_passes").set(
        static_cast<int64_t>(totals_.inferPasses));
    registry.gauge("scrubber.lines_scrubbed").set(
        static_cast<int64_t>(totals_.linesScrubbed));
    registry.gauge("scrubber.corrected_lines").set(
        static_cast<int64_t>(totals_.correctedLines));
    registry.gauge("scrubber.uncorrectable_lines").set(
        static_cast<int64_t>(totals_.uncorrectableLines));
    registry.gauge("scrubber.faults_inferred").set(
        static_cast<int64_t>(totals_.faultsInferred));
    registry.gauge("scrubber.faults_repaired").set(
        static_cast<int64_t>(totals_.faultsRepaired));
    registry.gauge("scrubber.dropped_observations").set(
        static_cast<int64_t>(totals_.droppedObservations));
}

} // namespace relaxfault
