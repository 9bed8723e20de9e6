/**
 * @file
 * Reproduces paper Table 1 (RelaxFault storage overhead) and the Sec. 3.3
 * energy-overhead estimates.
 *
 * Paper values: faulty-bank table 8B, data coalescer 128B, LLC tag
 * extension 16,384B; total 16,520B. Energy: tag lookup ~9pJ vs 0.641nJ
 * per LLC access and ~36nJ per DRAM access (metadata < 1.5% of an LLC
 * access, < 0.03% of a DRAM miss).
 */

#include <iostream>

#include "bench_json.h"
#include "common/table.h"
#include "core/relaxfault_controller.h"

using namespace relaxfault;
using relaxfault::bench::BenchReport;

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv, {"json"});
    BenchReport report(options, "table1_storage_overhead");

    ControllerConfig config;  // Paper defaults: 8 DIMMs, 8MiB LLC.
    const StorageOverhead overhead =
        RelaxFaultController::storageOverhead(config);

    std::cout << "Table 1: RelaxFault storage overhead (8MiB 16-way LLC, "
                 "64B lines, 8 DDR3 DIMMs per node)\n\n";
    TextTable table;
    table.setHeader({"structure", "bytes", "paper", "description"});
    table.addRow({"faulty-bank table",
                  TextTable::num(overhead.faultyBankTableBytes), "8",
                  "1 bit per DIMM x bank"});
    table.addRow({"data coalescer", TextTable::num(overhead.coalescerBytes),
                  "128", "pre-computed merge bitmasks"});
    table.addRow({"LLC tag extension",
                  TextTable::num(overhead.llcTagExtensionBytes), "16384",
                  "1 bit per LLC tag"});
    table.addRow({"total", TextTable::num(overhead.totalBytes()), "16520",
                  ""});
    table.print(std::cout);

    // Sec. 3.3 energy accounting (published constants).
    const double tag_lookup_pj = 9.0;
    const double table_lookup_pj = 0.5;  // 8-byte direct-mapped lookup.
    const double llc_access_nj = 0.641;
    const double dram_access_nj = 36.0;
    const double metadata_nj = (tag_lookup_pj + table_lookup_pj) / 1000.0;

    std::cout << "\nSec. 3.3 energy overhead (worst case, per miss):\n";
    TextTable energy;
    energy.setHeader({"quantity", "value"});
    energy.addRow({"metadata access",
                   TextTable::num(metadata_nj, 4) + " nJ"});
    energy.addRow({"vs one LLC access (0.641 nJ)",
                   TextTable::num(100.0 * metadata_nj / llc_access_nj, 2) +
                       "% (paper: <1.5%)"});
    energy.addRow({"vs one DRAM access (36 nJ)",
                   TextTable::num(100.0 * metadata_nj / dram_access_nj, 3) +
                       "% (paper: <0.03%)"});
    energy.print(std::cout);

    report.addRow()
        .set("faulty_bank_table_bytes", overhead.faultyBankTableBytes)
        .set("coalescer_bytes", overhead.coalescerBytes)
        .set("llc_tag_extension_bytes", overhead.llcTagExtensionBytes)
        .set("total_bytes", overhead.totalBytes())
        .set("metadata_access_nj", metadata_nj)
        .set("metadata_vs_llc_access_pct",
             100.0 * metadata_nj / llc_access_nj)
        .set("metadata_vs_dram_access_pct",
             100.0 * metadata_nj / dram_access_nj);
    report.write();
    return 0;
}
