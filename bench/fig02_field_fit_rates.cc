/**
 * @file
 * Reprints paper Fig. 2 / Table 2: the per-device FIT rates of the
 * DDR3-based Cielo and Hopper systems by fault mode and persistence.
 * These published field-study rates are the inputs that drive every
 * reliability experiment in this repository.
 */

#include <iostream>

#include "bench_json.h"
#include "common/table.h"
#include "faults/rates.h"

using namespace relaxfault;
using relaxfault::bench::BenchReport;

namespace {

void
printSystem(const char *name, const FitRates &rates)
{
    std::cout << name << " (FIT/device)\n";
    TextTable table;
    table.setHeader({"fault mode", "transient", "permanent"});
    for (unsigned m = 0; m < kFaultModeCount; ++m) {
        const auto mode = static_cast<FaultMode>(m);
        table.addRow({faultModeName(mode),
                      TextTable::num(rates.transient(mode), 1),
                      TextTable::num(rates.permanent(mode), 1)});
    }
    table.addRow({"total", TextTable::num(rates.totalTransient(), 1),
                  TextTable::num(rates.totalPermanent(), 1)});
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv, {"json"});
    BenchReport report(options, "fig02_field_fit_rates");

    std::cout << "Fig. 2 / Table 2: DDR3 field-study fault rates\n\n";
    printSystem("Cielo (LANL) - drives all evaluations",
                FitRates::cielo());
    printSystem("Hopper (NERSC)", FitRates::hopper());

    const struct
    {
        const char *system;
        FitRates rates;
    } systems[] = {{"cielo", FitRates::cielo()},
                   {"hopper", FitRates::hopper()}};
    for (const auto &entry : systems) {
        for (unsigned m = 0; m < kFaultModeCount; ++m) {
            const auto mode = static_cast<FaultMode>(m);
            report.addRow()
                .set("system", entry.system)
                .set("fault_mode", faultModeName(mode))
                .set("transient_fit", entry.rates.transient(mode))
                .set("permanent_fit", entry.rates.permanent(mode));
        }
    }

    const FitRates cielo = FitRates::cielo();
    const double hours_between =
        1.0 / (cielo.totalPermanent() * 1e-9) / 8766.0;
    std::cout << "A single device develops a new permanent fault about "
                 "once every "
              << TextTable::num(hours_between, 0)
              << " years;\na 3.6M-device system (Blue Waters scale) sees "
                 "one every "
              << TextTable::num(1.0 / (cielo.total() * 1e-9 * 3.6e6), 1)
              << " hours.\n";
    report.write();
    return 0;
}
