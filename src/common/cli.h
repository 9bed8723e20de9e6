/**
 * @file
 * Minimal command-line option parsing shared by benches and examples.
 *
 * Supports `--name=value` and `--name value` forms plus bare flags. The
 * benches use it for `--trials`, `--seed`, and model overrides so that
 * quick runs and paper-scale runs use the same binaries.
 *
 * Construct with the list of known option names and the parser rejects
 * anything else (`--thread=8` for `--threads=8` exits with an error
 * instead of silently running serially). Malformed numeric values and
 * out-of-range `getPositiveInt` / `getNonNegativeInt` arguments are
 * fatal too — a typo'd run should die loudly, not produce wrong data.
 */

#ifndef RELAXFAULT_COMMON_CLI_H
#define RELAXFAULT_COMMON_CLI_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace relaxfault {

/** Parsed command-line options with typed accessors and defaults. */
class CliOptions
{
  public:
    /**
     * Options not in @p known are fatal. Pass every flag the program
     * understands; `--help` is implicitly known and lists them. Options
     * in @p booleans never take the next token as their value, so
     * `--summary TRACE.json` leaves TRACE.json positional.
     */
    CliOptions(int argc, char **argv,
               const std::vector<std::string> &known,
               const std::vector<std::string> &booleans = {});

    /** True if `--name` was passed (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of `--name`, or @p fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback) const;

    /** Integer value of `--name`, or @p fallback; bad numbers are fatal. */
    int64_t getInt(const std::string &name, int64_t fallback) const;

    /** getInt restricted to values >= 1 (e.g. `--trials`). */
    int64_t getPositiveInt(const std::string &name,
                           int64_t fallback) const;

    /** getInt restricted to values >= 0 (e.g. `--threads`, 0 = auto). */
    int64_t getNonNegativeInt(const std::string &name,
                              int64_t fallback) const;

    /** Floating-point value of `--name`, or @p fallback; fatal if bad. */
    double getDouble(const std::string &name, double fallback) const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

  private:
    void parse(int argc, char **argv,
               const std::vector<std::string> &booleans);

    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace relaxfault

#endif // RELAXFAULT_COMMON_CLI_H
