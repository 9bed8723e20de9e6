#include "common/cli.h"

#include <algorithm>
#include <cstdlib>

#include "common/log.h"

namespace relaxfault {

void
CliOptions::parse(int argc, char **argv,
                  const std::vector<std::string> &booleans)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            values_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0 &&
                   std::find(booleans.begin(), booleans.end(), arg) ==
                       booleans.end()) {
            values_[arg] = argv[++i];
        } else {
            values_[arg] = "";
        }
    }
}

CliOptions::CliOptions(int argc, char **argv,
                       const std::vector<std::string> &known,
                       const std::vector<std::string> &booleans)
{
    parse(argc, argv, booleans);
    std::string listing;
    for (const auto &option : known)
        listing += " --" + option;
    for (const auto &[name, value] : values_) {
        if (name == "help")
            continue;
        if (std::find(known.begin(), known.end(), name) == known.end())
            fatal("unknown option --" + name + " (known:" + listing +
                  ")");
    }
    if (has("help")) {
        inform("options:" + listing);
        std::exit(0);
    }
}

bool
CliOptions::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
CliOptions::getString(const std::string &name,
                      const std::string &fallback) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

int64_t
CliOptions::getInt(const std::string &name, int64_t fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    char *end = nullptr;
    const int64_t value = std::strtoll(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        fatal("--" + name + ": '" + it->second +
              "' is not an integer");
    return value;
}

int64_t
CliOptions::getPositiveInt(const std::string &name,
                           int64_t fallback) const
{
    const int64_t value = getInt(name, fallback);
    if (value < 1)
        fatal("--" + name + " must be >= 1 (got " +
              std::to_string(value) + ")");
    return value;
}

int64_t
CliOptions::getNonNegativeInt(const std::string &name,
                              int64_t fallback) const
{
    const int64_t value = getInt(name, fallback);
    if (value < 0)
        fatal("--" + name + " must be >= 0 (got " +
              std::to_string(value) + ")");
    return value;
}

double
CliOptions::getDouble(const std::string &name, double fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end() || it->second.empty())
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("--" + name + ": '" + it->second + "' is not a number");
    return value;
}

} // namespace relaxfault
