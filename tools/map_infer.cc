/**
 * @file
 * map_infer — black-box recovery of a DRAM address-mapping's XOR masks.
 *
 * The same inference DRAMDig and Knock-Knock run against real hardware,
 * pointed at this project's own mapping strategies: given only an
 * opaque decode oracle (`--mapping=NAME`, treated strictly black-box —
 * only `decode` is probed) or an offline observation log
 * (`--observations=FILE`, e.g. distilled from a fault log of coalesced
 * addresses), recover the per-coordinate-bit XOR masks by Gaussian
 * elimination over GF(2), then verify them.
 *
 * In oracle mode the tool doubles as a differential test: the recovered
 * masks must match basis-probe ground truth exactly and reproduce
 * encode/decode through a rebuilt mapping, or the run exits nonzero.
 * A corrupted or non-linear observation log also exits nonzero with a
 * diagnostic — wrong masks are never emitted.
 *
 * Modes:
 *   map_infer --list
 *   map_infer --mapping=NAME [--geometry=G] [--seed=S] [--json=PATH]
 *   map_infer --mapping=NAME --emit-observations=FILE [--samples=N]
 *   map_infer --observations=FILE [--geometry=G] [--json=PATH]
 */

#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli.h"
#include "common/fs.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/table.h"
#include "dram/address_map.h"
#include "dram/map_infer.h"
#include "telemetry/json_writer.h"
#include "telemetry/run_record.h"

using namespace relaxfault;

namespace {

DramGeometry
geometryByName(const std::string &name)
{
    if (name == "ddr3")
        return DramGeometry::ddr3Dimm();
    if (name == "ddr4")
        return DramGeometry::ddr4Dimm();
    if (name == "lpddr4")
        return DramGeometry::lpddr4();
    if (name == "hbm")
        return DramGeometry::hbmStack();
    fatal("--geometry=" + name +
          " is not a geometry (expected ddr3 | ddr4 | lpddr4 | hbm)");
}

/** Field name and in-field bit of canonical coordinate bit @p i. */
std::string
coordBitLabel(const DramGeometry &geometry, unsigned i)
{
    struct Field
    {
        const char *name;
        unsigned bits;
    };
    const Field fields[] = {
        {"channel", geometry.channelBits()},
        {"rank", geometry.rankBits()},
        {"bank", geometry.bankBits()},
        {"row", geometry.rowBits()},
        {"col", geometry.colBlockBits()},
    };
    for (const Field &field : fields) {
        if (i < field.bits)
            return std::string(field.name) + "[" + std::to_string(i) +
                   "]";
        i -= field.bits;
    }
    return "?[" + std::to_string(i) + "]";
}

std::string
hexMask(uint64_t mask)
{
    std::ostringstream os;
    os << "0x" << std::hex << mask;
    return os.str();
}

void
printMasks(const DramGeometry &geometry, const MapInference &inference)
{
    TextTable table;
    table.setHeader({"coord bit", "line-address XOR mask"});
    for (unsigned i = 0; i < inference.masks.size(); ++i)
        table.addRow({coordBitLabel(geometry, i),
                      hexMask(inference.masks[i])});
    table.print(std::cout);
    if (inference.affineOffset != 0)
        std::cout << "affine offset (packed coord bits): "
                  << hexMask(inference.affineOffset) << "\n";
}

void
writeJson(const std::string &path, const std::string &source,
          const std::string &geometry_name, const DramGeometry &geometry,
          const MapInference &inference)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.key("schema").value("relaxfault.mapinfer.v1");
    writeProvenance(json);
    json.key("source").value(source);
    json.key("geometry").value(geometry_name);
    json.key("line_bits")
        .value(geometry.paBits() - geometry.offsetBits());
    json.key("probes").value(inference.probes);
    json.key("affine_offset").value(inference.affineOffset);
    json.key("masks").beginArray();
    for (unsigned i = 0; i < inference.masks.size(); ++i) {
        json.beginObject();
        json.key("bit").value(coordBitLabel(geometry, i));
        json.key("mask").value(inference.masks[i]);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
    os << "\n";
    if (const IoResult io = atomicWriteFile(path, os.str()); !io)
        fatal("cannot write --json output file: " + io.describe(path));
    inform("wrote " + path);
}

std::vector<MapObservation>
loadObservations(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open --observations file " + path);
    std::vector<MapObservation> observations;
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;
        std::istringstream fields(line);
        MapObservation obs;
        std::string pa_text;
        if (!(fields >> pa_text >> obs.coord.channel >> obs.coord.rank >>
              obs.coord.bank >> obs.coord.row >> obs.coord.colBlock))
            fatal(path + ":" + std::to_string(line_no) +
                  ": expected 'pa channel rank bank row col'");
        try {
            obs.pa = std::stoull(pa_text, nullptr, 0);
        } catch (...) {
            fatal(path + ":" + std::to_string(line_no) +
                  ": bad address '" + pa_text + "'");
        }
        observations.push_back(obs);
    }
    return observations;
}

void
emitObservations(const std::string &path, const DramAddressMap &map,
                 unsigned samples, uint64_t seed)
{
    const DramGeometry &geometry = map.geometry();
    std::ostringstream os;
    os << "# map_infer observation log: pa channel rank bank row col\n"
       << "# scheme=" << map.name() << " samples=" << samples << "\n";
    Rng rng(seed);
    for (unsigned i = 0; i < samples; ++i) {
        const uint64_t pa =
            rng.uniformInt(geometry.nodeBytes() / geometry.lineBytes) *
            geometry.lineBytes;
        const LineCoord coord = map.decode(pa);
        os << hexMask(pa) << " " << coord.channel << " " << coord.rank
           << " " << coord.bank << " " << coord.row << " "
           << coord.colBlock << "\n";
    }
    if (const IoResult io = atomicWriteFile(path, os.str()); !io)
        fatal("cannot write --emit-observations file: " +
              io.describe(path));
    inform("wrote " + path + " (" + std::to_string(samples) +
           " observations of scheme " + map.name() + ")");
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv,
                             {"mapping", "geometry", "observations",
                              "emit-observations", "samples", "probes",
                              "seed", "json", "list", "version"});
    if (options.has("version")) {
        std::cout << toolVersionLine("map_infer") << "\n";
        return 0;
    }
    if (options.has("list")) {
        for (const std::string &name : addressMapNames())
            std::cout << name << "\n";
        return 0;
    }

    const std::string geometry_name =
        options.getString("geometry", "ddr3");
    const DramGeometry geometry = geometryByName(geometry_name);
    const auto seed =
        static_cast<uint64_t>(options.getInt("seed", 20040235));
    const auto max_probes = static_cast<unsigned>(
        options.getPositiveInt("probes", 4096));
    const std::string json_path = options.getString("json", "");

    if (options.has("observations")) {
        if (options.has("mapping") || options.has("emit-observations"))
            fatal("--observations is exclusive with --mapping / "
                  "--emit-observations (the log is the only input)");
        const std::string path = options.getString("observations", "");
        const std::vector<MapObservation> observations =
            loadObservations(path);
        inform("loaded " + std::to_string(observations.size()) +
               " observations from " + path);
        const MapInference inference =
            inferFromObservations(observations, geometry);
        if (!inference.ok)
            fatal("inference failed: " + inference.error);
        printMasks(geometry, inference);
        std::cout << "recovered " << inference.masks.size()
                  << " masks from " << inference.probes
                  << " observations\n";
        if (!json_path.empty())
            writeJson(json_path, "observations:" + path, geometry_name,
                      geometry, inference);
        return 0;
    }

    const std::string mapping_name = options.getString("mapping", "");
    if (mapping_name.empty())
        fatal("one of --mapping=NAME, --observations=FILE, or --list "
              "is required (known schemes: " +
              addressMapNamesHint() + ")");
    if (!isAddressMapName(mapping_name))
        fatal("--mapping=" + mapping_name +
              " is not a known scheme (expected " +
              addressMapNamesHint() + ")");
    const DramAddressMap map = makeAddressMap(mapping_name, geometry);

    if (options.has("emit-observations")) {
        const auto samples = static_cast<unsigned>(
            options.getPositiveInt("samples", 512));
        emitObservations(options.getString("emit-observations", ""), map,
                         samples, seed);
        return 0;
    }

    // Oracle mode: only decode() is probed — the mapping is black-box.
    const DecodeOracle oracle = [&map](uint64_t pa) {
        return map.decode(pa);
    };
    const MapInference inference =
        inferMapping(oracle, geometry, seed, max_probes);
    if (!inference.ok)
        fatal("inference failed: " + inference.error);
    printMasks(geometry, inference);
    std::cout << "recovered " << inference.masks.size() << " masks in "
              << inference.probes << " probes\n";

    // Differential verdict: basis-probe ground truth, then a rebuilt
    // mapping must reproduce encode/decode exactly.
    if (inference.masks != basisDecodeMasks(oracle, geometry) ||
        inference.affineOffset != 0)
        fatal("recovered masks do not match basis-probe ground truth "
              "for scheme " + mapping_name);
    const DramAddressMap rebuilt(
        mappingFromMasks("inferred:" + mapping_name, geometry,
                         inference.masks));
    Rng rng(seed ^ 0x5eedu);
    for (unsigned i = 0; i < 4096; ++i) {
        const uint64_t pa =
            rng.uniformInt(geometry.nodeBytes() / geometry.lineBytes) *
            geometry.lineBytes;
        const LineCoord coord = map.decode(pa);
        if (!(rebuilt.decode(pa) == coord) ||
            rebuilt.encode(coord) != pa || map.encode(coord) != pa)
            fatal("rebuilt mapping diverges from scheme " +
                  mapping_name + " at pa=" + hexMask(pa));
    }
    std::cout << "recovered masks match ground truth for scheme "
              << mapping_name << " (" << geometry_name << ")\n";
    if (!json_path.empty())
        writeJson(json_path, "oracle:" + mapping_name, geometry_name,
                  geometry, inference);
    return 0;
}
