#include "campaign/checkpoint.h"

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/fs.h"
#include "common/log.h"
#include "telemetry/json_reader.h"
#include "telemetry/json_writer.h"
#include "telemetry/run_record.h"
#include "tracing/tracer.h"

namespace relaxfault {

namespace {

/**
 * One trial's metrics in `kLifetimeFields` order. That order is the
 * schema; bump kCheckpointSchema if it changes.
 */
void
writeMetrics(JsonWriter &writer, const LifetimeMetrics &m)
{
    writer.beginArray();
    for (const LifetimeField &field : kLifetimeFields)
        writer.value(m.*field.metric);
    writer.endArray();
}

bool
parseMetrics(const JsonValue &value, LifetimeMetrics &out)
{
    if (!value.isArray() || value.array().size() != kLifetimeFieldCount)
        return false;
    LifetimeMetrics parsed;
    for (size_t i = 0; i < kLifetimeFieldCount; ++i) {
        if (!value.array()[i].isNumber())
            return false;
        parsed.*kLifetimeFields[i].metric = value.array()[i].number();
    }
    out = parsed;
    return true;
}

/** Required string member, or empty. */
std::string
stringOf(const JsonValue &object, const char *key)
{
    const JsonValue *member = object.find(key);
    return member != nullptr && member->isString() ? member->string()
                                                   : std::string();
}

bool
uintOf(const JsonValue &object, const char *key, uint64_t &out)
{
    const JsonValue *member = object.find(key);
    if (member == nullptr || !member->isNumber())
        return false;
    out = member->asUint();
    return true;
}

} // namespace

void
writeSnapshotJson(JsonWriter &writer, const MetricsSnapshot &snapshot)
{
    writer.beginObject();
    writer.key("counters").beginObject();
    for (const auto &[name, value] : snapshot.counters)
        writer.key(name).value(value);
    writer.endObject();
    writer.key("gauges").beginObject();
    for (const auto &[name, value] : snapshot.gauges)
        writer.key(name).value(value);
    writer.endObject();
    // Histograms keep only what reconstructs them exactly: the sparse
    // bucket counts and the sum (count is the bucket total).
    writer.key("histograms").beginObject();
    for (const auto &[name, histogram] : snapshot.histograms) {
        writer.key(name).beginObject();
        writer.key("sum").value(histogram.sum);
        writer.key("buckets").beginObject();
        for (unsigned b = 0; b < histogram.buckets.size(); ++b) {
            if (histogram.buckets[b] != 0)
                writer.key(std::to_string(b)).value(histogram.buckets[b]);
        }
        writer.endObject();
        writer.endObject();
    }
    writer.endObject();
    writer.endObject();
}

bool
parseSnapshotJson(const JsonValue &value, MetricsSnapshot &out)
{
    if (!value.isObject())
        return false;
    const JsonValue *counters = value.find("counters");
    const JsonValue *gauges = value.find("gauges");
    const JsonValue *histograms = value.find("histograms");
    if (counters == nullptr || !counters->isObject() ||
        gauges == nullptr || !gauges->isObject() ||
        histograms == nullptr || !histograms->isObject())
        return false;

    out = MetricsSnapshot{};
    for (const auto &[name, v] : counters->members()) {
        if (!v.isNumber())
            return false;
        out.counters.emplace_back(name, v.asUint());
    }
    for (const auto &[name, v] : gauges->members()) {
        if (!v.isNumber())
            return false;
        out.gauges.emplace_back(name, v.asInt());
    }
    for (const auto &[name, v] : histograms->members()) {
        if (!v.isObject())
            return false;
        Log2HistogramSnapshot histogram;
        uint64_t sum = 0;
        if (!uintOf(v, "sum", sum))
            return false;
        histogram.sum = sum;
        const JsonValue *buckets = v.find("buckets");
        if (buckets == nullptr || !buckets->isObject())
            return false;
        for (const auto &[index_text, count] : buckets->members()) {
            char *end = nullptr;
            const unsigned long index =
                std::strtoul(index_text.c_str(), &end, 10);
            if (end != index_text.c_str() + index_text.size() ||
                index >= histogram.buckets.size() || !count.isNumber())
                return false;
            histogram.buckets[index] = count.asUint();
            histogram.count += count.asUint();
        }
        out.histograms.emplace_back(name, std::move(histogram));
    }
    return true;
}

std::string
CheckpointLog::shardLine(const ShardRecord &record)
{
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject();
    writer.key("schema").value(kCheckpointSchema);
    writer.key("kind").value("shard");
    writer.key("unit").value(record.unit);
    writer.key("shard").value(uint64_t{record.shard});
    writer.key("first_trial").value(record.firstTrial);
    writer.key("trial_count").value(
        static_cast<uint64_t>(record.trials.size()));
    writer.key("attempt").value(uint64_t{record.attempt});
    writer.key("threads").value(uint64_t{record.threads});
    writer.key("duration_ms").value(record.durationMs);
    writer.key("timestamp_ms").value(record.timestampMs);
    writer.key("git_rev").value(record.gitRev);
    writer.key("trials").beginArray();
    for (const LifetimeMetrics &m : record.trials)
        writeMetrics(writer, m);
    writer.endArray();
    writer.key("metrics");
    writeSnapshotJson(writer, record.metrics);
    writer.endObject();
    writer.finish();
    return os.str();
}

bool
CheckpointLog::parseShardLine(const std::string &line, ShardRecord &out)
{
    const JsonParseResult parsed = parseJson(line);
    if (!parsed.ok || !parsed.value.isObject())
        return false;
    const JsonValue &object = parsed.value;
    if (stringOf(object, "schema") != kCheckpointSchema ||
        stringOf(object, "kind") != "shard")
        return false;

    out = ShardRecord{};
    out.unit = stringOf(object, "unit");
    uint64_t shard = 0;
    uint64_t trial_count = 0;
    uint64_t attempt = 1;
    uint64_t threads = 0;
    if (out.unit.empty() || !uintOf(object, "shard", shard) ||
        !uintOf(object, "first_trial", out.firstTrial) ||
        !uintOf(object, "trial_count", trial_count))
        return false;
    uintOf(object, "attempt", attempt);
    uintOf(object, "threads", threads);
    uintOf(object, "duration_ms", out.durationMs);
    uintOf(object, "timestamp_ms", out.timestampMs);
    out.shard = static_cast<unsigned>(shard);
    out.attempt = static_cast<unsigned>(attempt);
    out.threads = static_cast<unsigned>(threads);
    out.gitRev = stringOf(object, "git_rev");

    const JsonValue *trials = object.find("trials");
    if (trials == nullptr || !trials->isArray() ||
        trials->array().size() != trial_count)
        return false;
    out.trials.resize(trials->array().size());
    for (size_t i = 0; i < out.trials.size(); ++i) {
        if (!parseMetrics(trials->array()[i], out.trials[i]))
            return false;
    }

    const JsonValue *metrics = object.find("metrics");
    return metrics != nullptr && parseSnapshotJson(*metrics, out.metrics);
}

CheckpointLog::CheckpointLog(std::string path,
                             CampaignFingerprint fingerprint, bool resume)
    : path_(std::move(path)), fingerprint_(std::move(fingerprint))
{
    if (path_.empty())
        return;
    if (resume && fileExists(path_)) {
        load();
        return;
    }
    if (resume)
        warn("campaign: --resume but no checkpoint at " + path_ +
             "; starting fresh");
    else if (fileExists(path_))
        inform("campaign: replacing existing checkpoint " + path_);
    startFresh();
}

std::string
CheckpointLog::headerLine() const
{
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject();
    writer.key("schema").value(kCheckpointSchema);
    writer.key("kind").value("campaign");
    writer.key("campaign").value(fingerprint_.campaign);
    writer.key("seed").value(fingerprint_.seed);
    writer.key("trials").value(fingerprint_.trials);
    writer.key("shards").value(uint64_t{fingerprint_.shards});
    writer.key("config").value(fingerprint_.config);
    writer.key("git_rev").value(runGitRev());
    writer.key("timestamp_ms").value(runTimestampMs());
    writer.endObject();
    writer.finish();
    return os.str();
}

void
CheckpointLog::startFresh()
{
    lines_ = {headerLine()};
    records_.clear();
    publish();
}

void
CheckpointLog::load()
{
    std::string content;
    if (const IoResult io = readFile(path_, content); !io)
        fatal("campaign: cannot read checkpoint: " + io.describe(path_));
    const std::vector<std::string> raw = splitLines(content);
    if (raw.empty())
        fatal("campaign: checkpoint " + path_ + " is empty");

    // Header: must parse and must name this exact campaign.
    const JsonParseResult header = parseJson(raw.front());
    if (!header.ok || !header.value.isObject() ||
        stringOf(header.value, "schema") != kCheckpointSchema ||
        stringOf(header.value, "kind") != "campaign")
        fatal("campaign: checkpoint " + path_ +
              " has no valid " + std::string(kCheckpointSchema) +
              " header");
    CampaignFingerprint stored;
    stored.campaign = stringOf(header.value, "campaign");
    uint64_t shards = 1;
    if (!uintOf(header.value, "seed", stored.seed) ||
        !uintOf(header.value, "trials", stored.trials) ||
        !uintOf(header.value, "shards", shards))
        fatal("campaign: checkpoint " + path_ + " header is incomplete");
    stored.shards = static_cast<unsigned>(shards);
    stored.config = stringOf(header.value, "config");
    if (stored != fingerprint_)
        fatal("campaign: checkpoint " + path_ +
              " belongs to a different campaign (campaign='" +
              stored.campaign + "' seed=" + std::to_string(stored.seed) +
              " trials=" + std::to_string(stored.trials) +
              " shards=" + std::to_string(stored.shards) + " config='" +
              stored.config + "'); refusing to mix results");
    lines_ = {raw.front()};

    // Shard lines: keep valid ones, drop and count anything torn. Later
    // duplicates of a (unit, shard) win — they are re-runs after a
    // retry and supersede the earlier attempt.
    for (size_t i = 1; i < raw.size(); ++i) {
        if (raw[i].empty())
            continue;
        ShardRecord record;
        if (parseShardLine(raw[i], record)) {
            records_[{record.unit, record.shard}] = std::move(record);
            lines_.push_back(raw[i]);
            continue;
        }
        // Failure/quarantine notes are informational; anything else is
        // torn.
        const JsonParseResult parsed = parseJson(raw[i]);
        if (parsed.ok && parsed.value.isObject() &&
            (stringOf(parsed.value, "kind") == "shard_failed" ||
             stringOf(parsed.value, "kind") == "shard_quarantined")) {
            lines_.push_back(raw[i]);
            continue;
        }
        ++tornLines_;
    }
    if (tornLines_ > 0)
        warn("campaign: dropped " + std::to_string(tornLines_) +
             " torn/invalid checkpoint line(s); affected shards will "
             "be re-run");
}

const ShardRecord *
CheckpointLog::find(const std::string &unit, unsigned shard) const
{
    const auto it = records_.find({unit, shard});
    return it == records_.end() ? nullptr : &it->second;
}

void
CheckpointLog::publish()
{
    if (path_.empty())
        return;
    std::string content;
    for (const std::string &line : lines_) {
        content += line;
        content += '\n';
    }

    // Bounded retry with exponential backoff: a transient write error
    // (full disk being cleaned, NFS blip, injected failpoint) must not
    // discard a campaign's committed work, but a persistent one still
    // fails loudly — continuing without persistence would silently void
    // the crash-recovery contract.
    Clock &clock = clock_ != nullptr ? *clock_ : Clock::steady();
    const unsigned max_attempts =
        retryPolicy_.maxAttempts > 0 ? retryPolicy_.maxAttempts : 1;
    IoResult last;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
            clock.sleepFor(std::chrono::milliseconds(
                retryPolicy_.backoffMs << (attempt - 2)));
            ++publishRetries_;
            if (metrics_ != nullptr)
                metrics_->counter("fs.retries").add(1);
        }
        if (const FailpointHit hit =
                failpoint::eval(FailpointSite::CkptPublish))
            last = IoResult::error("publish", hit.errnum);
        else
            last = atomicWriteFile(path_, content);
        if (last) {
            if (attempt > 1)
                inform("campaign: checkpoint publish recovered on "
                       "attempt " +
                       std::to_string(attempt) + ": " + path_);
            return;
        }
        warn("campaign: checkpoint publish attempt " +
             std::to_string(attempt) + "/" +
             std::to_string(max_attempts) +
             " failed: " + last.describe(path_));
    }
    fatal("campaign: cannot write checkpoint after " +
          std::to_string(max_attempts) +
          " attempt(s): " + last.describe(path_));
}

void
CheckpointLog::commit(const ShardRecord &record)
{
    const PhaseScope scope(Phase::Commit);
    records_[{record.unit, record.shard}] = record;
    if (path_.empty())
        return;
    lines_.push_back(shardLine(record));
    publish();
}

void
CheckpointLog::appendNote(const char *kind, const std::string &unit,
                          unsigned shard, unsigned attempt,
                          const std::string &error)
{
    if (path_.empty())
        return;
    std::ostringstream os;
    JsonWriter writer(os);
    writer.beginObject();
    writer.key("schema").value(kCheckpointSchema);
    writer.key("kind").value(kind);
    writer.key("unit").value(unit);
    writer.key("shard").value(uint64_t{shard});
    writer.key("attempt").value(uint64_t{attempt});
    writer.key("error").value(error);
    writer.key("timestamp_ms").value(runTimestampMs());
    writer.endObject();
    writer.finish();
    lines_.push_back(os.str());
    publish();
}

void
CheckpointLog::noteFailure(const std::string &unit, unsigned shard,
                           unsigned attempt, const std::string &error)
{
    appendNote("shard_failed", unit, shard, attempt, error);
}

void
CheckpointLog::noteQuarantine(const std::string &unit, unsigned shard,
                              unsigned attempts, const std::string &error)
{
    appendNote("shard_quarantined", unit, shard, attempts, error);
}

} // namespace relaxfault
