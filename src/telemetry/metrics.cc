#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>

#include "telemetry/json_writer.h"

namespace relaxfault {

namespace detail {

unsigned
telemetryShard()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned shard =
        next.fetch_add(1, std::memory_order_relaxed) %
        kTelemetryShards;
    return shard;
}

} // namespace detail

uint64_t
Counter::value() const
{
    uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.value.load(std::memory_order_relaxed);
    return total;
}

void
Counter::reset()
{
    for (Shard &shard : shards_)
        shard.value.store(0, std::memory_order_relaxed);
}

void
Log2HistogramSnapshot::merge(const Log2HistogramSnapshot &other)
{
    for (size_t b = 0; b < buckets.size(); ++b)
        buckets[b] += other.buckets[b];
    count += other.count;
    sum += other.sum;
}

uint64_t
Log2HistogramSnapshot::quantileUpperBound(double p) const
{
    if (count == 0)
        return 0;
    const double want = p * static_cast<double>(count);
    uint64_t cumulative = 0;
    for (unsigned b = 0; b < buckets.size(); ++b) {
        cumulative += buckets[b];
        if (static_cast<double>(cumulative) >= want)
            return Log2Histogram::bucketUpperBound(b);
    }
    return Log2Histogram::bucketUpperBound(64);
}

Log2HistogramSnapshot
Log2Histogram::snapshot() const
{
    Log2HistogramSnapshot merged;
    for (const Shard &shard : shards_) {
        for (unsigned b = 0; b < kBuckets; ++b) {
            const uint64_t n =
                shard.buckets[b].load(std::memory_order_relaxed);
            merged.buckets[b] += n;
            merged.count += n;
        }
        merged.sum += shard.sum.load(std::memory_order_relaxed);
    }
    return merged;
}

void
Log2Histogram::reset()
{
    for (Shard &shard : shards_) {
        for (auto &bucket : shard.buckets)
            bucket.store(0, std::memory_order_relaxed);
        shard.sum.store(0, std::memory_order_relaxed);
    }
}

void
Log2Histogram::recordBatch(const uint64_t *values, size_t count)
{
    if (count == 0)
        return;
    // Positional counting into a local dense array, then one fetch_add
    // per occupied bucket (and one for the sum). The adds are the same
    // exact integers per-sample `record()` would make, in a different
    // order, so the merged snapshot cannot differ from it.
    uint64_t local[kBuckets] = {};
    uint64_t sum = 0;
    for (size_t i = 0; i < count; ++i) {
        ++local[bucketOf(values[i])];
        sum += values[i];
    }
    Shard &shard = shards_[detail::telemetryShard()];
    for (unsigned b = 0; b < kBuckets; ++b) {
        if (local[b] != 0)
            shard.buckets[b].fetch_add(local[b],
                                       std::memory_order_relaxed);
    }
    shard.sum.fetch_add(sum, std::memory_order_relaxed);
}

void
HistogramBatch::flush()
{
    if (sink_ != nullptr && count_ > 0)
        sink_->recordBatch(values_.data(), count_);
    count_ = 0;
}

void
Log2Histogram::absorb(const Log2HistogramSnapshot &snapshot)
{
    Shard &shard = shards_[detail::telemetryShard()];
    for (unsigned b = 0; b < kBuckets; ++b) {
        if (snapshot.buckets[b] != 0)
            shard.buckets[b].fetch_add(snapshot.buckets[b],
                                       std::memory_order_relaxed);
    }
    shard.sum.fetch_add(snapshot.sum, std::memory_order_relaxed);
}

namespace {

/**
 * Name-keyed ordered fold shared by the three MetricsSnapshot metric
 * kinds: both vectors are name-sorted, so a linear two-pointer merge
 * keeps the result sorted.
 */
template <typename Value, typename Fold>
void
mergeByName(std::vector<std::pair<std::string, Value>> &into,
            const std::vector<std::pair<std::string, Value>> &from,
            const Fold &fold)
{
    std::vector<std::pair<std::string, Value>> merged;
    merged.reserve(into.size() + from.size());
    size_t i = 0;
    size_t j = 0;
    while (i < into.size() || j < from.size()) {
        if (j >= from.size() ||
            (i < into.size() && into[i].first < from[j].first)) {
            merged.push_back(std::move(into[i++]));
        } else if (i >= into.size() || from[j].first < into[i].first) {
            merged.push_back(from[j++]);
        } else {
            fold(into[i].second, from[j].second);
            merged.push_back(std::move(into[i]));
            ++i;
            ++j;
        }
    }
    into = std::move(merged);
}

} // namespace

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    mergeByName(counters, other.counters,
                [](uint64_t &a, const uint64_t &b) { a += b; });
    mergeByName(gauges, other.gauges,
                [](int64_t &a, const int64_t &b) { a += b; });
    mergeByName(histograms, other.histograms,
                [](Log2HistogramSnapshot &a,
                   const Log2HistogramSnapshot &b) { a.merge(b); });
}

uint64_t
MetricsSnapshot::counterValue(const std::string &name) const
{
    for (const auto &[key, value] : counters) {
        if (key == name)
            return value;
    }
    return 0;
}

int64_t
MetricsSnapshot::gaugeValue(const std::string &name) const
{
    for (const auto &[key, value] : gauges) {
        if (key == name)
            return value;
    }
    return 0;
}

void
MetricsSnapshot::setGauge(const std::string &name, int64_t value)
{
    const auto it = std::lower_bound(
        gauges.begin(), gauges.end(), name,
        [](const auto &entry, const std::string &key) {
            return entry.first < key;
        });
    if (it != gauges.end() && it->first == name)
        it->second = value;
    else
        gauges.insert(it, {name, value});
}

int64_t
MetricsSnapshot::takeGauge(const std::string &name)
{
    for (auto it = gauges.begin(); it != gauges.end(); ++it) {
        if (it->first == name) {
            const int64_t value = it->second;
            gauges.erase(it);
            return value;
        }
    }
    return 0;
}

const Log2HistogramSnapshot *
MetricsSnapshot::findHistogram(const std::string &name) const
{
    for (const auto &[key, value] : histograms) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

MetricRegistry::MetricRegistry()
{
    static std::atomic<uint64_t> next{1};
    id_ = next.fetch_add(1, std::memory_order_relaxed);
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Log2Histogram &
MetricRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Log2Histogram>();
    return *slot;
}

MetricsSnapshot
MetricRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto &[name, counter] : counters_)
        snap.counters.emplace_back(name, counter->value());
    for (const auto &[name, gauge] : gauges_)
        snap.gauges.emplace_back(name, gauge->value());
    for (const auto &[name, histogram] : histograms_)
        snap.histograms.emplace_back(name, histogram->snapshot());
    return snap;
}

void
MetricRegistry::absorb(const MetricsSnapshot &snapshot)
{
    for (const auto &[name, value] : snapshot.counters)
        counter(name).add(value);
    for (const auto &[name, value] : snapshot.gauges)
        gauge(name).add(value);
    for (const auto &[name, hist] : snapshot.histograms)
        histogram(name).absorb(hist);
}

void
MetricRegistry::writeJson(JsonWriter &writer) const
{
    const MetricsSnapshot snap = snapshot();
    writer.beginObject();
    writer.key("counters").beginObject();
    for (const auto &[name, value] : snap.counters)
        writer.key(name).value(value);
    writer.endObject();
    writer.key("gauges").beginObject();
    for (const auto &[name, value] : snap.gauges)
        writer.key(name).value(value);
    writer.endObject();
    writer.key("histograms").beginObject();
    for (const auto &[name, histogram] : snap.histograms) {
        writer.key(name).beginObject();
        writer.key("count").value(histogram.count);
        writer.key("sum").value(histogram.sum);
        writer.key("mean").value(histogram.mean());
        writer.key("p50").value(histogram.quantileUpperBound(0.50));
        writer.key("p99").value(histogram.quantileUpperBound(0.99));
        // Sparse buckets: key = bit width, value = count.
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

void
MetricRegistry::printSummary(std::ostream &os) const
{
    const MetricsSnapshot snap = snapshot();
    for (const auto &[name, value] : snap.counters)
        os << "counter   " << name << " = " << value << "\n";
    for (const auto &[name, value] : snap.gauges)
        os << "gauge     " << name << " = " << value << "\n";
    for (const auto &[name, histogram] : snap.histograms) {
        os << "histogram " << name << ": count=" << histogram.count
           << " sum=" << histogram.sum << " mean=" << histogram.mean()
           << " p50<=" << histogram.quantileUpperBound(0.50)
           << " p99<=" << histogram.quantileUpperBound(0.99) << "\n";
    }
}

} // namespace relaxfault
