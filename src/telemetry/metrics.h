/**
 * @file
 * Metric registry: named counters, gauges, and log2-binned histograms.
 *
 * All metrics are thread-sharded: writers touch a per-thread cache-line
 * slot with relaxed atomics (no lock, no contention), and readers merge
 * the shards on demand. Because every write is an exact integer add and
 * integer addition is commutative, a merged value is bit-identical no
 * matter how trials were distributed over threads — the registry
 * composes with the deterministic parallel Monte Carlo engine: the same
 * seed yields the same counters at any `--threads` setting.
 *
 * Telemetry is opt-in and near-free when off: instrumented layers hold a
 * nullable `MetricRegistry *` and branch on it, so the disabled hot path
 * pays one predictable branch (see `micro_hotpaths`). Metric *creation*
 * (`registry.counter(name)`) takes a mutex and should be hoisted out of
 * hot loops; the returned references stay valid for the registry's
 * lifetime and their write paths are lock-free.
 */

#ifndef RELAXFAULT_TELEMETRY_METRICS_H
#define RELAXFAULT_TELEMETRY_METRICS_H

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace relaxfault {

class JsonWriter;

namespace detail {

/** Shards per metric; a power of two. */
constexpr unsigned kTelemetryShards = 16;

/** Stable per-thread shard index (round-robin at first use). */
unsigned telemetryShard();

} // namespace detail

/** Monotonic event count; exact under any thread interleaving. */
class Counter
{
  public:
    /** Record @p delta events (lock-free, relaxed). */
    void add(uint64_t delta = 1)
    {
        shards_[detail::telemetryShard()].value.fetch_add(
            delta, std::memory_order_relaxed);
    }

    /** Merged total over all shards. */
    uint64_t value() const;

    void reset();

  private:
    struct alignas(64) Shard
    {
        std::atomic<uint64_t> value{0};
    };
    std::array<Shard, detail::kTelemetryShards> shards_{};
};

/** Last-written point-in-time value (e.g., a published snapshot). */
class Gauge
{
  public:
    void set(int64_t value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    void add(int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** Order-independent merged view of a Log2Histogram. */
struct Log2HistogramSnapshot
{
    /** Fold @p other in bucket by bucket (exact integer adds). */
    void merge(const Log2HistogramSnapshot &other);

    /** Bucket b counts values of bit-width b (see bucketOf). */
    std::array<uint64_t, 65> buckets{};
    uint64_t count = 0;
    uint64_t sum = 0;

    double mean() const
    {
        return count == 0
            ? 0.0
            : static_cast<double>(sum) / static_cast<double>(count);
    }

    /**
     * Upper bound of the smallest bucket whose cumulative count reaches
     * fraction @p p of the total (bucket-resolution estimate; exact to
     * within one power of two). Returns 0 for an empty histogram.
     */
    uint64_t quantileUpperBound(double p) const;

    bool operator==(const Log2HistogramSnapshot &) const = default;
};

/**
 * Log2-binned histogram of unsigned values (latencies, occupancies).
 *
 * Values are bucketed by bit width — bucket 0 holds exactly 0, bucket b
 * holds [2^(b-1), 2^b) — so one fetch_add covers any 64-bit range with
 * 65 buckets and no configuration. Each shard owns its own bucket
 * array; the merged snapshot sums them, which is exact and
 * order-independent (integer adds), preserving the determinism
 * guarantee for value distributions, not just totals.
 */
class Log2Histogram
{
  public:
    static constexpr unsigned kBuckets = 65;

    /** Bucket index of @p value: its bit width (0 for 0). */
    static unsigned bucketOf(uint64_t value)
    {
        return static_cast<unsigned>(std::bit_width(value));
    }

    /** Smallest value in bucket @p bucket. */
    static uint64_t bucketLowerBound(unsigned bucket)
    {
        return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
    }

    /** Largest value in bucket @p bucket. */
    static uint64_t bucketUpperBound(unsigned bucket)
    {
        if (bucket >= 64)
            return ~uint64_t{0};
        return (uint64_t{1} << bucket) - 1;
    }

    /** Record one observation (lock-free, relaxed). */
    void record(uint64_t value)
    {
        Shard &shard = shards_[detail::telemetryShard()];
        shard.buckets[bucketOf(value)].fetch_add(
            1, std::memory_order_relaxed);
        shard.sum.fetch_add(value, std::memory_order_relaxed);
    }

    /**
     * Record @p count observations at once: classify the batch into a
     * local dense bucket array first and publish with one fetch_add
     * per *occupied bucket* plus one for the sum, instead of two per
     * sample. These are the same exact integer adds record() makes, so
     * the merged snapshot is bit-identical to per-sample recording
     * (pinned by the telemetry property tests).
     */
    void recordBatch(const uint64_t *values, size_t count);

    /** Deterministically merged view over all shards. */
    Log2HistogramSnapshot snapshot() const;

    /** Fold a snapshot's buckets and sum in (exact integer adds). */
    void absorb(const Log2HistogramSnapshot &snapshot);

    void reset();

  private:
    struct alignas(64) Shard
    {
        std::array<std::atomic<uint64_t>, kBuckets> buckets{};
        std::atomic<uint64_t> sum{0};
    };
    std::array<Shard, detail::kTelemetryShards> shards_{};
};

/**
 * Bounded local staging buffer in front of a histogram: values pile up
 * in plain memory and publish through recordBatch() when the buffer
 * fills (or on destruction), amortizing the shard atomics over the
 * batch. Single-owner — one batch per thread/chunk — and a null sink
 * disables it entirely, mirroring the nullable-registry convention.
 */
class HistogramBatch
{
  public:
    static constexpr size_t kCapacity = 256;

    explicit HistogramBatch(Log2Histogram *sink) : sink_(sink) {}

    ~HistogramBatch() { flush(); }

    HistogramBatch(const HistogramBatch &) = delete;
    HistogramBatch &operator=(const HistogramBatch &) = delete;

    /** Stage one observation (published no later than destruction). */
    void record(uint64_t value)
    {
        if (sink_ == nullptr)
            return;
        values_[count_++] = value;
        if (count_ == kCapacity)
            flush();
    }

    /** Publish everything staged so far. */
    void flush();

    bool enabled() const { return sink_ != nullptr; }

  private:
    Log2Histogram *sink_;
    size_t count_ = 0;
    std::array<uint64_t, kCapacity> values_{};
};

/** Name-sorted point-in-time view of every metric in a registry. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<std::pair<std::string, Log2HistogramSnapshot>> histograms;

    bool operator==(const MetricsSnapshot &) const = default;

    /**
     * Fold @p other in by name: counters and gauges add, histograms
     * merge bucket by bucket, unseen names are inserted (keeping the
     * name-sorted order). Every operation is an exact integer add, so
     * merging per-shard snapshots in any order yields the same totals a
     * single uninterrupted registry would have accumulated — the
     * campaign checkpoint layer's telemetry-determinism guarantee.
     */
    void merge(const MetricsSnapshot &other);

    /** Counter value by name (0 if absent). */
    uint64_t counterValue(const std::string &name) const;

    /** Gauge value by name (0 if absent). */
    int64_t gaugeValue(const std::string &name) const;

    /**
     * Set (insert-or-overwrite, keeping the name-sorted order) gauge
     * @p name to @p value. Used to stamp snapshot-scoped facts — e.g.
     * a worker process's peak RSS — into a captured snapshot.
     */
    void setGauge(const std::string &name, int64_t value);

    /**
     * Remove gauge @p name and return its value (0 if absent). The
     * escape hatch for gauges whose cross-shard merge is NOT additive:
     * the worker pool takes each shard's peak-RSS gauge out (folding it
     * with max) before the additive absorb sees the snapshot.
     */
    int64_t takeGauge(const std::string &name);

    /** Histogram snapshot by name (null if absent). */
    const Log2HistogramSnapshot *
    findHistogram(const std::string &name) const;
};

/**
 * Named metric directory. Lookup-or-create is mutex-protected (cold
 * path); the returned references are stable for the registry's lifetime
 * and their write paths are lock-free.
 */
class MetricRegistry
{
  public:
    MetricRegistry();

    /**
     * Nonzero, and never shared with another registry of the process,
     * even one built where this one was: holders of metric references
     * can tell which registry they came from.
     */
    uint64_t id() const { return id_; }

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Log2Histogram &histogram(const std::string &name);

    /** Merged, name-sorted view of everything registered so far. */
    MetricsSnapshot snapshot() const;

    /**
     * Fold a snapshot's totals into this registry: counters add their
     * value, gauges add theirs, histograms add their bucket counts and
     * sum. Used to replay checkpointed per-shard telemetry into a live
     * registry; integer adds keep the result bit-identical to having
     * recorded the observations directly.
     */
    void absorb(const MetricsSnapshot &snapshot);

    /** Emit the snapshot as one JSON object (counters/gauges/histograms). */
    void writeJson(JsonWriter &writer) const;

    /**
     * Render the snapshot in OpenMetrics text format: counters as
     * `<name>_total`, gauges as gauges, histograms as exemplar-free
     * summaries (p50/p90/p99 bucket upper bounds plus `_count`/`_sum`),
     * terminated by `# EOF`. Names are prefixed `relaxfault_` and
     * sanitized to the OpenMetrics charset (`sim.trial_us` becomes
     * `relaxfault_sim_trial_us`). See openmetrics.cc.
     */
    std::string renderOpenMetrics() const;

    /** Human-readable dump, one metric per line. */
    void printSummary(std::ostream &os) const;

  private:
    uint64_t id_;
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Log2Histogram>> histograms_;
};

} // namespace relaxfault

#endif // RELAXFAULT_TELEMETRY_METRICS_H
