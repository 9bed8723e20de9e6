/**
 * @file
 * Low-overhead causal event tracer for the repair pipeline.
 *
 * Architecture mirrors the MetricRegistry opt-in contract: engines take
 * a nullable `TraceSink *`; a null pointer is the disabled path and
 * costs one predictable branch per would-be event (enforced to < 1
 * ns/event by the `trace`-labelled overhead test). When enabled, each
 * worker leases a `TraceShard` — a bounded, overwrite-oldest ring of
 * 64-byte `TraceEvent`s — from the shared `Tracer`, so the record path
 * is single-writer with no atomics or locks. Leases come from a
 * mutex-guarded free list sized by the number of concurrent workers,
 * not by trial count.
 *
 * Collection (`Tracer::collect`) happens only after workers have
 * joined (parallelFor is a barrier; campaign shards absorb after the
 * attempt finishes), and sorts events by (unit, trial, id), so the
 * exported trace is deterministic regardless of which worker leased
 * which shard.
 *
 * See DESIGN.md §10 for the event taxonomy and the causal-id scheme,
 * and `src/tracing/trace_export.h` for the Chrome/Perfetto JSON form.
 */

#ifndef RELAXFAULT_TRACING_TRACER_H
#define RELAXFAULT_TRACING_TRACER_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "tracing/trace_event.h"

namespace relaxfault {

/** Tracer tuning knobs. */
struct TracerConfig
{
    /**
     * Events retained per shard ring; older events are overwritten
     * (and counted as dropped) once a worker exceeds this. 64 bytes
     * per slot.
     */
    size_t shardCapacity = 1u << 16;

    /** Accepted-kind bitmask (see parseTraceFilter). */
    uint32_t filter = kTraceAllKinds;
};

/**
 * One bounded event ring. Single-writer: exactly one worker records
 * into a leased shard at a time, and collection is sequenced after the
 * workers join, so no synchronisation is needed on the record path.
 */
class TraceShard
{
  public:
    explicit TraceShard(size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
        ring_.reserve(std::min<size_t>(capacity_, 1024));
    }

    /** Append one event, overwriting the oldest beyond capacity. */
    void record(const TraceEvent &event)
    {
        if (ring_.size() < capacity_) {
            ring_.push_back(event);
        } else {
            ring_[written_ % capacity_] = event;
        }
        ++written_;
    }

    /** Events ever recorded (including since-overwritten ones). */
    uint64_t written() const { return written_; }

    /** Events lost to ring overwrite. */
    uint64_t dropped() const
    {
        return written_ > ring_.size() ? written_ - ring_.size() : 0;
    }

    /** Append retained events, oldest first, to @p out. */
    void drainTo(std::vector<TraceEvent> &out) const
    {
        if (written_ <= capacity_) {
            out.insert(out.end(), ring_.begin(), ring_.end());
            return;
        }
        const size_t head = written_ % capacity_;  // oldest slot
        out.insert(out.end(), ring_.begin() + head, ring_.end());
        out.insert(out.end(), ring_.begin(), ring_.begin() + head);
    }

    /** Forget everything (lease reuse across campaign attempts). */
    void clear()
    {
        ring_.clear();
        written_ = 0;
    }

  private:
    size_t capacity_;
    uint64_t written_ = 0;
    std::vector<TraceEvent> ring_;
};

/**
 * Shared trace store: owns the shard pool, the unit-label registry,
 * and events absorbed from other tracers (campaign shard attempts).
 * All methods are thread-safe; the hot path never touches this class
 * beyond the inline `accepts` filter check.
 */
class Tracer
{
  public:
    explicit Tracer(TracerConfig config = {}) : config_(config) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    const TracerConfig &config() const { return config_; }

    /** Hot-path filter check (no lock; config is immutable). */
    bool accepts(TraceKind kind) const
    {
        return (config_.filter & traceKindBit(kind)) != 0;
    }

    /**
     * Intern @p label (an experiment unit such as "repair-matrix/
     * RelaxFault-4way") and return its stable id. Re-registering a
     * label returns the same id.
     */
    uint16_t registerUnit(const std::string &label);

    /** Registered unit labels, indexed by unit id. */
    std::vector<std::string> unitLabels() const;

    /** Lease a shard (reused from the free list when available). */
    TraceShard *acquireShard();

    /** Return a leased shard to the free list. */
    void releaseShard(TraceShard *shard);

    /** Total events ever recorded across shards + absorbed tracers. */
    uint64_t recorded() const;

    /** Total events lost to ring overwrite. */
    uint64_t dropped() const;

    /**
     * Merge @p other's events into this tracer: unit ids are remapped
     * by label, retained events are copied, and the drop count is
     * carried over. Used by the campaign runner to fold a per-attempt
     * tracer into the caller's aggregate after a shard commits.
     */
    void absorb(const Tracer &other);

    /**
     * All retained events, sorted by (unit, trial, id, payload) — a
     * deterministic order independent of shard leasing. Must not be
     * called while a worker is recording into a leased shard.
     */
    std::vector<TraceEvent> collect() const;

  private:
    TracerConfig config_;

    mutable std::mutex mutex_;
    std::vector<std::string> units_;
    std::vector<std::unique_ptr<TraceShard>> shards_;
    std::vector<TraceShard *> freeShards_;
    std::vector<TraceEvent> absorbed_;
    uint64_t absorbedDropped_ = 0;
};

/**
 * Per-worker event emitter: stamps events with the current trial /
 * node / simulated time and maintains the causal parent stack. Plain
 * value type — engines receive a nullable `TraceSink *`; null means
 * tracing is disabled.
 */
class TraceSink
{
  public:
    /** Disabled sink (never records). */
    TraceSink() = default;

    /** Enabled sink recording into @p shard under @p unit. */
    TraceSink(Tracer *tracer, TraceShard *shard, uint16_t unit)
        : tracer_(tracer), shard_(shard), unit_(unit)
    {
    }

    bool enabled() const { return tracer_ != nullptr && shard_ != nullptr; }

    /** True if an emit of @p kind would record (live and not filtered). */
    bool accepts(TraceKind kind) const
    {
        return enabled() && tracer_->accepts(kind);
    }

    /** Start trial @p trial: resets the id sequence and parent stack. */
    void beginTrial(uint64_t trial)
    {
        trial_ = trial;
        node_ = 0;
        timeHours_ = 0.0;
        seq_ = 0;
        parents_.clear();
    }

    void setNode(uint32_t node) { node_ = node; }
    void setSimTime(double hours) { timeHours_ = hours; }
    double simTime() const { return timeHours_; }
    uint64_t trial() const { return trial_; }

    /**
     * Record one event; returns its causal id, or 0 when disabled or
     * filtered out (0 is safe to pass as a parent: it means "root").
     */
    uint64_t emit(TraceKind kind, uint8_t sub, uint64_t a = 0,
                  uint64_t b = 0, uint64_t c = 0)
    {
        if (!accepts(kind))
            return 0;
        TraceEvent event;
        event.id = ((trial_ + 1) << 24) | ++seq_;
        event.parent = currentParent();
        event.trial = trial_;
        event.node = node_;
        event.unit = unit_;
        event.kind = kind;
        event.sub = sub;
        event.timeHours = timeHours_;
        event.a = a;
        event.b = b;
        event.c = c;
        shard_->record(event);
        return event.id;
    }

    /**
     * Record a control event (campaign heartbeat): not tied to a trial
     * sequence; ids set bit 62 and embed @p b (the shard index) so they
     * stay unique across shards.
     */
    uint64_t emitControl(TraceKind kind, uint8_t sub, uint64_t trial,
                         uint64_t a = 0, uint64_t b = 0, uint64_t c = 0)
    {
        if (!accepts(kind))
            return 0;
        TraceEvent event;
        event.id = (uint64_t{1} << 62) | (b << 16) | ++controlSeq_;
        event.trial = trial;
        event.unit = unit_;
        event.kind = kind;
        event.sub = sub;
        event.timeHours = timeHours_;
        event.a = a;
        event.b = b;
        event.c = c;
        shard_->record(event);
        return event.id;
    }

    /** Causal parent for the next emit (0 = root). */
    uint64_t currentParent() const
    {
        return parents_.empty() ? 0 : parents_.back();
    }

    /** Push @p id as the causal parent (no-op for id 0). */
    void pushParent(uint64_t id)
    {
        if (id != 0)
            parents_.push_back(id);
    }

    void popParent(uint64_t id)
    {
        if (id != 0 && !parents_.empty())
            parents_.pop_back();
    }

  private:
    Tracer *tracer_ = nullptr;
    TraceShard *shard_ = nullptr;
    uint16_t unit_ = 0;
    uint64_t trial_ = 0;
    uint32_t node_ = 0;
    double timeHours_ = 0.0;
    uint32_t seq_ = 0;
    uint32_t controlSeq_ = 0;
    std::vector<uint64_t> parents_;
};

/**
 * RAII causal scope: events emitted while alive become children of
 * @p id. Safe with id 0 (a filtered-out parent) — the scope is then a
 * no-op and children attach to the enclosing parent.
 */
class TraceParentScope
{
  public:
    TraceParentScope(TraceSink *sink, uint64_t id) : sink_(sink), id_(id)
    {
        if (sink_ != nullptr)
            sink_->pushParent(id_);
    }
    ~TraceParentScope()
    {
        if (sink_ != nullptr)
            sink_->popParent(id_);
    }
    TraceParentScope(const TraceParentScope &) = delete;
    TraceParentScope &operator=(const TraceParentScope &) = delete;

  private:
    TraceSink *sink_;
    uint64_t id_;
};

/**
 * RAII phase instrument: the one marker for a timed Phase. It feeds
 * whichever of three sinks is live:
 *  - the profiler's phase stack, while the profiler is armed;
 *  - @p sink: a Span event carrying the wall-clock duration (µs), when
 *    the sink is live and Span events pass its filter;
 *  - @p batch: the same duration, when the batch is enabled.
 * The clock is read once on entry and once on exit, and only when the
 * span or the histogram is live, so a fully disabled scope costs one
 * relaxed load and a few predictable branches.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(Phase phase, TraceSink *sink = nullptr,
                        HistogramBatch *batch = nullptr)
    {
        if (profiler::enabled() || sink != nullptr || batch != nullptr)
            [[unlikely]] begin(phase, sink, batch);
    }
    ~PhaseScope()
    {
        if (live_) [[unlikely]]
            end();
    }
    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    // Out of line, so the disabled path is the inline gate alone.
    void begin(Phase phase, TraceSink *sink, HistogramBatch *batch);
    void end();

    bool live_ = false;  ///< begin() ran: end() has work to do.
    Phase phase_ = Phase::Trial;
    TraceSink *sink_ = nullptr;        ///< Live, Span-accepting, or null.
    HistogramBatch *batch_ = nullptr;  ///< Enabled batch or null.
    int32_t previous_ = -1;  ///< Profiler node to restore; -1 = none.
    std::chrono::steady_clock::time_point start_{};
};

/** RAII shard lease; null tracer yields a null shard. */
class TraceShardLease
{
  public:
    explicit TraceShardLease(Tracer *tracer) : tracer_(tracer)
    {
        if (tracer_ != nullptr)
            shard_ = tracer_->acquireShard();
    }
    ~TraceShardLease()
    {
        if (tracer_ != nullptr && shard_ != nullptr)
            tracer_->releaseShard(shard_);
    }
    TraceShardLease(const TraceShardLease &) = delete;
    TraceShardLease &operator=(const TraceShardLease &) = delete;

    TraceShard *shard() const { return shard_; }

  private:
    Tracer *tracer_;
    TraceShard *shard_ = nullptr;
};

/**
 * Sanitize an arbitrary unit label into a filename token: characters
 * outside [A-Za-z0-9._-] become '-'.
 */
std::string traceSafeFileToken(std::string_view label);

} // namespace relaxfault

#endif // RELAXFAULT_TRACING_TRACER_H
