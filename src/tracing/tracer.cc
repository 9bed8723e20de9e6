#include "tracing/tracer.h"

#include <algorithm>
#include <tuple>

namespace relaxfault {

namespace {

/** Total order independent of shard-leasing history. */
bool
eventBefore(const TraceEvent &lhs, const TraceEvent &rhs)
{
    return std::tie(lhs.unit, lhs.trial, lhs.id, lhs.kind, lhs.sub,
                    lhs.a, lhs.b, lhs.c) <
           std::tie(rhs.unit, rhs.trial, rhs.id, rhs.kind, rhs.sub,
                    rhs.a, rhs.b, rhs.c);
}

} // namespace

void
PhaseScope::begin(Phase phase, TraceSink *sink, HistogramBatch *batch)
{
    live_ = true;
    phase_ = phase;
    sink_ = sink != nullptr && sink->accepts(TraceKind::Span) ? sink
                                                              : nullptr;
    batch_ = batch != nullptr && batch->enabled() ? batch : nullptr;
    previous_ =
        profiler::enabled() ? profiler::detail::enterPhase(phase) : -1;
    if (sink_ != nullptr || batch_ != nullptr)
        start_ = std::chrono::steady_clock::now();
}

void
PhaseScope::end()
{
    if (sink_ != nullptr || batch_ != nullptr) {
        const auto micros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
        if (sink_ != nullptr)
            sink_->emit(TraceKind::Span, static_cast<uint8_t>(phase_),
                        micros);
        if (batch_ != nullptr)
            batch_->record(micros);
    }
    if (previous_ >= 0)
        profiler::detail::leavePhase(previous_);
}

uint16_t
Tracer::registerUnit(const std::string &label)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < units_.size(); ++i)
        if (units_[i] == label)
            return static_cast<uint16_t>(i);
    units_.push_back(label);
    return static_cast<uint16_t>(units_.size() - 1);
}

std::vector<std::string>
Tracer::unitLabels() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return units_;
}

TraceShard *
Tracer::acquireShard()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!freeShards_.empty()) {
        TraceShard *shard = freeShards_.back();
        freeShards_.pop_back();
        return shard;
    }
    shards_.push_back(std::make_unique<TraceShard>(config_.shardCapacity));
    return shards_.back().get();
}

void
Tracer::releaseShard(TraceShard *shard)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    freeShards_.push_back(shard);
}

uint64_t
Tracer::recorded() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = absorbed_.size() + absorbedDropped_;
    for (const auto &shard : shards_)
        total += shard->written();
    return total;
}

uint64_t
Tracer::dropped() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = absorbedDropped_;
    for (const auto &shard : shards_)
        total += shard->dropped();
    return total;
}

void
Tracer::absorb(const Tracer &other)
{
    // Collect under the other tracer's lock, then remap unit ids by
    // label into this tracer's registry.
    std::vector<TraceEvent> events = other.collect();
    const std::vector<std::string> labels = other.unitLabels();
    std::vector<uint16_t> remap(labels.size(), 0);
    for (size_t i = 0; i < labels.size(); ++i)
        remap[i] = registerUnit(labels[i]);
    const uint64_t otherDropped = other.dropped();

    const std::lock_guard<std::mutex> lock(mutex_);
    for (TraceEvent &event : events) {
        if (event.unit < remap.size())
            event.unit = remap[event.unit];
        absorbed_.push_back(event);
    }
    absorbedDropped_ += otherDropped;
}

std::vector<TraceEvent>
Tracer::collect() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> events = absorbed_;
    for (const auto &shard : shards_)
        shard->drainTo(events);
    std::sort(events.begin(), events.end(), eventBefore);
    return events;
}

std::string
traceSafeFileToken(std::string_view label)
{
    std::string token;
    token.reserve(label.size());
    for (const char ch : label) {
        const bool safe = (ch >= 'a' && ch <= 'z') ||
                          (ch >= 'A' && ch <= 'Z') ||
                          (ch >= '0' && ch <= '9') || ch == '.' ||
                          ch == '_' || ch == '-';
        token.push_back(safe ? ch : '-');
    }
    return token;
}

} // namespace relaxfault
