/**
 * @file
 * Exact-equality checks shared by the lifetime test suites: two
 * summaries (every `kLifetimeFields` metric, every statistic) and two
 * telemetry snapshots. No tolerances anywhere.
 */

#ifndef RELAXFAULT_TESTS_LIFETIME_EXPECT_H
#define RELAXFAULT_TESTS_LIFETIME_EXPECT_H

#include <gtest/gtest.h>

#include "sim/lifetime.h"
#include "telemetry/metrics.h"

namespace relaxfault {

/**
 * Declaration slot (0-11) of @p field's member in LifetimeMetrics: an
 * identity for test values that does not follow the table's order.
 */
inline size_t
metricSlot(const LifetimeField &field)
{
    const LifetimeMetrics probe;
    return static_cast<size_t>(
               reinterpret_cast<const char *>(&(probe.*field.metric)) -
               reinterpret_cast<const char *>(&probe)) /
           sizeof(double);
}

inline void
expectIdentical(const RunningStat &a, const RunningStat &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.ci95(), b.ci95());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.sum(), b.sum());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

inline void
expectIdentical(const LifetimeSummary &a, const LifetimeSummary &b)
{
    for (const LifetimeField &field : kLifetimeFields) {
        SCOPED_TRACE(field.counter);
        expectIdentical(a.*field.summary, b.*field.summary);
    }
}

/**
 * Merged telemetry must match exactly, except the `sim.trial_us`
 * wall-clock histogram, which is the one intentionally nondeterministic
 * metric of the lifetime path.
 */
inline void
expectIdenticalTelemetry(const MetricsSnapshot &a, const MetricsSnapshot &b)
{
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (size_t i = 0; i < a.counters.size(); ++i) {
        EXPECT_EQ(a.counters[i].first, b.counters[i].first);
        EXPECT_EQ(a.counters[i].second, b.counters[i].second)
            << "counter " << a.counters[i].first;
    }
    ASSERT_EQ(a.gauges.size(), b.gauges.size());
    ASSERT_EQ(a.histograms.size(), b.histograms.size());
    for (size_t i = 0; i < a.histograms.size(); ++i) {
        EXPECT_EQ(a.histograms[i].first, b.histograms[i].first);
        if (a.histograms[i].first == "sim.trial_us")
            continue;
        const Log2HistogramSnapshot &ha = a.histograms[i].second;
        const Log2HistogramSnapshot &hb = b.histograms[i].second;
        EXPECT_EQ(ha.count, hb.count) << a.histograms[i].first;
        EXPECT_EQ(ha.sum, hb.sum) << a.histograms[i].first;
        for (size_t bkt = 0; bkt < ha.buckets.size(); ++bkt)
            EXPECT_EQ(ha.buckets[bkt], hb.buckets[bkt])
                << a.histograms[i].first << " bucket " << bkt;
    }
}

} // namespace relaxfault

#endif // RELAXFAULT_TESTS_LIFETIME_EXPECT_H
