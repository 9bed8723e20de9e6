/**
 * @file
 * The fleet watchdog's staleness tracker.
 *
 * Workers publish *progress counters*, not timestamps: each worker slot
 * of the stats plane carries a monotone heartbeat tick that advances
 * when the worker takes a shard, at every finished trial and when it
 * commits the shard. The parent watches the counter from the outside. A
 * stalled worker is one whose counter has not moved for longer than the
 * watchdog deadline *measured on the parent's own clock*: no clock is
 * ever shared across the process boundary, so a FakeClock parent and a
 * real-time worker compose without skew.
 */

#ifndef RELAXFAULT_COMMON_HEARTBEAT_H
#define RELAXFAULT_COMMON_HEARTBEAT_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.h"

namespace relaxfault {

/**
 * Parent-side staleness tracker over the workers' beat counters.
 *
 * Progress is detected by *equality comparison* against the last
 * observed value — never by ordering — so a counter that wraps past
 * `UINT64_MAX` still registers as progress (any change is a beat; the
 * only blind spot is a counter that wraps exactly back to its previous
 * value between two polls, which cannot happen within a deadline). A
 * worker that never beats at all (zero-tick) is stale once the
 * deadline elapses from `arm()`, or from the first poll when its slot's
 * counter carries over from an earlier worker — staleness needs no
 * first beat to start the window.
 *
 * Deadlines are measured on the clock handed to the constructor — the
 * parent's own clock, per the no-shared-clock rule above — so tests
 * drive staleness with a `FakeClock` and no real waiting.
 */
class HeartbeatMonitor
{
  public:
    /**
     * Track @p slots workers against a @p deadlineMs staleness window
     * on @p clock. A zero deadline disables the watchdog (`stale` is
     * always false). The clock must outlive the monitor.
     */
    HeartbeatMonitor(Clock &clock, size_t slots, uint64_t deadlineMs)
        : clock_(&clock), deadlineMs_(deadlineMs), slots_(slots)
    {
        for (auto &slot : slots_)
            slot.windowStart = clock_->now();
    }

    /**
     * (Re)arm @p slot's staleness window: on (re)spawn, and after a
     * stale verdict was acted on — otherwise the kill would re-fire on
     * every poll until the reap lands.
     */
    void arm(size_t slot)
    {
        slots_[slot].lastBeat = 0;
        slots_[slot].windowStart = clock_->now();
    }

    /**
     * Feed @p slot's current beat counter; true when the counter has
     * not changed within the deadline. A change restarts the window.
     */
    bool stale(size_t slot, uint64_t beat)
    {
        Tracked &tracked = slots_[slot];
        if (beat != tracked.lastBeat) {
            tracked.lastBeat = beat;
            tracked.windowStart = clock_->now();
            return false;
        }
        if (deadlineMs_ == 0)
            return false;
        return clock_->elapsedMs(tracked.windowStart) >= deadlineMs_;
    }

  private:
    struct Tracked
    {
        uint64_t lastBeat = 0;
        Clock::TimePoint windowStart;
    };

    Clock *clock_;
    uint64_t deadlineMs_;
    std::vector<Tracked> slots_;
};

} // namespace relaxfault

#endif // RELAXFAULT_COMMON_HEARTBEAT_H
