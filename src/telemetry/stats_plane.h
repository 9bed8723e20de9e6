/**
 * @file
 * Live campaign stats: a fixed-layout shared-memory region any process
 * can observe while workers run.
 *
 * The plane is a `MAP_SHARED` mapping, file-backed for observers or
 * anonymous when only forked workers need it: a versioned header
 * followed by one cache-line-padded slot per worker. Writers (the
 * campaign workers, or the in-process trial engine) update their slot
 * in place; observers (`tools/fleet_top`, tests, a curious shell) map
 * the same file read-only and sample it at any rate. Nothing ever
 * blocks anything: monotone counters (trials started/completed,
 * heartbeat ticks) are plain relaxed atomics an observer can read
 * whole, and the multi-field descriptive block (phase, shard, rate,
 * RSS) is published under a per-slot seqlock — the writer bumps the
 * sequence word to odd, stores the fields, bumps it back to even; a
 * reader that sees an odd or changed sequence simply retries, so a torn
 * snapshot is impossible and a stalled *reader* costs the writer
 * nothing.
 *
 * In worker mode the plane is also the only memory the campaign shares
 * across `fork`: the header holds the shard-claim cursor, and the
 * worker supervisor reads each slot's phase, shard and heartbeat tick
 * (with plain acquire loads, never the seqlock) to run its watchdog
 * and to charge a crash to the shard its worker held.
 *
 * The plane never affects results: publishing consumes no RNG, and
 * which worker claims which shard changes nothing, because the merge
 * folds shards in global order (bit-identity is test- and
 * CI-enforced). The disabled path is a null `StatsPublisher *` and one
 * predictable branch per trial, pinned in the sub-ns class by
 * `micro_hotpaths`.
 */

#ifndef RELAXFAULT_TELEMETRY_STATS_PLANE_H
#define RELAXFAULT_TELEMETRY_STATS_PLANE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace relaxfault {

/** Lifecycle of one worker slot, published for observers. */
enum class StatsPhase : uint8_t
{
    Idle,        ///< Slot allocated, no shard in flight.
    Running,     ///< Trials of a shard in progress.
    Committing,  ///< Shard finished, checkpoint commit in flight.
    Merging,     ///< Parent folding worker shards (slot 0 only).
    Done,        ///< Worker exited cleanly.
    Stalled,     ///< Parent verdict: missed the watchdog deadline.
    Crashed,     ///< Parent verdict: died without a clean exit.
};

/** Canonical lowercase name of @p phase ("running", "stalled", ...). */
const char *statsPhaseName(StatsPhase phase);

/** One observer-side sample of a slot (a consistent snapshot). */
struct StatsSlotSample
{
    uint64_t pid = 0;
    StatsPhase phase = StatsPhase::Idle;
    uint64_t shard = 0;
    uint64_t trialsStarted = 0;
    uint64_t trialsCompleted = 0;
    double trialsPerSec = 0.0;   ///< EWMA over recent completions.
    uint64_t rssBytes = 0;       ///< Writer's peak RSS at last update.
    uint64_t heartbeatTick = 0;  ///< Monotone liveness counter.
    uint64_t armedFailpoints = 0;
    uint64_t updateEpochMs = 0;  ///< Wall clock of last seqlock publish.
};

class StatsPublisher;

/**
 * The supervisor's view of one slot: three single atomic loads, taken
 * without the seqlock (see `StatsPlane::lease`).
 */
struct StatsLease
{
    StatsPhase phase = StatsPhase::Idle;
    uint64_t shard = 0;          ///< Meaningful only while `held()`.
    uint64_t heartbeatTick = 0;  ///< Monotone liveness counter.

    /** True while the slot's worker holds a shard (Running/Committing). */
    bool held() const
    {
        return phase == StatsPhase::Running ||
               phase == StatsPhase::Committing;
    }
};

/**
 * The mapped region. `create` builds (or truncates) the backing file,
 * or maps anonymous memory, and is the writer side; `attach` maps an
 * existing plane read-only and is the observer side. The mapping is
 * inherited across fork, so a campaign parent creates the plane once
 * and every worker claims shards and publishes into its own slot
 * through the shared pages.
 */
class StatsPlane
{
  public:
    static constexpr uint64_t kMagic = 0x31534154'53465258ull; // "XRFSTATS1"
    /**
     * 2: slot 0 starts at a Slot-aligned offset, not right after the
     * header. 3: the header carries the shard-claim cursor.
     */
    static constexpr uint32_t kVersion = 3;
    static constexpr size_t kMaxSlots = 256;
    static constexpr size_t kCampaignBytes = 64;

    /**
     * Create a plane with @p slots worker slots backed by @p path
     * (created or truncated; fatal on I/O failure). An empty @p path
     * maps anonymous shared memory instead: forked children still share
     * it, but no observer can attach. @p campaign is a short label
     * observers display (truncated to fit the header).
     */
    static StatsPlane create(const std::string &path, size_t slots,
                             const std::string &campaign);

    /**
     * Map an existing plane read-only. Returns null and fills
     * @p error on a missing file, a foreign magic, a version or layout
     * mismatch — an observer must never misparse a stranger's bytes.
     */
    static std::unique_ptr<StatsPlane> attach(const std::string &path,
                                              std::string *error);

    ~StatsPlane();

    StatsPlane(StatsPlane &&other) noexcept;
    StatsPlane &operator=(StatsPlane &&other) noexcept;
    StatsPlane(const StatsPlane &) = delete;
    StatsPlane &operator=(const StatsPlane &) = delete;

    size_t slots() const;

    /** Campaign label stamped at creation. */
    std::string campaign() const;

    /** Pid of the creating (supervising) process. */
    uint64_t ownerPid() const;

    /** Wall-clock epoch ms when the plane was created. */
    uint64_t startEpochMs() const;

    /** Shards quarantined so far (parent-maintained, plane-global). */
    uint64_t quarantinedShards() const;

    /** Parent: count one quarantined shard (writer side only). */
    void noteQuarantine();

    /**
     * Observer: sample slot @p slot. Retries the seqlock, backing off
     * from pause to yield, until a consistent snapshot is read. Returns
     * false only if the sequence word stays unchanged for a second,
     * which only a crashed-mid-publish writer can cause.
     */
    bool readSlot(size_t slot, StatsSlotSample &out) const;

    /**
     * Writer handle for @p slot (valid while the plane lives; one
     * logical writer process per slot, any number of threads — counters
     * are atomic and the descriptive block is try-lock guarded).
     */
    StatsPublisher publisher(size_t slot);

    /** Parent: stamp a supervision verdict into a worker's slot. */
    void markPhase(size_t slot, StatsPhase phase);

    /**
     * Supervisor: slot @p slot's phase, shard and heartbeat tick, read
     * with plain acquire loads. Never goes through `readSlot`: a worker
     * SIGKILLed in the middle of a publish leaves the sequence word odd
     * for good. The worker stores the shard before the phase, so a
     * Running or Committing phase comes with its own shard.
     */
    StatsLease lease(size_t slot) const;

    /** Parent, while no worker is alive: rewind the shard-claim cursor. */
    void resetClaims();

    /**
     * Worker: claim the next index of a @p count-long pending list into
     * @p index; false once the cursor is past its end. One `fetch_add`
     * hands concurrent claimers in any process distinct indices, and
     * the bounds check keeps a cursor that anyone with write access to
     * a file-backed plane scribbled on from indexing past the list.
     * Evaluates the `shm.pop` failpoint once per call.
     */
    bool claim(uint64_t count, uint64_t &index);

  private:
    friend class StatsPublisher;

    struct Header
    {
        std::atomic<uint64_t> magic;
        std::atomic<uint32_t> version;
        std::atomic<uint32_t> slotCount;
        std::atomic<uint32_t> slotStride;
        std::atomic<uint32_t> reserved;
        std::atomic<uint64_t> ownerPid;
        std::atomic<uint64_t> startEpochMs;
        std::atomic<uint64_t> quarantinedShards;
        std::atomic<uint64_t> claimCursor;  ///< Next pending-list index.
        char campaign[kCampaignBytes];
    };

    struct alignas(128) Slot
    {
        std::atomic<uint64_t> seq;       ///< Seqlock word (even = stable).
        std::atomic<uint64_t> pid;
        std::atomic<uint64_t> phase;
        std::atomic<uint64_t> shard;
        std::atomic<uint64_t> trialsStarted;     ///< Monotone, no lock.
        std::atomic<uint64_t> trialsCompleted;   ///< Monotone, no lock.
        std::atomic<uint64_t> ewmaMilliTrialsPerSec;
        std::atomic<uint64_t> rssBytes;
        std::atomic<uint64_t> heartbeatTick;     ///< Monotone, no lock.
        std::atomic<uint64_t> armedFailpoints;
        std::atomic<uint64_t> updateEpochMs;
        // Writer-private scratch (never read by observers): the rate
        // try-lock and the (time, count) anchor of the EWMA fold. Lives
        // in the slot so the publisher handle stays a plain pointer and
        // every copy of it shares one rate state.
        std::atomic<uint64_t> rateLock;
        std::atomic<uint64_t> scratchLastNs;
        std::atomic<uint64_t> scratchLastCompleted;
        std::atomic<uint64_t> scratchEwmaBits;   ///< double bit-cast.
    };

    static_assert(std::atomic<uint64_t>::is_always_lock_free,
                  "stats plane requires lock-free 64-bit atomics");

    /** Byte offset of slot 0: the header rounded up to a slot boundary. */
    static constexpr size_t kSlotsOffset =
        (sizeof(Header) + alignof(Slot) - 1) / alignof(Slot) * alignof(Slot);

    StatsPlane(void *map, size_t bytes, bool writable);

    Header *header() const;
    Slot *slot(size_t index) const;

    void *map_ = nullptr;
    size_t bytes_ = 0;
    bool writable_ = false;
};

/**
 * Writer handle bound to one slot. Trial loops call `trialStarted` /
 * `trialFinished` (atomic adds plus an occasional try-locked
 * rate/RSS publish); the worker main loop frames shards with
 * `beginShard` / `endShard`. The null-pointer form of every caller is
 * the disabled path.
 */
class StatsPublisher
{
  public:
    StatsPublisher() = default;

    /** Stamp pid / armed-failpoint count; call once per process. */
    void announce(StatsPhase phase);

    /** Frame a shard: phase Running, shard id, heartbeat tick. */
    void beginShard(uint64_t shard);

    /** Shard committed: phase back to Idle, heartbeat tick. */
    void endShard();

    /** Phase-only update under the seqlock (e.g. Committing, Done). */
    void setPhase(StatsPhase phase);

    /** Trial dispatched (one relaxed fetch_add). */
    void trialStarted()
    {
        if (slot_ == nullptr)
            return;
        slot_->trialsStarted.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Trial finished: counters always, and — when the try-lock is free
     * — a seqlocked publish of the EWMA rate, peak RSS, and update
     * timestamp. Threads that lose the try-lock skip the publish; the
     * counters never lose an increment.
     */
    void trialFinished()
    {
        if (slot_ == nullptr)
            return;
        // Release: an observer that sees this count sees the start too.
        slot_->trialsCompleted.fetch_add(1, std::memory_order_release);
        slot_->heartbeatTick.fetch_add(1, std::memory_order_relaxed);
        maybePublishRate();
    }

    bool enabled() const { return slot_ != nullptr; }

  private:
    friend class StatsPlane;

    explicit StatsPublisher(StatsPlane::Slot *slot) : slot_(slot) {}

    void maybePublishRate();

    StatsPlane::Slot *slot_ = nullptr;
};

} // namespace relaxfault

#endif // RELAXFAULT_TELEMETRY_STATS_PLANE_H
