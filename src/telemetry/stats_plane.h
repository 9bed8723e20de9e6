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
 * blocks anything: every slot field is one atomic word, written with a
 * plain store or add and read with a plain load (`readSlot`), so a
 * reader can never find a slot unreadable — not even one whose writer
 * was SIGKILLed halfway through an update. A sample is exact word by
 * word, not across words; the two orderings that matter are release /
 * acquire pairs: the shard is stored before the Running phase, and a
 * trial's start is counted before its completion.
 *
 * In worker mode the plane is also the only memory the campaign shares
 * across `fork`: the header holds the shard-claim cursor, and the
 * worker supervisor reads each slot's phase, shard and heartbeat tick
 * to run its watchdog and to charge a crash to the shard its worker
 * held. The supervisor is the slot's second writer: it stamps
 * verdicts (Stalled, Crashed, Merging) into the phase word.
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

/** One sample of a slot: each field one word, loaded once. */
struct StatsSlotSample
{
    uint64_t pid = 0;
    StatsPhase phase = StatsPhase::Idle;
    uint64_t shard = 0;          ///< Meaningful only while `held()`.
    uint64_t trialsStarted = 0;
    uint64_t trialsCompleted = 0;
    uint64_t heartbeatTick = 0;  ///< Monotone liveness counter.
    uint64_t rssBytes = 0;       ///< Writer's peak RSS at a shard edge.
    uint64_t armedFailpoints = 0;
    uint64_t updateEpochMs = 0;  ///< Last finished trial or phase change.

    /** True while the slot's worker holds a shard (Running/Committing). */
    bool held() const
    {
        return phase == StatsPhase::Running ||
               phase == StatsPhase::Committing;
    }
};

class StatsPublisher;

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
     * header. 3: the header carries the shard-claim cursor. 4: a slot
     * is nine plain words, with no sequence word and no rate.
     */
    static constexpr uint32_t kVersion = 4;
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
     * Sample slot @p slot (panics if out of range): every word loaded
     * once, so it cannot fail or wait. The phase is loaded with acquire
     * before the shard, so a Running or Committing phase comes with its
     * own shard; completed is loaded with acquire before started, so a
     * sample never shows more trials completed than started. Observers
     * and the supervisor read slots through this one call.
     */
    StatsSlotSample readSlot(size_t slot) const;

    /**
     * Writer handle for @p slot (valid while the plane lives; one
     * logical writer process per slot, any number of threads — every
     * field is one atomic word).
     */
    StatsPublisher publisher(size_t slot);

    /** Parent: stamp a supervision verdict into a worker's slot. */
    void markPhase(size_t slot, StatsPhase phase);

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
        std::atomic<uint64_t> pid;
        std::atomic<uint64_t> phase;
        std::atomic<uint64_t> shard;
        std::atomic<uint64_t> trialsStarted;     ///< Monotone.
        std::atomic<uint64_t> trialsCompleted;   ///< Monotone.
        std::atomic<uint64_t> heartbeatTick;     ///< Monotone.
        std::atomic<uint64_t> rssBytes;
        std::atomic<uint64_t> armedFailpoints;
        std::atomic<uint64_t> updateEpochMs;
    };

    static_assert(std::atomic<uint64_t>::is_always_lock_free,
                  "stats plane requires lock-free 64-bit atomics");

    /** Byte offset of slot 0: the header rounded up to a slot boundary. */
    static constexpr size_t kSlotsOffset =
        (sizeof(Header) + alignof(Slot) - 1) / alignof(Slot) * alignof(Slot);

    /** Store @p phase (release) and the update timestamp of @p slot. */
    static void storePhase(Slot &slot, StatsPhase phase);

    StatsPlane(void *map, size_t bytes, bool writable);

    Header *header() const;
    Slot *slot(size_t index) const;

    void *map_ = nullptr;
    size_t bytes_ = 0;
    bool writable_ = false;
};

/**
 * Writer handle bound to one slot. Trial loops call `trialStarted` /
 * `trialFinished` (atomic adds and a timestamp store); the worker main
 * loop frames shards with `beginShard` / `endShard`. The null-pointer
 * form of every caller is the disabled path.
 */
class StatsPublisher
{
  public:
    StatsPublisher() = default;

    /** Stamp pid, armed-failpoint count, RSS and @p phase; once per process. */
    void announce(StatsPhase phase);

    /** Frame a shard: heartbeat tick, shard id, RSS, then phase Running. */
    void beginShard(uint64_t shard);

    /** Shard committed: heartbeat tick, RSS, phase back to Idle. */
    void endShard();

    /** Phase-only update (e.g. Committing, Done). */
    void setPhase(StatsPhase phase);

    /** Trial dispatched (one relaxed fetch_add). */
    void trialStarted()
    {
        if (slot_ == nullptr)
            return;
        slot_->trialsStarted.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Trial finished: completed count and heartbeat tick, then the
     * update timestamp — so a slot's publish age is the time since its
     * last finished trial or phase change.
     */
    void trialFinished()
    {
        if (slot_ == nullptr)
            return;
        // Release: an observer that sees this count sees the start too.
        slot_->trialsCompleted.fetch_add(1, std::memory_order_release);
        slot_->heartbeatTick.fetch_add(1, std::memory_order_relaxed);
        stampUpdate();
    }

    bool enabled() const { return slot_ != nullptr; }

  private:
    friend class StatsPlane;

    explicit StatsPublisher(StatsPlane::Slot *slot) : slot_(slot) {}

    /** Store the wall clock into `updateEpochMs`. */
    void stampUpdate();

    /** Store the writer's peak RSS into `rssBytes`. */
    void stampRss();

    StatsPlane::Slot *slot_ = nullptr;
};

} // namespace relaxfault

#endif // RELAXFAULT_TELEMETRY_STATS_PLANE_H
