#include "telemetry/stats_plane.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/failpoint.h"
#include "common/log.h"
#include "common/process.h"
#include "telemetry/run_record.h"

namespace relaxfault {

namespace {

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** EWMA weight of each new rate observation. */
constexpr double kRateAlpha = 0.3;

/** Minimum spacing between rate publishes (keeps /proc reads rare). */
constexpr uint64_t kRatePublishNs = 250'000'000;  // 250 ms.

/** Seqlock read retries that only pause before readSlot yields. */
constexpr unsigned kSlotReadSpins = 64;

/**
 * How long readSlot waits on a sequence word that does not move before
 * it reports the slot unreadable. A live writer, even a preempted one,
 * moves it sooner; one that died mid-publish never does.
 */
constexpr uint64_t kSlotStuckNs = 1'000'000'000;  // 1 s.

/** Spin-wait hint to the core. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#else
    std::this_thread::yield();
#endif
}

} // namespace

const char *
statsPhaseName(StatsPhase phase)
{
    switch (phase) {
      case StatsPhase::Idle:       return "idle";
      case StatsPhase::Running:    return "running";
      case StatsPhase::Committing: return "committing";
      case StatsPhase::Merging:    return "merging";
      case StatsPhase::Done:       return "done";
      case StatsPhase::Stalled:    return "stalled";
      case StatsPhase::Crashed:    return "crashed";
    }
    return "unknown";
}

StatsPlane::StatsPlane(void *map, size_t bytes, bool writable)
    : map_(map), bytes_(bytes), writable_(writable)
{
}

StatsPlane::~StatsPlane()
{
    if (map_ != nullptr)
        munmap(map_, bytes_);
}

StatsPlane::StatsPlane(StatsPlane &&other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      writable_(other.writable_)
{
}

StatsPlane &
StatsPlane::operator=(StatsPlane &&other) noexcept
{
    if (this != &other) {
        if (map_ != nullptr)
            munmap(map_, bytes_);
        map_ = std::exchange(other.map_, nullptr);
        bytes_ = std::exchange(other.bytes_, 0);
        writable_ = other.writable_;
    }
    return *this;
}

StatsPlane::Header *
StatsPlane::header() const
{
    return static_cast<Header *>(map_);
}

StatsPlane::Slot *
StatsPlane::slot(size_t index) const
{
    auto *base = static_cast<unsigned char *>(map_) + kSlotsOffset;
    return reinterpret_cast<Slot *>(base + index * sizeof(Slot));
}

StatsPlane
StatsPlane::create(const std::string &path, size_t slots,
                   const std::string &campaign)
{
    if (slots == 0)
        slots = 1;
    if (slots > kMaxSlots)
        fatal("stats plane: " + std::to_string(slots) +
              " slots exceeds the cap of " + std::to_string(kMaxSlots));
    const size_t bytes = kSlotsOffset + slots * sizeof(Slot);

    int fd = -1;
    if (!path.empty()) {
        fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
        if (fd < 0)
            fatal("stats plane: cannot create " + path + ": " +
                  std::strerror(errno));
        if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
            const int err = errno;
            ::close(fd);
            fatal("stats plane: cannot size " + path + ": " +
                  std::strerror(err));
        }
    }
    void *map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     fd < 0 ? MAP_SHARED | MAP_ANONYMOUS : MAP_SHARED,
                     fd, 0);
    if (fd >= 0)
        ::close(fd);
    if (map == MAP_FAILED)
        fatal("stats plane: mmap of " +
              (path.empty() ? std::string("anonymous memory") : path) +
              " failed: " + std::strerror(errno));

    StatsPlane plane(map, bytes, /*writable=*/true);
    Header *header = new (plane.header()) Header;
    for (size_t i = 0; i < slots; ++i)
        new (plane.slot(i)) Slot;

    // Publish the header LAST: an observer that raced the create sees a
    // zero magic and reports "not a stats plane", never garbage slots.
    std::memset(header->campaign, 0, kCampaignBytes);
    std::strncpy(header->campaign, campaign.c_str(), kCampaignBytes - 1);
    header->version.store(kVersion, std::memory_order_relaxed);
    header->slotCount.store(static_cast<uint32_t>(slots),
                            std::memory_order_relaxed);
    header->slotStride.store(sizeof(Slot), std::memory_order_relaxed);
    header->ownerPid.store(static_cast<uint64_t>(::getpid()),
                           std::memory_order_relaxed);
    header->startEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
    header->quarantinedShards.store(0, std::memory_order_relaxed);
    header->claimCursor.store(0, std::memory_order_relaxed);
    header->magic.store(kMagic, std::memory_order_release);
    return plane;
}

std::unique_ptr<StatsPlane>
StatsPlane::attach(const std::string &path, std::string *error)
{
    const auto fail = [&](const std::string &message) {
        if (error != nullptr)
            *error = message;
        return nullptr;
    };

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open " + path + ": " + std::strerror(errno));
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const int err = errno;
        ::close(fd);
        return fail("cannot stat " + path + ": " + std::strerror(err));
    }
    const size_t bytes = static_cast<size_t>(st.st_size);
    if (bytes < sizeof(Header)) {
        ::close(fd);
        return fail(path + " is too small to be a stats plane");
    }
    void *map = mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED)
        return fail("mmap of " + path + " failed: " +
                    std::strerror(errno));

    auto plane = std::unique_ptr<StatsPlane>(
        new StatsPlane(map, bytes, /*writable=*/false));
    const Header *header = plane->header();
    if (header->magic.load(std::memory_order_acquire) != kMagic)
        return fail(path + " is not a relaxfault stats plane "
                           "(bad magic)");
    if (header->version.load(std::memory_order_relaxed) != kVersion)
        return fail(path + ": unsupported stats plane version " +
                    std::to_string(
                        header->version.load(std::memory_order_relaxed)));
    if (header->slotStride.load(std::memory_order_relaxed) !=
        sizeof(Slot))
        return fail(path + ": slot stride mismatch (layout drift)");
    const uint32_t slots =
        header->slotCount.load(std::memory_order_relaxed);
    if (slots == 0 || slots > kMaxSlots ||
        bytes < kSlotsOffset + slots * sizeof(Slot))
        return fail(path + ": slot count inconsistent with file size");
    return plane;
}

size_t
StatsPlane::slots() const
{
    return header()->slotCount.load(std::memory_order_relaxed);
}

std::string
StatsPlane::campaign() const
{
    const Header *h = header();
    return std::string(h->campaign,
                       strnlen(h->campaign, kCampaignBytes));
}

uint64_t
StatsPlane::ownerPid() const
{
    return header()->ownerPid.load(std::memory_order_relaxed);
}

uint64_t
StatsPlane::startEpochMs() const
{
    return header()->startEpochMs.load(std::memory_order_relaxed);
}

uint64_t
StatsPlane::quarantinedShards() const
{
    return header()->quarantinedShards.load(std::memory_order_relaxed);
}

void
StatsPlane::noteQuarantine()
{
    header()->quarantinedShards.fetch_add(1, std::memory_order_relaxed);
}

bool
StatsPlane::readSlot(size_t index, StatsSlotSample &out) const
{
    if (index >= slots())
        return false;
    const Slot *s = slot(index);
    // One seqlock attempt at the descriptive block: false if the writer
    // held or moved the sequence word meanwhile.
    const auto try_read = [s, &out](uint64_t seq1) {
        if ((seq1 & 1) != 0)
            return false;
        out.pid = s->pid.load(std::memory_order_relaxed);
        out.phase = static_cast<StatsPhase>(
            s->phase.load(std::memory_order_relaxed));
        out.shard = s->shard.load(std::memory_order_relaxed);
        out.trialsPerSec =
            static_cast<double>(s->ewmaMilliTrialsPerSec.load(
                std::memory_order_relaxed)) *
            1e-3;
        out.rssBytes = s->rssBytes.load(std::memory_order_relaxed);
        out.armedFailpoints =
            s->armedFailpoints.load(std::memory_order_relaxed);
        out.updateEpochMs =
            s->updateEpochMs.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        return s->seq.load(std::memory_order_relaxed) == seq1;
    };
    // Retry with a pause, then by yielding so a writer preempted
    // mid-publish can finish. Give up only once the sequence word has
    // not moved for kSlotStuckNs: a live writer keeps moving it.
    unsigned spins = 0;
    uint64_t last_seq = 0;
    uint64_t stuck_since_ns = 0;
    for (uint64_t seq1 = s->seq.load(std::memory_order_acquire);
         !try_read(seq1); seq1 = s->seq.load(std::memory_order_acquire)) {
        if (spins < kSlotReadSpins) {
            ++spins;
            cpuRelax();
            continue;
        }
        const uint64_t now_ns = steadyNowNs();
        if (stuck_since_ns == 0 || seq1 != last_seq) {
            last_seq = seq1;
            stuck_since_ns = now_ns;
        } else if (now_ns - stuck_since_ns > kSlotStuckNs) {
            return false;
        }
        std::this_thread::yield();
    }
    // The monotone counters are single atomics — read outside the
    // seqlock, they are exact at some instant during the call.
    // Completed first, with acquire (it pairs with the release add in
    // trialFinished): every trial it counts has its start visible, so
    // the sample never shows more completed than started.
    out.trialsCompleted =
        s->trialsCompleted.load(std::memory_order_acquire);
    out.trialsStarted = s->trialsStarted.load(std::memory_order_relaxed);
    out.heartbeatTick = s->heartbeatTick.load(std::memory_order_relaxed);
    return true;
}

StatsPublisher
StatsPlane::publisher(size_t index)
{
    if (!writable_)
        panic("stats plane: publisher() on a read-only attachment");
    if (index >= slots())
        panic("stats plane: publisher slot out of range");
    return StatsPublisher(slot(index));
}

namespace {

/** Seqlock write frame: odd on entry, even (new value) on exit. */
class SeqWrite
{
  public:
    explicit SeqWrite(std::atomic<uint64_t> &seq) : seq_(seq)
    {
        seq_.fetch_add(1, std::memory_order_acq_rel);
    }

    ~SeqWrite() { seq_.fetch_add(1, std::memory_order_release); }

  private:
    std::atomic<uint64_t> &seq_;
};

} // namespace

void
StatsPlane::markPhase(size_t index, StatsPhase phase)
{
    if (!writable_ || index >= slots())
        return;
    Slot *s = slot(index);
    SeqWrite frame(s->seq);
    s->phase.store(static_cast<uint64_t>(phase),
                   std::memory_order_relaxed);
    s->updateEpochMs.store(runTimestampMs(), std::memory_order_relaxed);
}

StatsLease
StatsPlane::lease(size_t index) const
{
    StatsLease out;
    if (index >= slots())
        return out;
    const Slot *s = slot(index);
    out.heartbeatTick = s->heartbeatTick.load(std::memory_order_acquire);
    out.phase = static_cast<StatsPhase>(
        s->phase.load(std::memory_order_acquire));
    out.shard = s->shard.load(std::memory_order_relaxed);
    return out;
}

void
StatsPlane::resetClaims()
{
    header()->claimCursor.store(0, std::memory_order_release);
}

bool
StatsPlane::claim(uint64_t count, uint64_t &index)
{
    // `shm.pop` delay site: stretches the window between two claims, to
    // exercise lease-timeout races in the worker supervisor.
    failpoint::eval(FailpointSite::ShmPop);
    index = header()->claimCursor.fetch_add(1, std::memory_order_acq_rel);
    return index < count;
}

void
StatsPublisher::announce(StatsPhase phase)
{
    if (slot_ == nullptr)
        return;
    SeqWrite frame(slot_->seq);
    slot_->pid.store(static_cast<uint64_t>(::getpid()),
                     std::memory_order_relaxed);
    slot_->phase.store(static_cast<uint64_t>(phase),
                       std::memory_order_relaxed);
    slot_->armedFailpoints.store(failpoint::armedCount(),
                                 std::memory_order_relaxed);
    slot_->rssBytes.store(static_cast<uint64_t>(peakRssBytes()),
                          std::memory_order_relaxed);
    slot_->updateEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
}

void
StatsPublisher::beginShard(uint64_t shard)
{
    if (slot_ == nullptr)
        return;
    slot_->heartbeatTick.fetch_add(1, std::memory_order_relaxed);
    SeqWrite frame(slot_->seq);
    slot_->shard.store(shard, std::memory_order_relaxed);
    // Release: a supervisor that sees Running (`lease`) sees this shard.
    slot_->phase.store(static_cast<uint64_t>(StatsPhase::Running),
                       std::memory_order_release);
    slot_->updateEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
}

void
StatsPublisher::endShard()
{
    if (slot_ == nullptr)
        return;
    slot_->heartbeatTick.fetch_add(1, std::memory_order_relaxed);
    SeqWrite frame(slot_->seq);
    slot_->phase.store(static_cast<uint64_t>(StatsPhase::Idle),
                       std::memory_order_relaxed);
    slot_->rssBytes.store(static_cast<uint64_t>(peakRssBytes()),
                          std::memory_order_relaxed);
    slot_->updateEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
}

void
StatsPublisher::setPhase(StatsPhase phase)
{
    if (slot_ == nullptr)
        return;
    SeqWrite frame(slot_->seq);
    slot_->phase.store(static_cast<uint64_t>(phase),
                       std::memory_order_relaxed);
    slot_->updateEpochMs.store(runTimestampMs(),
                               std::memory_order_relaxed);
}

void
StatsPublisher::maybePublishRate()
{
    // Try-lock: concurrent trial threads never wait here — losers just
    // skip this publish; the counters already carry their increment.
    uint64_t expected = 0;
    if (!slot_->rateLock.compare_exchange_strong(
            expected, 1, std::memory_order_acquire,
            std::memory_order_relaxed))
        return;

    const uint64_t now_ns = steadyNowNs();
    const uint64_t last_ns =
        slot_->scratchLastNs.load(std::memory_order_relaxed);
    if (last_ns != 0 && now_ns - last_ns < kRatePublishNs) {
        slot_->rateLock.store(0, std::memory_order_release);
        return;
    }
    const uint64_t completed =
        slot_->trialsCompleted.load(std::memory_order_relaxed);
    const uint64_t last_completed =
        slot_->scratchLastCompleted.load(std::memory_order_relaxed);

    double ewma =
        std::bit_cast<double>(slot_->scratchEwmaBits.load(
            std::memory_order_relaxed));
    if (last_ns != 0 && now_ns > last_ns) {
        const double instant =
            static_cast<double>(completed - last_completed) /
            (static_cast<double>(now_ns - last_ns) * 1e-9);
        ewma = ewma == 0.0
            ? instant
            : kRateAlpha * instant + (1.0 - kRateAlpha) * ewma;
    }
    slot_->scratchLastNs.store(now_ns, std::memory_order_relaxed);
    slot_->scratchLastCompleted.store(completed,
                                      std::memory_order_relaxed);
    slot_->scratchEwmaBits.store(std::bit_cast<uint64_t>(ewma),
                                 std::memory_order_relaxed);

    {
        SeqWrite frame(slot_->seq);
        slot_->ewmaMilliTrialsPerSec.store(
            static_cast<uint64_t>(ewma * 1e3),
            std::memory_order_relaxed);
        slot_->rssBytes.store(static_cast<uint64_t>(peakRssBytes()),
                              std::memory_order_relaxed);
        slot_->updateEpochMs.store(runTimestampMs(),
                                   std::memory_order_relaxed);
    }
    slot_->rateLock.store(0, std::memory_order_release);
}

} // namespace relaxfault
