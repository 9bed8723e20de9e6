#include "telemetry/stats_plane.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>
#include <utility>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/process.h"
#include "telemetry/run_record.h"

namespace relaxfault {

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
    // Bounded by the mapping: a header word rewritten after the plane
    // was mapped must never send a reader past its end.
    return std::min<size_t>(
        header()->slotCount.load(std::memory_order_relaxed),
        (bytes_ - kSlotsOffset) / sizeof(Slot));
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

StatsSlotSample
StatsPlane::readSlot(size_t index) const
{
    if (index >= slots())
        panic("stats plane: readSlot slot out of range");
    const Slot *s = slot(index);
    StatsSlotSample out;
    out.pid = s->pid.load(std::memory_order_relaxed);
    // Acquire pairs with the release store in beginShard: a Running
    // phase comes with the shard stored before it.
    out.phase = static_cast<StatsPhase>(
        s->phase.load(std::memory_order_acquire));
    out.shard = s->shard.load(std::memory_order_relaxed);
    // Completed first, with acquire (it pairs with the release add in
    // trialFinished): every trial it counts has its start visible, so
    // the sample never shows more completed than started.
    out.trialsCompleted =
        s->trialsCompleted.load(std::memory_order_acquire);
    out.trialsStarted = s->trialsStarted.load(std::memory_order_relaxed);
    out.heartbeatTick = s->heartbeatTick.load(std::memory_order_relaxed);
    out.rssBytes = s->rssBytes.load(std::memory_order_relaxed);
    out.armedFailpoints =
        s->armedFailpoints.load(std::memory_order_relaxed);
    out.updateEpochMs = s->updateEpochMs.load(std::memory_order_relaxed);
    return out;
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

void
StatsPlane::storePhase(Slot &slot, StatsPhase phase)
{
    slot.phase.store(static_cast<uint64_t>(phase),
                     std::memory_order_release);
    slot.updateEpochMs.store(runTimestampMs(), std::memory_order_relaxed);
}

void
StatsPlane::markPhase(size_t index, StatsPhase phase)
{
    if (!writable_ || index >= slots())
        return;
    storePhase(*slot(index), phase);
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
    slot_->pid.store(static_cast<uint64_t>(::getpid()),
                     std::memory_order_relaxed);
    slot_->armedFailpoints.store(failpoint::armedCount(),
                                 std::memory_order_relaxed);
    stampRss();
    StatsPlane::storePhase(*slot_, phase);
}

void
StatsPublisher::beginShard(uint64_t shard)
{
    if (slot_ == nullptr)
        return;
    slot_->heartbeatTick.fetch_add(1, std::memory_order_relaxed);
    slot_->shard.store(shard, std::memory_order_relaxed);
    stampRss();
    // After the shard: a reader that sees Running sees this shard.
    StatsPlane::storePhase(*slot_, StatsPhase::Running);
}

void
StatsPublisher::endShard()
{
    if (slot_ == nullptr)
        return;
    slot_->heartbeatTick.fetch_add(1, std::memory_order_relaxed);
    stampRss();
    StatsPlane::storePhase(*slot_, StatsPhase::Idle);
}

void
StatsPublisher::setPhase(StatsPhase phase)
{
    if (slot_ == nullptr)
        return;
    StatsPlane::storePhase(*slot_, phase);
}

void
StatsPublisher::stampUpdate()
{
    slot_->updateEpochMs.store(runTimestampMs(), std::memory_order_relaxed);
}

void
StatsPublisher::stampRss()
{
    slot_->rssBytes.store(static_cast<uint64_t>(peakRssBytes()),
                          std::memory_order_relaxed);
}

} // namespace relaxfault
