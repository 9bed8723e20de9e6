/**
 * @file
 * Deterministic failpoint injection for robustness testing.
 *
 * A failpoint is a named site in a recovery-critical code path (an fs
 * syscall wrapper, the checkpoint publish loop, the shard-ring pop)
 * where a fault can be injected on demand: an errno-carrying error, a
 * short write, a torn rename, a delay, or a hard abort. Sites are
 * compiled in permanently; when nothing is armed the per-site cost is
 * one relaxed atomic load and a predictable branch (pinned by
 * `micro_hotpaths`), so production binaries keep the sites forever.
 *
 * Schedules are deterministic: `nth=N` fires on exactly the Nth
 * evaluation of the site (1-based, per process), `every=K` fires on
 * every Kth, and `p=P/SEED` decides each call independently from
 * `Rng::forkAt(SEED, call_index)` — the same seed always yields the
 * same firing pattern, so a chaos run that found a bug replays exactly.
 *
 * Arming is programmatic (`failpoint::arm`) or environmental:
 *
 *   RELAXFAULT_FAILPOINTS=site:effect[@schedule][,site:effect...]
 *
 *     effect:   error | error=ENOSPC | short | torn | delay=MS | abort
 *     schedule: always (default) | nth=N | every=K | p=P | p=P/SEED
 *
 *   RELAXFAULT_FAILPOINTS=fs.write:error=ENOSPC@nth=2,shm.pop:delay=5@p=0.1
 *
 * The env spec is resolved at process startup (like RELAXFAULT_SIMD):
 * a typo'd site name or malformed spec kills any binary immediately,
 * listing the known sites, instead of silently running fault-free.
 *
 * Forked children inherit the armed table by copy-on-write, so arming
 * failpoints in a campaign parent injects into every worker it spawns;
 * call counters restart per process, which keeps worker schedules
 * deterministic regardless of fork order.
 */

#ifndef RELAXFAULT_COMMON_FAILPOINT_H
#define RELAXFAULT_COMMON_FAILPOINT_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace relaxfault {

class Clock;

/** What an armed failpoint does when its schedule fires. */
enum class FailpointEffect : uint8_t
{
    None,        ///< Not fired (the value of a quiet evaluation).
    Error,       ///< Report failure with `errnum`, without the syscall.
    ShortWrite,  ///< Truncate one write request (may truncate to zero).
    TornRename,  ///< Fail the rename and leave the tmp file behind.
    Delay,       ///< Sleep `delayMs` on the registry clock, then proceed.
    Abort,       ///< Raise SIGKILL: a power cut at the worst moment.
};

/** When an armed failpoint fires. */
enum class FailpointSchedule : uint8_t
{
    Always,    ///< Every evaluation.
    Nth,       ///< Exactly evaluation #n (1-based), once.
    EveryKth,  ///< Evaluations k, 2k, 3k, ...
    Prob,      ///< Each evaluation independently with `probability`.
};

/** Armed configuration of one site. */
struct FailpointSpec
{
    FailpointEffect effect = FailpointEffect::None;
    FailpointSchedule schedule = FailpointSchedule::Always;
    uint64_t n = 0;            ///< Nth / EveryKth parameter.
    double probability = 0.0;  ///< Prob parameter in [0, 1].
    uint64_t seed = 0;         ///< Prob decision stream seed.
    int errnum = 0;            ///< Error effect errno (default EIO).
    uint64_t delayMs = 0;      ///< Delay effect duration.
};

/**
 * Outcome of evaluating a site. Delay and Abort are applied inside the
 * evaluation itself (the site sleeps or dies there), so instrumented
 * code only ever observes None, Error, ShortWrite, or TornRename.
 */
struct FailpointHit
{
    FailpointEffect effect = FailpointEffect::None;
    int errnum = 0;

    explicit operator bool() const
    {
        return effect != FailpointEffect::None;
    }
};

/**
 * The known sites. Adding one: extend this enum (before kCount), the
 * name table in failpoint.cc, and the effect-compatibility check.
 */
enum class FailpointSite : unsigned
{
    FsOpen,       ///< `fs.open` — tmp-file creation in atomicWriteFile.
    FsWrite,      ///< `fs.write` — each write(2) of the payload loop.
    FsFsync,      ///< `fs.fsync` — file fsync before the rename.
    FsRename,     ///< `fs.rename` — the atomic publish rename.
    FsClose,      ///< `fs.close` — the close after fsync.
    CkptPublish,  ///< `ckpt.publish` — once per checkpoint publish.
    ShmPop,       ///< `shm.pop` — every worker shard claim (delay races).
    FleetPop,     ///< `fleet.pop` — after a worker takes a shard lease.
    kCount,
};

namespace failpoint {

namespace detail {
/** Number of armed sites; nonzero switches sites to the slow path. */
extern std::atomic<unsigned> g_armed_sites;

/** Full evaluation of an armed table (call only when anyArmed()). */
FailpointHit evalArmed(FailpointSite site);
} // namespace detail

/** True if any site is armed (one relaxed load). */
inline bool
anyArmed()
{
    return detail::g_armed_sites.load(std::memory_order_relaxed) != 0;
}

/** Number of armed sites (one relaxed load; observability surface). */
inline uint64_t
armedCount()
{
    return detail::g_armed_sites.load(std::memory_order_relaxed);
}

/**
 * Evaluate @p site: the entire disabled-path cost is the `anyArmed`
 * load and branch. Delay sleeps and Abort kills in here; Error /
 * ShortWrite / TornRename come back in the hit for the caller to apply.
 */
inline FailpointHit
eval(FailpointSite site)
{
    if (!anyArmed())
        return FailpointHit{};
    return detail::evalArmed(site);
}

/**
 * Arm @p site with @p spec. Fatal if the effect is incompatible with
 * the site (e.g. `short` anywhere but fs.write, `torn` anywhere but
 * fs.rename) — an impossible injection must die loudly, not silently
 * never fire. Re-arming replaces the previous spec and resets counters.
 */
void arm(FailpointSite site, const FailpointSpec &spec);

/** Disarm @p site (quiet if it was not armed). */
void disarm(FailpointSite site);

/** Disarm every site and reset all counters (test teardown). */
void disarmAll();

/** Evaluations of @p site since it was last armed. */
uint64_t evalCount(FailpointSite site);

/** Fires of @p site since it was last armed. */
uint64_t fireCount(FailpointSite site);

/**
 * Parse one `effect[@schedule]` spec. Fatal on malformed input with a
 * message naming the grammar — same fail-fast contract as the CLI
 * parser and RELAXFAULT_SIMD.
 */
FailpointSpec parseSpec(const std::string &text);

/**
 * Apply a full `site:spec,site:spec` list (the RELAXFAULT_FAILPOINTS
 * grammar). Fatal on an unknown site name, listing every known site.
 */
void applySpecList(const std::string &list);

/**
 * Clock used by the Delay effect (and by nothing else). Null restores
 * the process-wide real clock. Tests inject a FakeClock so delays are
 * recorded instead of slept.
 */
void setClock(Clock *clock);

/** Canonical name of @p site (e.g. "fs.write"). */
const char *siteName(FailpointSite site);

/** Site by name; fatal with the known-site list if unknown. */
FailpointSite siteByName(const std::string &name);

/** Names of all known sites, in enum order. */
std::vector<std::string> knownSites();

/**
 * One-line description of every armed site ("fs.write:error=ENOSPC
 * @nth=2"), for chaos-run diagnostics; empty when nothing is armed.
 */
std::string describeArmed();

} // namespace failpoint

} // namespace relaxfault

#endif // RELAXFAULT_COMMON_FAILPOINT_H
