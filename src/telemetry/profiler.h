/**
 * @file
 * SIGPROF sampling profiler over a phase stack.
 *
 * The simulator's CPU time is dominated by a handful of well-known
 * phases (trial setup, node sampling, node simulation, repair
 * attempts, ECC decode, scrubbing, checkpoint commits). Instead of
 * unwinding native stacks — which needs frame pointers, libunwind, and
 * luck — the hot layers mark those phases with RAII `PhaseScope`
 * guards, maintaining a per-thread position in a small interned tree of
 * phase paths. A `SIGPROF` handler driven by `ITIMER_PROF` (CPU time,
 * so idle waits are never charged) attributes each sample to the
 * current tree node with one lock-free `fetch_add` — the only thing
 * the handler does, which is what makes it async-signal-safe.
 *
 * Signal-safety rules (DESIGN.md §15): the handler reads one
 * thread-local lock-free atomic and increments two global lock-free
 * atomics; it takes no locks, allocates nothing, and calls no library
 * functions. Phase interning (the only locked operation) happens in
 * normal code, never in the handler. The handler is installed with
 * `SA_RESTART` so interrupted syscalls resume instead of surfacing
 * spurious EINTR to the fs layer.
 *
 * Determinism: sampling reads simulator state through nothing — it
 * cannot perturb a verdict, consume RNG, or reorder trials. Enabling
 * the profiler leaves every result bit-identical (CI-gated on fig12
 * `--json`). A `PhaseScope` with the profiler disarmed and no other
 * sink costs one relaxed load and a predictable branch (pinned by
 * `micro_hotpaths`).
 *
 * Output: `flamegraph.pl`-compatible folded stacks
 * (`relaxfault;trial;node_sim 1234` per line) plus a self-time-per-
 * phase table (samples are leaf-attributed, so a node's count IS its
 * self time).
 */

#ifndef RELAXFAULT_TELEMETRY_PROFILER_H
#define RELAXFAULT_TELEMETRY_PROFILER_H

#include <atomic>
#include <cstdint>
#include <string>

namespace relaxfault {

/**
 * The one phase taxonomy, shared by every phase instrument: profiler
 * frames, trace Span events and latency histograms (`PhaseScope`). The
 * first four are also trace Span subkinds — their values are the
 * exported `sub` field, so they never move; the rest are profiler-only.
 */
enum class Phase : uint8_t
{
    Trial,          ///< One whole system-lifetime trial (either engine).
    ScrubPass,      ///< One FaultScrubber::scrub region walk.
    InferPass,      ///< One FaultScrubber::inferAndRepair pass.
    RepairAttempt,  ///< One RepairMechanism::tracedRepair call.
    NodeSample,     ///< Drawing a node's fault history.
    NodeSim,        ///< Full per-node pipeline (classify/repair/replace).
    EccDecode,      ///< ECC decode of a cache line.
    Commit,         ///< Checkpoint shard commit (serialize + publish).
    Merge,          ///< Parent-side shard merge.
    PerfRun,        ///< One PerfSimulator::runStreams run.
};

/** Number of distinct phases. */
constexpr unsigned kPhaseCount = 10;

/**
 * Stable snake_case name of @p phase ("trial", "repair_attempt",
 * "node_sim", ...): the profiler frame and the exported Span "name".
 * "?" for a value out of range.
 */
const char *phaseName(Phase phase);

namespace profiler {

namespace detail {
/** Nonzero while sampling is armed; the markers' fast-path gate. */
extern std::atomic<bool> g_enabled;

/** Enter @p phase; returns the previous node for the paired leave. */
int32_t enterPhase(Phase phase);

/** Leave the current phase, restoring @p previous. */
void leavePhase(int32_t previous);
} // namespace detail

/** True while the profiler is sampling (one relaxed load). */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/**
 * Arm sampling at @p hz samples per second of consumed CPU time.
 * Installs the SIGPROF handler and the process ITIMER_PROF. Counts
 * accumulate across start/stop cycles until `reset`. Fatal if already
 * running. Not inherited across fork (itimers reset in the child), so
 * worker-pool benches reject `--profile`.
 */
void start(unsigned hz = 97);

/** Disarm the timer and sampling; phase trees and counts remain. */
void stop();

/** Total samples attributed so far. */
uint64_t totalSamples();

/**
 * `flamegraph.pl` input: one `relaxfault;phase;...;phase count` line
 * per tree node with samples (plus bare `relaxfault N` for time outside
 * any marked phase). Call after `stop`.
 */
std::string folded();

/** Human-readable self-time-per-phase table. Call after `stop`. */
std::string selfTimeTable();

/** Drop every node and count (profiler must be stopped). */
void reset();

} // namespace profiler

} // namespace relaxfault

#endif // RELAXFAULT_TELEMETRY_PROFILER_H
