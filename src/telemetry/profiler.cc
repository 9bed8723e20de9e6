#include "telemetry/profiler.h"

#include <sys/time.h>

#include <csignal>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/log.h"
#include "common/table.h"

namespace relaxfault {

namespace {

constexpr const char *kPhaseNames[kPhaseCount] = {
    "trial",       "scrub_pass", "infer_pass", "repair_attempt",
    "node_sample", "node_sim",   "ecc_decode", "commit",
    "merge",       "perf_run",
};

} // namespace

const char *
phaseName(Phase phase)
{
    const auto index = static_cast<unsigned>(phase);
    return index < kPhaseCount ? kPhaseNames[index] : "?";
}

namespace profiler {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

/**
 * Interned tree of phase paths. Node 0 is the root ("outside any
 * marked phase"). Children hang off `firstChild`/`nextSibling` chains
 * appended with release stores, so the lock-free lookup in `enterPhase`
 * can traverse them with acquire loads while `g_internMutex` serializes
 * insertions only.
 */
constexpr int32_t kMaxNodes = 256;

struct Node
{
    std::atomic<int32_t> firstChild{-1};
    std::atomic<int32_t> nextSibling{-1};
    int32_t parent = -1;
    uint8_t phase = 0;
};

Node g_nodes[kMaxNodes];
std::atomic<int32_t> g_nodeCount{1};  // Node 0 = root.
std::mutex g_internMutex;

/** Leaf-attributed sample counts; index = node id. */
std::atomic<uint64_t> g_samples[kMaxNodes];
std::atomic<uint64_t> g_sampleTotal{0};

bool g_running = false;
struct sigaction g_oldAction {};

/**
 * The thread's current tree node. Thread-local and lock-free, so the
 * SIGPROF handler — which runs on whichever thread the kernel charged
 * the CPU tick to — reads its own thread's position with one relaxed
 * load. A thread that never entered a phase reads 0 (root).
 */
thread_local std::atomic<int32_t> t_current{0};

extern "C" void
relaxfaultOnSigprof(int)
{
    // Async-signal-safe by inspection: two relaxed fetch_adds on
    // lock-free atomics and one relaxed load of a thread-local atomic.
    const int32_t node = t_current.load(std::memory_order_relaxed);
    g_samples[node].fetch_add(1, std::memory_order_relaxed);
    g_sampleTotal.fetch_add(1, std::memory_order_relaxed);
}

int32_t
findChild(int32_t parent, uint8_t phase)
{
    int32_t child =
        g_nodes[parent].firstChild.load(std::memory_order_acquire);
    while (child >= 0) {
        if (g_nodes[child].phase == phase)
            return child;
        child = g_nodes[child].nextSibling.load(
            std::memory_order_acquire);
    }
    return -1;
}

int32_t
intern(int32_t parent, uint8_t phase)
{
    std::lock_guard<std::mutex> lock(g_internMutex);
    // Re-check under the lock: another thread may have interned it.
    if (const int32_t existing = findChild(parent, phase);
        existing >= 0)
        return existing;
    const int32_t id = g_nodeCount.load(std::memory_order_relaxed);
    if (id >= kMaxNodes) {
        // Table full (a pathological phase explosion): attribute to
        // the parent instead of losing the sample or taking a lock in
        // the hot path.
        return parent;
    }
    Node &node = g_nodes[id];
    node.parent = parent;
    node.phase = phase;
    node.firstChild.store(-1, std::memory_order_relaxed);
    g_nodeCount.store(id + 1, std::memory_order_relaxed);
    // Link in LAST, with release: once visible, the node is complete.
    node.nextSibling.store(
        g_nodes[parent].firstChild.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    g_nodes[parent].firstChild.store(id, std::memory_order_release);
    return id;
}

std::string
pathOf(int32_t node)
{
    std::vector<const char *> names;
    for (int32_t i = node; i > 0; i = g_nodes[i].parent)
        names.push_back(phaseName(static_cast<Phase>(g_nodes[i].phase)));
    std::string path = "relaxfault";
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
        path += ';';
        path += *it;
    }
    return path;
}

} // namespace

namespace detail {

int32_t
enterPhase(Phase phase)
{
    const int32_t parent = t_current.load(std::memory_order_relaxed);
    int32_t node = findChild(parent, static_cast<uint8_t>(phase));
    if (node < 0)
        node = intern(parent, static_cast<uint8_t>(phase));
    t_current.store(node, std::memory_order_relaxed);
    return parent;
}

void
leavePhase(int32_t previous)
{
    t_current.store(previous, std::memory_order_relaxed);
}

} // namespace detail

void
start(unsigned hz)
{
    if (g_running)
        fatal("profiler: start() while already running");
    if (hz == 0)
        hz = 97;

    struct sigaction action {};
    action.sa_handler = relaxfaultOnSigprof;
    sigemptyset(&action.sa_mask);
    // SA_RESTART: an interrupted read/write/fsync must resume, not
    // leak EINTR into the checkpoint fs layer.
    action.sa_flags = SA_RESTART;
    if (sigaction(SIGPROF, &action, &g_oldAction) != 0)
        fatal("profiler: sigaction(SIGPROF) failed");

    const long interval_us = 1'000'000L / hz;
    itimerval timer {};
    timer.it_interval.tv_sec = interval_us / 1'000'000L;
    timer.it_interval.tv_usec = interval_us % 1'000'000L;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, nullptr) != 0)
        fatal("profiler: setitimer(ITIMER_PROF) failed");

    g_running = true;
    detail::g_enabled.store(true, std::memory_order_release);
}

void
stop()
{
    if (!g_running)
        return;
    detail::g_enabled.store(false, std::memory_order_release);
    itimerval timer {};  // All zero: disarm.
    setitimer(ITIMER_PROF, &timer, nullptr);
    sigaction(SIGPROF, &g_oldAction, nullptr);
    g_running = false;
}

uint64_t
totalSamples()
{
    return g_sampleTotal.load(std::memory_order_relaxed);
}

std::string
folded()
{
    std::string out;
    const int32_t count = g_nodeCount.load(std::memory_order_relaxed);
    for (int32_t i = 0; i < count; ++i) {
        const uint64_t samples =
            g_samples[i].load(std::memory_order_relaxed);
        if (samples == 0)
            continue;
        out += pathOf(i);
        out += ' ';
        out += std::to_string(samples);
        out += '\n';
    }
    return out;
}

std::string
selfTimeTable()
{
    const int32_t count = g_nodeCount.load(std::memory_order_relaxed);
    uint64_t per_phase[kPhaseCount] = {};
    uint64_t root_samples = g_samples[0].load(std::memory_order_relaxed);
    uint64_t total = root_samples;
    for (int32_t i = 1; i < count; ++i) {
        const uint64_t samples =
            g_samples[i].load(std::memory_order_relaxed);
        per_phase[g_nodes[i].phase] += samples;
        total += samples;
    }

    TextTable table;
    table.setHeader({"phase", "self-samples", "self-%"});
    const auto pct = [&](uint64_t samples) {
        return total == 0
            ? std::string("0.0")
            : TextTable::num(100.0 * static_cast<double>(samples) /
                                 static_cast<double>(total),
                             1);
    };
    for (unsigned p = 0; p < kPhaseCount; ++p) {
        if (per_phase[p] == 0)
            continue;
        table.addRow({phaseName(static_cast<Phase>(p)),
                      TextTable::num(per_phase[p]), pct(per_phase[p])});
    }
    table.addRow({"(unmarked)", TextTable::num(root_samples),
                  pct(root_samples)});
    std::string out;
    {
        std::ostringstream os;
        table.print(os);
        out = os.str();
    }
    return out;
}

void
reset()
{
    if (g_running)
        fatal("profiler: reset() while running");
    std::lock_guard<std::mutex> lock(g_internMutex);
    g_nodeCount.store(1, std::memory_order_relaxed);
    g_nodes[0].firstChild.store(-1, std::memory_order_relaxed);
    for (int32_t i = 0; i < kMaxNodes; ++i)
        g_samples[i].store(0, std::memory_order_relaxed);
    g_sampleTotal.store(0, std::memory_order_relaxed);
    t_current.store(0, std::memory_order_relaxed);
}

} // namespace profiler

} // namespace relaxfault
