/**
 * @file
 * Unit tests for the common utilities: bit operations, RNG and its
 * distribution samplers, statistics accumulators, table printer, CLI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/bitops.h"
#include "common/cli.h"
#include "common/clock.h"
#include "common/fs.h"
#include "common/log.h"
#include "common/signal_guard.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace relaxfault {
namespace {

TEST(Bitops, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(8), 0xffu);
    EXPECT_EQ(maskBits(64), ~uint64_t{0});
}

TEST(Bitops, ExtractDepositRoundTrip)
{
    const uint64_t value = 0xdeadbeefcafebabeull;
    for (unsigned lsb = 0; lsb < 60; lsb += 7) {
        for (unsigned width = 1; width <= 12; ++width) {
            const uint64_t field = extractBits(value, lsb, width);
            const uint64_t rebuilt = depositBits(0, lsb, width, field);
            EXPECT_EQ(extractBits(rebuilt, lsb, width), field);
        }
    }
}

TEST(Bitops, DepositDoesNotDisturbOtherBits)
{
    const uint64_t base = 0xffffffffffffffffull;
    const uint64_t result = depositBits(base, 8, 8, 0x00);
    EXPECT_EQ(result, 0xffffffffffff00ffull);
}

TEST(Bitops, IndexBits)
{
    EXPECT_EQ(indexBits(1), 0u);
    EXPECT_EQ(indexBits(2), 1u);
    EXPECT_EQ(indexBits(8192), 13u);
    EXPECT_EQ(indexBits(3), 2u);
    EXPECT_EQ(indexBits(0), 0u);
}

/** The shift loop indexBits used to be, as the reference. */
unsigned
indexBitsLoop(uint64_t count)
{
    unsigned bits = 0;
    while ((uint64_t{1} << bits) < count)
        ++bits;
    return bits;
}

TEST(Bitops, IndexBitsMatchesTheShiftLoop)
{
    for (uint64_t count = 0; count <= (uint64_t{1} << 16); ++count)
        ASSERT_EQ(indexBits(count), indexBitsLoop(count)) << count;
    for (unsigned k = 1; k <= 62; ++k) {
        const uint64_t power = uint64_t{1} << k;
        for (const uint64_t count : {power - 1, power, power + 1})
            ASSERT_EQ(indexBits(count), indexBitsLoop(count)) << count;
    }
}

TEST(Bitops, IsPowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(Bitops, XorFoldWidth)
{
    for (uint64_t v : {0x1234567890abcdefull, 0xffffffffffffffffull}) {
        EXPECT_LT(xorFold(v, 13), uint64_t{1} << 13);
    }
    EXPECT_EQ(xorFold(0, 13), 0u);
    // Folding a value narrower than the width is the identity.
    EXPECT_EQ(xorFold(0x5a, 8), 0x5au);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.uniformInt(17), 17u);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.uniformRange(3, 7);
        ASSERT_GE(v, 3);
        ASSERT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, PoissonMeanAndVariance)
{
    Rng rng(13);
    RunningStat stat;
    const double mean = 3.7;
    for (int i = 0; i < 40000; ++i)
        stat.add(static_cast<double>(rng.poisson(mean)));
    EXPECT_NEAR(stat.mean(), mean, 0.06);
    EXPECT_NEAR(stat.variance(), mean, 0.15);
}

TEST(Rng, PoissonTinyMeanMatchesRareEvents)
{
    Rng rng(17);
    const double mean = 2e-3;
    uint64_t hits = 0;
    const int trials = 2'000'000;
    for (int i = 0; i < trials; ++i)
        hits += rng.poisson(mean);
    EXPECT_NEAR(static_cast<double>(hits) / trials, mean, 3e-4);
}

TEST(Rng, PoissonLargeMeanNormalPath)
{
    Rng rng(19);
    RunningStat stat;
    for (int i = 0; i < 20000; ++i)
        stat.add(static_cast<double>(rng.poisson(200.0)));
    EXPECT_NEAR(stat.mean(), 200.0, 1.0);
    EXPECT_NEAR(stat.stddev(), std::sqrt(200.0), 1.0);
}

TEST(Rng, LognormalMoments)
{
    Rng rng(23);
    RunningStat stat;
    const double mean = 13.0;
    const double variance = 13.0 / 4.0;
    for (int i = 0; i < 60000; ++i)
        stat.add(rng.lognormalMeanVar(mean, variance));
    EXPECT_NEAR(stat.mean(), mean, 0.1);
    EXPECT_NEAR(stat.variance(), variance, 0.25);
}

TEST(Rng, LognormalDegenerateCases)
{
    Rng rng(29);
    EXPECT_EQ(rng.lognormalMeanVar(0.0, 1.0), 0.0);
    EXPECT_EQ(rng.lognormalMeanVar(5.0, 0.0), 5.0);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(31);
    RunningStat stat;
    for (int i = 0; i < 40000; ++i)
        stat.add(rng.exponential(0.25));
    EXPECT_NEAR(stat.mean(), 4.0, 0.1);
}

TEST(Rng, BinomialSmallAndLarge)
{
    Rng rng(37);
    RunningStat small;
    for (int i = 0; i < 20000; ++i)
        small.add(static_cast<double>(rng.binomial(20, 0.3)));
    EXPECT_NEAR(small.mean(), 6.0, 0.1);

    RunningStat large;
    for (int i = 0; i < 20000; ++i)
        large.add(static_cast<double>(rng.binomial(100000, 0.001)));
    EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(99);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkAtIsPure)
{
    Rng a = Rng::forkAt(42, 17);
    Rng b = Rng::forkAt(42, 17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkAtDistinctIndexesAreIndependent)
{
    // Adjacent counters and adjacent seeds must all decorrelate.
    Rng a = Rng::forkAt(42, 0);
    Rng b = Rng::forkAt(42, 1);
    Rng c = Rng::forkAt(43, 0);
    int same_ab = 0;
    int same_ac = 0;
    for (int i = 0; i < 64; ++i) {
        const uint64_t va = a.next();
        same_ab += va == b.next();
        same_ac += va == c.next();
    }
    EXPECT_LT(same_ab, 2);
    EXPECT_LT(same_ac, 2);
}

TEST(Rng, ForkAtStreamsDoNotCollide)
{
    // First outputs of many derived streams are pairwise distinct — a
    // counter scheme that reused states would show up immediately here.
    std::vector<uint64_t> firsts;
    for (uint64_t index = 0; index < 4096; ++index)
        firsts.push_back(Rng::forkAt(1206, index).next());
    std::sort(firsts.begin(), firsts.end());
    EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()),
              firsts.end());
}

TEST(RunningStat, MatchesDirectComputation)
{
    RunningStat stat;
    const double values[] = {1.0, 2.5, -3.0, 7.25, 0.0};
    double sum = 0.0;
    for (double v : values) {
        stat.add(v);
        sum += v;
    }
    const double mean = sum / 5;
    double m2 = 0.0;
    for (double v : values)
        m2 += (v - mean) * (v - mean);
    EXPECT_EQ(stat.count(), 5u);
    EXPECT_DOUBLE_EQ(stat.mean(), mean);
    EXPECT_NEAR(stat.variance(), m2 / 4, 1e-12);
    EXPECT_DOUBLE_EQ(stat.min(), -3.0);
    EXPECT_DOUBLE_EQ(stat.max(), 7.25);
}

TEST(RunningStat, EmptyAndSingle)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.variance(), 0.0);
    stat.add(4.0);
    EXPECT_EQ(stat.variance(), 0.0);
    EXPECT_EQ(stat.stderror(), 0.0);
}

TEST(RunningStat, MergeEmptyCases)
{
    RunningStat empty_a;
    RunningStat empty_b;
    empty_a.merge(empty_b);
    EXPECT_EQ(empty_a.count(), 0u);

    RunningStat filled;
    filled.add(1.0);
    filled.add(3.0);
    RunningStat into_empty;
    into_empty.merge(filled);
    EXPECT_EQ(into_empty.count(), 2u);
    EXPECT_DOUBLE_EQ(into_empty.mean(), 2.0);
    EXPECT_DOUBLE_EQ(into_empty.variance(), 2.0);

    filled.merge(empty_a);
    EXPECT_EQ(filled.count(), 2u);
    EXPECT_DOUBLE_EQ(filled.mean(), 2.0);
}

TEST(RunningStat, MergeMatchesSinglePassOnRandomSplits)
{
    // Property test of Chan's merge: for random data and a random split
    // point, shard-accumulate + merge must match single-pass Welford to
    // 1e-12 relative error, with count/min/max exact. (The sum is also
    // 1e-12: reassociating FP addition shifts its last bits.)
    Rng rng(20260805);
    for (int round = 0; round < 60; ++round) {
        const size_t n = 2 + rng.uniformInt(400);
        std::vector<double> values;
        values.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            // Heavy-tailed and shifted, to stress the moment update.
            const double v = rng.lognormalMeanVar(20.0, 5.0) +
                             rng.normal(0.0, 3.0);
            values.push_back(v);
        }
        const size_t split = rng.uniformInt(n + 1);

        RunningStat single;
        for (double v : values)
            single.add(v);
        RunningStat left;
        RunningStat right;
        for (size_t i = 0; i < n; ++i)
            (i < split ? left : right).add(values[i]);
        left.merge(right);

        EXPECT_EQ(left.count(), single.count());
        EXPECT_DOUBLE_EQ(left.min(), single.min());
        EXPECT_DOUBLE_EQ(left.max(), single.max());
        EXPECT_NEAR(left.sum(), single.sum(),
                    1e-12 * std::abs(single.sum()));
        EXPECT_NEAR(left.mean(), single.mean(),
                    1e-12 * std::abs(single.mean()));
        const double tolerance =
            1e-12 * std::max(single.variance(), 1e-300);
        EXPECT_NEAR(left.variance(), single.variance(), tolerance);
    }
}

TEST(RunningStat, MergeManyShardsAssociates)
{
    // Folding k shards left-to-right matches single-pass accumulation,
    // the way per-chunk summaries are folded after a parallel run.
    Rng rng(99);
    RunningStat single;
    RunningStat folded;
    for (int shard = 0; shard < 16; ++shard) {
        RunningStat part;
        const size_t n = 1 + rng.uniformInt(50);
        for (size_t i = 0; i < n; ++i) {
            const double v = rng.exponential(0.1);
            single.add(v);
            part.add(v);
        }
        folded.merge(part);
    }
    EXPECT_EQ(folded.count(), single.count());
    EXPECT_NEAR(folded.mean(), single.mean(),
                1e-12 * single.mean());
    EXPECT_NEAR(folded.variance(), single.variance(),
                1e-12 * single.variance());
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    for (const unsigned threads : {1u, 2u, 8u}) {
        for (const unsigned chunk : {0u, 1u, 7u, 1000u}) {
            const size_t count = 257;
            std::vector<std::atomic<int>> visits(count);
            ParallelConfig config;
            config.threads = threads;
            config.chunk = chunk;
            parallelFor(
                count,
                [&](size_t begin, size_t end) {
                    ASSERT_LE(begin, end);
                    ASSERT_LE(end, count);
                    for (size_t i = begin; i < end; ++i)
                        visits[i].fetch_add(1);
                },
                config);
            for (size_t i = 0; i < count; ++i)
                ASSERT_EQ(visits[i].load(), 1)
                    << "index " << i << " at " << threads << " threads, "
                    << "chunk " << chunk;
        }
    }
}

TEST(Parallel, ZeroCountIsANoop)
{
    bool called = false;
    parallelFor(0, [&](size_t, size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, ChunkDecompositionIgnoresThreadCount)
{
    // resolveChunk depends on count and the explicit setting only.
    ParallelConfig one;
    one.threads = 1;
    ParallelConfig eight;
    eight.threads = 8;
    EXPECT_EQ(resolveChunk(one, 1000), resolveChunk(eight, 1000));
    EXPECT_EQ(resolveChunk(one, 10), 1u);
    one.chunk = 42;
    EXPECT_EQ(resolveChunk(one, 1000), 42u);
}

TEST(Parallel, EnvOverrideResolvesThreads)
{
    setenv("RELAXFAULT_THREADS", "3", 1);
    ParallelConfig config;
    EXPECT_EQ(resolveThreads(config), 3u);
    config.threads = 5;  // Explicit setting beats the environment.
    EXPECT_EQ(resolveThreads(config), 5u);
    unsetenv("RELAXFAULT_THREADS");
    config.threads = 0;
    EXPECT_GE(resolveThreads(config), 1u);
}

TEST(Parallel, ExceptionPropagatesToCaller)
{
    for (const unsigned threads : {1u, 4u}) {
        ParallelConfig config;
        config.threads = threads;
        config.chunk = 1;
        EXPECT_THROW(
            parallelFor(
                64,
                [](size_t begin, size_t) {
                    if (begin == 13)
                        throw std::runtime_error("boom");
                },
                config),
            std::runtime_error);
    }
}

TEST(Histogram, CumulativeAndOverflow)
{
    Histogram hist(10.0, 5);  // Bins cover [0, 50).
    hist.add(5.0);
    hist.add(15.0, 2.0);
    hist.add(49.9);
    hist.add(100.0);  // Overflow.
    EXPECT_DOUBLE_EQ(hist.totalWeight(), 5.0);
    EXPECT_DOUBLE_EQ(hist.overflowWeight(), 1.0);
    EXPECT_DOUBLE_EQ(hist.cumulativeWeightUpTo(10.0), 1.0);
    EXPECT_DOUBLE_EQ(hist.cumulativeWeightUpTo(20.0), 3.0);
    EXPECT_DOUBLE_EQ(hist.cumulativeWeightUpTo(50.0), 4.0);
}

TEST(Histogram, NegativeClampsToFirstBin)
{
    Histogram hist(1.0, 4);
    hist.add(-3.0);
    EXPECT_DOUBLE_EQ(hist.binWeight(0), 1.0);
}

TEST(TextTable, AlignsColumns)
{
    TextTable table;
    table.setHeader({"name", "value"});
    table.addRow({"x", "1"});
    table.addRow({"longer", "2.50"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("longer"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(TextTable, NumFormat)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(uint64_t{42}), "42");
}

TEST(Cli, ParsesForms)
{
    // Note: a bare flag followed by a non-option token would swallow it
    // as a value, so bare flags go last (documented parser behaviour).
    const char *argv[] = {"prog", "--trials=50", "--seed", "7",
                          "positional", "--flag"};
    CliOptions options(6, const_cast<char **>(argv),
                       {"trials", "seed", "flag"});
    EXPECT_EQ(options.getInt("trials", 0), 50);
    EXPECT_EQ(options.getInt("seed", 0), 7);
    EXPECT_TRUE(options.has("flag"));
    EXPECT_FALSE(options.has("absent"));
    EXPECT_EQ(options.getDouble("absent", 2.5), 2.5);
    ASSERT_EQ(options.positional().size(), 1u);
    EXPECT_EQ(options.positional()[0], "positional");
}

TEST(Cli, StrictAcceptsKnownOptions)
{
    const char *argv[] = {"prog", "--trials=50", "--progress"};
    CliOptions options(3, const_cast<char **>(argv),
                       {"trials", "progress"});
    EXPECT_EQ(options.getInt("trials", 0), 50);
    EXPECT_TRUE(options.has("progress"));
}

TEST(CliDeathTest, StrictRejectsUnknownOption)
{
    const char *argv[] = {"prog", "--trails=50"};  // Typo.
    EXPECT_EXIT(CliOptions(2, const_cast<char **>(argv), {"trials"}),
                ::testing::ExitedWithCode(1), "unknown option --trails");
}

TEST(CliDeathTest, RejectsMalformedNumbers)
{
    const char *argv[] = {"prog", "--trials=5x", "--scale=abc"};
    CliOptions options(3, const_cast<char **>(argv),
                       {"trials", "scale"});
    EXPECT_EXIT(options.getInt("trials", 0),
                ::testing::ExitedWithCode(1), "is not an integer");
    EXPECT_EXIT(options.getDouble("scale", 0.0),
                ::testing::ExitedWithCode(1), "is not a number");
}

TEST(CliDeathTest, ValidatesRanges)
{
    const char *argv[] = {"prog", "--trials=0", "--threads=-2"};
    CliOptions options(3, const_cast<char **>(argv),
                       {"trials", "threads"});
    EXPECT_EQ(options.getNonNegativeInt("trials", 1), 0);
    EXPECT_EXIT(options.getPositiveInt("trials", 1),
                ::testing::ExitedWithCode(1), "must be >= 1");
    EXPECT_EXIT(options.getNonNegativeInt("threads", 0),
                ::testing::ExitedWithCode(1), "must be >= 0");
}

TEST(Histogram, MergeOfShardsMatchesSinglePassFill)
{
    // Property: splitting an observation stream across shards and
    // merging reproduces the single-pass histogram exactly (the
    // telemetry sharding contract).
    Rng rng(99);
    Histogram single(2.5, 40);
    std::vector<Histogram> shards(4, Histogram(2.5, 40));
    for (unsigned i = 0; i < 4000; ++i) {
        const double value = rng.uniform() * 120.0;  // Overflows too.
        // Small-integer weights keep double addition exact, so the
        // merged and single-pass histograms must match bit for bit.
        const double weight = 1.0 + static_cast<double>(i % 3);
        single.add(value, weight);
        shards[i % 4].add(value, weight);
    }
    Histogram merged(2.5, 40);
    for (const auto &shard : shards)
        merged.merge(shard);
    EXPECT_DOUBLE_EQ(merged.totalWeight(), single.totalWeight());
    EXPECT_DOUBLE_EQ(merged.overflowWeight(), single.overflowWeight());
    for (size_t b = 0; b < single.binCount(); ++b)
        EXPECT_DOUBLE_EQ(merged.binWeight(b), single.binWeight(b)) << b;
    for (const double p : {0.1, 0.5, 0.9, 0.999})
        EXPECT_DOUBLE_EQ(merged.quantile(p), single.quantile(p)) << p;
}

TEST(Histogram, QuantileWalksBins)
{
    Histogram hist(10.0, 5);
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);  // Empty.
    hist.add(5.0);    // Bin 0, upper edge 10.
    hist.add(25.0);   // Bin 2, upper edge 30.
    hist.add(35.0);   // Bin 3, upper edge 40.
    hist.add(45.0);   // Bin 4, upper edge 50.
    EXPECT_DOUBLE_EQ(hist.quantile(0.25), 10.0);
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 30.0);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 50.0);
    hist.add(1000.0);  // Overflow: quantile saturates at the last edge.
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 50.0);
}

TEST(HistogramDeathTest, MergeRejectsIncompatibleBinning)
{
    Histogram a(1.0, 4);
    const Histogram b(2.0, 4);
    EXPECT_DEATH(a.merge(b), "incompatible binning");
}

TEST(ProgressMeter, ConcurrentTicksCountExactly)
{
    ProgressMeter meter("test", 10000, false);
    ParallelConfig config;
    config.threads = 8;
    config.chunk = 1;
    parallelFor(
        100,
        [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                meter.tick(100);
        },
        config);
    EXPECT_EQ(meter.done(), 10000u);
}

TEST(ProgressMeter, DisabledNeverPrints)
{
    testing::internal::CaptureStderr();
    ProgressMeter meter("silent", 10, false);
    for (unsigned i = 0; i < 10; ++i)
        meter.tick();
    meter.finish();
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Fs, AtomicWriteThenReadRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "relaxfault_fs_test.txt";
    std::remove(path.c_str());
    EXPECT_FALSE(fileExists(path));

    const std::string content = "line one\nline two\n\x01 binary \xff\n";
    ASSERT_TRUE(atomicWriteFile(path, content));
    EXPECT_TRUE(fileExists(path));
    std::string read_back;
    ASSERT_TRUE(readFile(path, read_back));
    EXPECT_EQ(read_back, content);

    // Overwrite replaces the whole content (no append, no mixing).
    ASSERT_TRUE(atomicWriteFile(path, "replaced"));
    ASSERT_TRUE(readFile(path, read_back));
    EXPECT_EQ(read_back, "replaced");
    std::remove(path.c_str());
}

TEST(Fs, AtomicWriteToBadDirectoryFailsCleanly)
{
    EXPECT_FALSE(
        atomicWriteFile("/nonexistent_dir_xyz/file.txt", "data"));
    std::string out;
    EXPECT_FALSE(readFile("/nonexistent_dir_xyz/file.txt", out));
}

TEST(Fs, SplitLinesDropsTerminatorsAndTrailingEmpty)
{
    const auto lines = splitLines("a\nbb\n\nccc\n");
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[0], "a");
    EXPECT_EQ(lines[1], "bb");
    EXPECT_EQ(lines[2], "");
    EXPECT_EQ(lines[3], "ccc");
    // A torn final line (no terminator) is still returned — the caller
    // decides whether it parses.
    const auto torn = splitLines("a\npartial");
    ASSERT_EQ(torn.size(), 2u);
    EXPECT_EQ(torn[1], "partial");
    EXPECT_TRUE(splitLines("").empty());
}

TEST(SignalGuardTest, SigintSetsFlagWithoutKilling)
{
    SignalGuard guard;
    SignalGuard::reset();
    EXPECT_FALSE(SignalGuard::stopRequested());
    // One SIGINT is absorbed into the flag (a second would re-raise
    // with default disposition — deliberately not tested in-process).
    ASSERT_EQ(std::raise(SIGINT), 0);
    EXPECT_TRUE(SignalGuard::stopRequested());
    EXPECT_EQ(SignalGuard::stopSignal(), SIGINT);
    SignalGuard::reset();
    EXPECT_FALSE(SignalGuard::stopRequested());
}

TEST(SignalGuardTest, RequestStopIsProgrammatic)
{
    SignalGuard::reset();
    SignalGuard::requestStop();
    EXPECT_TRUE(SignalGuard::stopRequested());
    EXPECT_EQ(SignalGuard::stopSignal(), 0);
    SignalGuard::reset();
}

TEST(ProgressMeter, FinishIsIdempotent)
{
    testing::internal::CaptureStderr();
    ProgressMeter meter("done", 3, true);
    meter.tick(3);
    meter.finish();
    meter.finish();
    meter.finish();
    const std::string output = testing::internal::GetCapturedStderr();
    // Exactly one final summary line despite three finish() calls.
    size_t lines = 0;
    for (const char c : output)
        lines += c == '\n';
    EXPECT_EQ(lines, 1u) << output;
    EXPECT_NE(output.find("done"), std::string::npos);
}

TEST(Clock, FakeClockAdvancesVirtuallyAndRecordsSleeps)
{
    FakeClock clock;
    const Clock::TimePoint start = clock.now();
    clock.sleepFor(std::chrono::milliseconds(25));
    clock.advance(std::chrono::milliseconds(10));
    clock.sleepFor(std::chrono::milliseconds(40));
    EXPECT_EQ(clock.elapsedMs(start), 75u);
    ASSERT_EQ(clock.sleeps().size(), 2u);
    EXPECT_EQ(clock.sleeps()[0], std::chrono::milliseconds(25));
    EXPECT_EQ(clock.sleeps()[1], std::chrono::milliseconds(40));
}

TEST(Clock, SteadyClockIsMonotonic)
{
    Clock &clock = Clock::steady();
    const Clock::TimePoint a = clock.now();
    const Clock::TimePoint b = clock.now();
    EXPECT_LE(a, b);
}

} // namespace
} // namespace relaxfault
