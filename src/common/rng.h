/**
 * @file
 * Deterministic pseudo-random number generation for the simulators.
 *
 * All stochastic components of the project draw from Xoshiro256**, seeded
 * through SplitMix64 so that a single 64-bit seed expands into a full state.
 * The generator is deliberately not std::mt19937: it is faster, has a tiny
 * state that is cheap to fork per node/device, and its output is identical
 * across platforms, which keeps every benchmark and test reproducible.
 */

#ifndef RELAXFAULT_COMMON_RNG_H
#define RELAXFAULT_COMMON_RNG_H

#include <bit>
#include <cstdint>

namespace relaxfault {

/**
 * Xoshiro256** PRNG with distribution helpers.
 *
 * The distribution samplers cover exactly what the fault and timing models
 * need: uniforms, exponential inter-arrival times, Poisson counts, and
 * Lognormal rate multipliers.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; the state is expanded via SplitMix64. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit output. */
    uint64_t next()
    {
        const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /** Fork an independent stream; used to give each node its own RNG. */
    Rng fork();

    /**
     * Counter-based fork: the stream for item @p index of the master
     * @p seed, derived without consuming any serial RNG state. Distinct
     * indexes yield independent streams, and `forkAt(seed, i)` depends
     * only on (seed, i) — the foundation of the parallel Monte Carlo
     * engine's bit-identical-at-any-thread-count guarantee.
     */
    static Rng forkAt(uint64_t seed, uint64_t index);

    /** Uniform double in [0, 1): 53 random mantissa bits. */
    double uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) (bound > 0): multiply-shift
     * (Lemire), bias < 2^-64 * bound. */
    uint64_t uniformInt(uint64_t bound)
    {
        const unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<uint64_t>(product >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t uniformRange(int64_t lo, int64_t hi);

    /** Bernoulli trial with success probability @p p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Exponential variate with rate @p lambda (> 0). */
    double exponential(double lambda);

    /** Standard normal variate (Box-Muller). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Lognormal variate with the given *arithmetic* mean and variance.
     * The underlying normal's mu/sigma are derived from the moments, which
     * is how the paper specifies its device-rate variation (mean = nominal
     * FIT, variance = mean/4).
     */
    double lognormalMeanVar(double mean, double variance);

    /** Poisson count with mean @p mean (exact; OK for the means used here). */
    uint64_t poisson(double mean);

    /** Binomial count of @p n trials with success probability @p p. */
    uint64_t binomial(uint64_t n, double p);

  private:
    uint64_t state_[4];
    bool hasSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

} // namespace relaxfault

#endif // RELAXFAULT_COMMON_RNG_H
