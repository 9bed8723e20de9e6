#include "common/rng.h"

#include <cmath>

namespace relaxfault {

namespace {

uint64_t
splitMix64(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

Rng
Rng::fork()
{
    return Rng(next());
}

Rng
Rng::forkAt(uint64_t seed, uint64_t index)
{
    // The derived seed is the index-th output of a SplitMix64 stream
    // whose increment is perturbed by the master seed: both words pass
    // through the full finalizer, so nearby (seed, index) pairs map to
    // uncorrelated states before Rng's own 4-word expansion.
    uint64_t state = seed;
    uint64_t derived = splitMix64(state);
    state = derived + index * 0xbf58476d1ce4e5b9ull;
    derived ^= splitMix64(state);
    return Rng(derived);
}

int64_t
Rng::uniformRange(int64_t lo, int64_t hi)
{
    return lo + static_cast<int64_t>(
        uniformInt(static_cast<uint64_t>(hi - lo + 1)));
}

double
Rng::exponential(double lambda)
{
    // 1 - uniform() is in (0, 1], so the log is finite.
    return -std::log(1.0 - uniform()) / lambda;
}

double
Rng::normal()
{
    if (hasSpareNormal_) {
        hasSpareNormal_ = false;
        return spareNormal_;
    }
    double u1 = 1.0 - uniform();
    double u2 = uniform();
    double radius = std::sqrt(-2.0 * std::log(u1));
    double angle = 2.0 * M_PI * u2;
    spareNormal_ = radius * std::sin(angle);
    hasSpareNormal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

double
Rng::lognormalMeanVar(double mean, double variance)
{
    if (mean <= 0.0)
        return 0.0;
    if (variance <= 0.0)
        return mean;
    const double ratio = 1.0 + variance / (mean * mean);
    const double mu = std::log(mean / std::sqrt(ratio));
    const double sigma = std::sqrt(std::log(ratio));
    return std::exp(normal(mu, sigma));
}

uint64_t
Rng::poisson(double mean)
{
    if (mean <= 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's product-of-uniforms method.
        const double limit = std::exp(-mean);
        uint64_t count = 0;
        double product = uniform();
        while (product > limit) {
            ++count;
            product *= uniform();
        }
        return count;
    }
    // Normal approximation with continuity correction for large means;
    // lifetime simulations only hit this path with strongly accelerated
    // FIT rates, where the approximation error is immaterial.
    const double sample = normal(mean, std::sqrt(mean));
    return sample <= 0.0 ? 0 : static_cast<uint64_t>(sample + 0.5);
}

uint64_t
Rng::binomial(uint64_t n, double p)
{
    if (p <= 0.0 || n == 0)
        return 0;
    if (p >= 1.0)
        return n;
    if (n < 64) {
        uint64_t count = 0;
        for (uint64_t i = 0; i < n; ++i)
            count += bernoulli(p);
        return count;
    }
    const double mean = static_cast<double>(n) * p;
    if (mean < 15.0) {
        // Poisson approximation for the rare-event regime, clamped to n.
        const uint64_t count = poisson(mean);
        return count > n ? n : count;
    }
    const double stddev = std::sqrt(mean * (1.0 - p));
    const double sample = normal(mean, stddev);
    if (sample <= 0.0)
        return 0;
    const auto count = static_cast<uint64_t>(sample + 0.5);
    return count > n ? n : count;
}

} // namespace relaxfault
