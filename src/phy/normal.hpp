// Batched Gaussian draws, bit-identical to std::normal_distribution.
//
// libstdc++'s normal_distribution<double> is Marsaglia's polar method: an
// accepted attempt (x, y) from two generate_canonical draws makes a pair,
// and one call returns y * mult and saves x * mult for the next. Here the
// same arithmetic runs a block of pairs at a time, over any engine (phy
// does not depend on sim). Pinned digests assume libstdc++ (DESIGN.md
// Sec. 7).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace mmtag::phy {

/// Pairs per stack block.
inline constexpr std::size_t kNormalBlock = 256;

/// generate_canonical<double, 53> of one 64-bit draw: the draw rounded
/// once to double (its exact 32-bit halves joined by one add, which
/// avoids the unsigned conversion's sign branch), scaled by 2^-64 and
/// clamped to the largest double below 1.
[[nodiscard]] inline double canonical_double(std::uint64_t draw) {
  const double rounded = static_cast<double>(draw >> 32) * 0x1p32 +
                         static_cast<double>(draw & 0xFFFFFFFFu);
  return std::min(rounded * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// Fill first[i] and second[i], i < n, with what n pairs of calls to a
/// fresh std::normal_distribution<double>(mean, stddev) on `rng` return:
/// first[i] is pair i's first call, second[i] its second (the saved
/// value). `rng` is left in the state those calls would leave it in.
template <typename Engine>
void normal_pairs(Engine& rng, double mean, double stddev, std::size_t n,
                  double* first, double* second) {
  static_assert(Engine::min() == 0 &&
                    Engine::max() == std::numeric_limits<std::uint64_t>::max(),
                "normal_pairs needs an engine of full 64-bit words");
  double xs[kNormalBlock];
  double ys[kNormalBlock];
  double r2s[kNormalBlock];
  for (std::size_t done = 0; done < n; done += kNormalBlock) {
    const std::size_t block = std::min(n - done, kNormalBlock);
    // One attempt per missing pair, repeated on the shortfall, so the
    // engine never reads past what the calls would have read. A rejected
    // attempt is overwritten by the next.
    std::size_t have = 0;
    while (have < block) {
      for (std::size_t a = block - have; a > 0; --a) {
        const double x = 2.0 * canonical_double(rng()) - 1.0;
        const double y = 2.0 * canonical_double(rng()) - 1.0;
        const double r2 = x * x + y * y;
        xs[have] = x;
        ys[have] = y;
        r2s[have] = r2;
        have += (r2 <= 1.0 && r2 != 0.0) ? 1 : 0;
      }
    }
    for (std::size_t i = 0; i < block; ++i) {
      const double mult = std::sqrt(-2 * std::log(r2s[i]) / r2s[i]);
      first[done + i] = ys[i] * mult * stddev + mean;
      second[done + i] = xs[i] * mult * stddev + mean;
    }
  }
}

/// Call visit(i, first, second) for i < n, in order, with the pairs
/// normal_pairs draws from `rng`, one stack block at a time.
template <typename Engine, typename Visit>
void for_each_normal_pair(Engine& rng, double mean, double stddev,
                          std::size_t n, Visit&& visit) {
  double first[kNormalBlock];
  double second[kNormalBlock];
  for (std::size_t done = 0; done < n; done += kNormalBlock) {
    const std::size_t block = std::min(n - done, kNormalBlock);
    normal_pairs(rng, mean, stddev, block, first, second);
    for (std::size_t i = 0; i < block; ++i) {
      visit(done + i, first[i], second[i]);
    }
  }
}

}  // namespace mmtag::phy
