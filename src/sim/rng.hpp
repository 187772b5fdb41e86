// Deterministic RNG construction.
//
// Every stochastic component in the library takes sim::Rng& so a single
// seed pins down an entire experiment. Benches and tests construct theirs
// here; per-component seeds are derived with splitmix-style mixing so two
// components never share a stream accidentally. Header-only: any layer
// may include it without linking mmtag_sim.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace mmtag::sim {

/// MT19937-64 with std::mt19937_64's seeding recurrence, twist and
/// tempering, so it emits the identical sequence for every seed. A refill
/// twists the 312 state words and tempers them into an output block in
/// one pass; a draw is then one load. Standard distributions over it
/// return the same values as over std::mt19937_64.
class Rng {
  using Mt = std::mt19937_64;

 public:
  using result_type = Mt::result_type;

  explicit Rng(result_type seed) : seed_(seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = Mt::initialization_multiplier *
                      (prev ^ (prev >> (Mt::word_size - 2))) +
                  i;
    }
    refill();
  }

  static constexpr result_type min() { return Mt::min(); }
  static constexpr result_type max() { return Mt::max(); }

  result_type operator()() {
    if (next_ == kWords) refill();
    return block_[next_++];
  }

  /// The same stream as a std::mt19937_64: an engine built from the same
  /// seed and advanced past every draw taken here. Lets code written
  /// against the standard engine continue this one's sequence.
  operator Mt() const {
    Mt engine(seed_);
    engine.discard(refills_ * kWords + next_ - kWords);
    return engine;
  }

 private:
  static constexpr std::size_t kWords = Mt::state_size;
  static constexpr std::size_t kShift = Mt::shift_size;

  static result_type temper(result_type z) {
    z ^= (z >> Mt::tempering_u) & Mt::tempering_d;
    z ^= (z << Mt::tempering_s) & Mt::tempering_b;
    z ^= (z << Mt::tempering_t) & Mt::tempering_c;
    return z ^ (z >> Mt::tempering_l);
  }

  void refill() {
    constexpr result_type kUpper = ~result_type{0} << Mt::mask_bits;
    // Twist word k with words `next` and `far`, then temper it out. The
    // xor mask is applied without a branch on the low bit.
    const auto step = [this](std::size_t k, std::size_t next,
                             std::size_t far) {
      const result_type y = (state_[k] & kUpper) | (state_[next] & ~kUpper);
      state_[k] = state_[far] ^ (y >> 1) ^
                  ((result_type{0} - (y & 1)) & Mt::xor_mask);
      block_[k] = temper(state_[k]);
    };
    for (std::size_t k = 0; k < kWords - kShift; ++k) {
      step(k, k + 1, k + kShift);
    }
    for (std::size_t k = kWords - kShift; k < kWords - 1; ++k) {
      step(k, k + 1, k + kShift - kWords);
    }
    step(kWords - 1, 0, kShift - 1);
    next_ = 0;
    ++refills_;
  }

  std::array<result_type, kWords> state_;
  std::array<result_type, kWords> block_;
  std::size_t next_ = 0;
  unsigned long long refills_ = 0;
  result_type seed_;
};

/// A seeded engine.
[[nodiscard]] inline Rng make_rng(std::uint64_t seed) { return Rng(seed); }

/// Derive a stream-specific seed from a base seed and a stream index
/// (splitmix64 finalizer — avalanche mixes even adjacent indices).
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t base,
                                               std::uint64_t stream) {
  std::uint64_t z = base + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace mmtag::sim
