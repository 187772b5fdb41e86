// Backend-equivalence matrix for the kern:: dispatch layer.
//
// Every kernel runs on the scalar reference and on each accelerated
// backend the host supports, across odd / aligned / unaligned lengths
// {0, 1, 7, 64, 1000}. Integer kernels must agree bit-for-bit; float
// kernels must agree within 2 ULP (the backends are designed around a
// shared reduction tree, so in practice they agree exactly — the ULP
// bound is the documented contract). Also covers the FFT twiddle cache
// (build-once reuse) and scalar-vs-auto determinism of the E4 BER sweep.
#include "src/kern/kern.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "src/phy/fft.hpp"
#include "src/sim/link_sim.hpp"
#include "src/sim/parallel.hpp"
#include "src/sim/rng.hpp"
#include "src/sim/sweep.hpp"

namespace {

using mmtag::kern::Backend;
using mmtag::kern::Kernels;
using Complexd = std::complex<double>;

constexpr std::size_t kLengths[] = {0, 1, 7, 64, 1000};

// Backends to pit against the scalar reference on this host.
std::vector<Backend> accelerated_backends() {
  if (!mmtag::kern::available(Backend::kAvx2)) return {};
  return {Backend::kAvx2};
}

std::int64_t ulp_distance(double a, double b) {
  if (a == b) return 0;  // Covers +0/-0.
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  auto key = [](double v) {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits < 0 ? std::int64_t{INT64_MIN + 1} - bits - 1 : bits;
  };
  const std::int64_t ka = key(a);
  const std::int64_t kb = key(b);
  return ka > kb ? ka - kb : kb - ka;
}

void expect_ulp_close(double expected, double actual, const char* what,
                      std::size_t n) {
  EXPECT_LE(ulp_distance(expected, actual), 2)
      << what << " length " << n << ": scalar=" << expected
      << " accel=" << actual;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  mmtag::sim::Rng rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<double> values(n);
  for (double& v : values) v = uniform(rng);
  return values;
}

std::vector<Complexd> random_complex(std::size_t n, std::uint64_t seed) {
  mmtag::sim::Rng rng(seed);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  std::vector<Complexd> values(n);
  for (Complexd& v : values) {
    // Imaginary part first: the order GCC gave the two-call constructor.
    const double im = uniform(rng);
    const double re = uniform(rng);
    v = Complexd(re, im);
  }
  return values;
}

// An unaligned view: copy into a buffer offset one element from the
// allocation start, so SIMD backends prove their loadu/storeu paths.
template <typename T>
struct Unaligned {
  explicit Unaligned(const std::vector<T>& source)
      : storage(source.size() + 1) {
    std::copy(source.begin(), source.end(), storage.begin() + 1);
  }
  T* data() { return storage.data() + 1; }
  const T* data() const { return storage.data() + 1; }
  std::vector<T> storage;
};

TEST(KernDispatch, ScalarAlwaysAvailableAndNamed) {
  EXPECT_TRUE(mmtag::kern::available(Backend::kScalar));
  EXPECT_STREQ(mmtag::kern::table(Backend::kScalar).name, "scalar");
  EXPECT_EQ(mmtag::kern::backend_name(Backend::kAvx2), "avx2");
  EXPECT_EQ(&mmtag::kern::table(Backend::kAuto),
            &mmtag::kern::table(mmtag::kern::best_available()));
}

TEST(KernDispatch, ParseBackendRoundTrips) {
  using mmtag::kern::parse_backend;
  EXPECT_EQ(parse_backend("scalar"), Backend::kScalar);
  EXPECT_EQ(parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("auto"), Backend::kAuto);
  // The deleted SSE4.2 and NEON backends' names are unknown now.
  EXPECT_FALSE(parse_backend("sse4.2").has_value());
  EXPECT_FALSE(parse_backend("sse42").has_value());
  EXPECT_FALSE(parse_backend("sse4").has_value());
  EXPECT_FALSE(parse_backend("neon").has_value());
  EXPECT_FALSE(parse_backend("sse5").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
}

TEST(KernDispatch, SetBackendForcesAndRestores) {
  ASSERT_TRUE(mmtag::kern::set_backend(Backend::kScalar));
  EXPECT_EQ(mmtag::kern::active_backend(), Backend::kScalar);
  EXPECT_STREQ(mmtag::kern::dispatch().name, "scalar");
  // set_backend(kAuto) re-resolves the default policy: MMTAG_KERN wins
  // when it names an available backend (that is how the CI scalar/auto
  // matrix pins the suite), otherwise best_available().
  Backend expected = mmtag::kern::best_available();
  if (const char* env = std::getenv("MMTAG_KERN")) {
    const auto parsed = mmtag::kern::parse_backend(env);
    if (parsed.has_value() && *parsed != Backend::kAuto &&
        mmtag::kern::available(*parsed)) {
      expected = *parsed;
    }
  }
  ASSERT_TRUE(mmtag::kern::set_backend(Backend::kAuto));
  EXPECT_EQ(&mmtag::kern::dispatch(), &mmtag::kern::table(expected));
}

TEST(KernDispatch, RemovedBackendNameInEnvironmentFallsBackToAuto) {
  // An unknown MMTAG_KERN warns and resolves as auto: the best backend
  // the host has, not a table the name once selected.
  const char* saved = std::getenv("MMTAG_KERN");
  const bool was_set = saved != nullptr;
  const std::string previous = was_set ? saved : "";
  const Backend before = mmtag::kern::active_backend();
  ASSERT_EQ(setenv("MMTAG_KERN", "sse4.2", 1), 0);
  ASSERT_TRUE(mmtag::kern::set_backend(Backend::kAuto));
  EXPECT_EQ(&mmtag::kern::dispatch(),
            &mmtag::kern::table(mmtag::kern::best_available()));
  if (was_set) {
    setenv("MMTAG_KERN", previous.c_str(), 1);
  } else {
    unsetenv("MMTAG_KERN");
  }
  ASSERT_TRUE(mmtag::kern::set_backend(before));
}

TEST(KernEquivalence, Dot) {
  const Kernels& scalar = mmtag::kern::table(Backend::kScalar);
  for (const Backend backend : accelerated_backends()) {
    const Kernels& accel = mmtag::kern::table(backend);
    for (const std::size_t n : kLengths) {
      const auto a = random_doubles(n, 11 + n);
      const auto b = random_doubles(n, 23 + n);
      const Unaligned<double> ua(a);
      const Unaligned<double> ub(b);

      expect_ulp_close(scalar.dot(a.data(), b.data(), n),
                       accel.dot(a.data(), b.data(), n), "dot", n);
      expect_ulp_close(scalar.dot(a.data(), b.data(), n),
                       accel.dot(ua.data(), ub.data(), n), "dot unaligned",
                       n);
    }
  }
}

TEST(KernEquivalence, ElementwiseComplexMaps) {
  const Kernels& scalar = mmtag::kern::table(Backend::kScalar);
  for (const Backend backend : accelerated_backends()) {
    const Kernels& accel = mmtag::kern::table(backend);
    for (const std::size_t n : kLengths) {
      const auto x = random_complex(n, 31 + n);

      std::vector<double> abs_s(n), abs_a(n);
      scalar.abs_complex(x.data(), abs_s.data(), n);
      Unaligned<Complexd> ux(x);
      accel.abs_complex(ux.data(), abs_a.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        expect_ulp_close(abs_s[i], abs_a[i], "abs_complex", n);
      }

      auto scaled_s = x;
      auto scaled_a = x;
      scalar.scale_real(scaled_s.data(), 0.731, n);
      accel.scale_real(scaled_a.data(), 0.731, n);
      for (std::size_t i = 0; i < n; ++i) {
        expect_ulp_close(scaled_s[i].real(), scaled_a[i].real(),
                         "scale_real.re", n);
        expect_ulp_close(scaled_s[i].imag(), scaled_a[i].imag(),
                         "scale_real.im", n);
      }
    }
  }
}

TEST(KernEquivalence, FirComplex) {
  const Kernels& scalar = mmtag::kern::table(Backend::kScalar);
  for (const Backend backend : accelerated_backends()) {
    const Kernels& accel = mmtag::kern::table(backend);
    for (const std::size_t n : kLengths) {
      for (const std::size_t nt : {std::size_t{1}, std::size_t{9},
                                   std::size_t{33}}) {
        const auto x = random_complex(n, 41 + n + nt);
        const auto taps = random_doubles(nt, 43 + nt);
        std::vector<Complexd> out_s(n), out_a(n);
        scalar.fir_complex(x.data(), n, taps.data(), nt, out_s.data());
        const Unaligned<Complexd> ux(x);
        accel.fir_complex(ux.data(), n, taps.data(), nt, out_a.data());
        for (std::size_t i = 0; i < n; ++i) {
          expect_ulp_close(out_s[i].real(), out_a[i].real(), "fir.re", n);
          expect_ulp_close(out_s[i].imag(), out_a[i].imag(), "fir.im", n);
        }
      }
    }
  }
}

TEST(KernEquivalence, ButterflyPassAllStages) {
  const Kernels& scalar = mmtag::kern::table(Backend::kScalar);
  for (const Backend backend : accelerated_backends()) {
    const Kernels& accel = mmtag::kern::table(backend);
    for (const std::size_t n : {std::size_t{2}, std::size_t{8},
                                std::size_t{64}, std::size_t{1024}}) {
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const auto data = random_complex(n, 53 + n + len);
        const auto tw = random_complex(len / 2, 57 + len);
        auto data_s = data;
        auto data_a = data;
        scalar.butterfly_pass(data_s.data(), n, len, tw.data());
        accel.butterfly_pass(data_a.data(), n, len, tw.data());
        for (std::size_t i = 0; i < n; ++i) {
          expect_ulp_close(data_s[i].real(), data_a[i].real(),
                           "butterfly.re", n);
          expect_ulp_close(data_s[i].imag(), data_a[i].imag(),
                           "butterfly.im", n);
        }
      }
    }
  }
}

TEST(KernEquivalence, BlockSumComplex) {
  const Kernels& scalar = mmtag::kern::table(Backend::kScalar);
  for (const Backend backend : accelerated_backends()) {
    const Kernels& accel = mmtag::kern::table(backend);
    for (const std::size_t nblocks : kLengths) {
      for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                      std::size_t{8}}) {
        const auto x = random_complex(nblocks * block, 61 + nblocks + block);
        std::vector<Complexd> out_s(nblocks), out_a(nblocks);
        scalar.block_sum_complex(x.data(), nblocks, block, out_s.data());
        const Unaligned<Complexd> ux(x);
        accel.block_sum_complex(ux.data(), nblocks, block, out_a.data());
        for (std::size_t i = 0; i < nblocks; ++i) {
          expect_ulp_close(out_s[i].real(), out_a[i].real(), "block_sum.re",
                           nblocks);
          expect_ulp_close(out_s[i].imag(), out_a[i].imag(), "block_sum.im",
                           nblocks);
        }
      }
    }
  }
}

TEST(KernEquivalence, ThresholdBelowBitIdentical) {
  const Kernels& scalar = mmtag::kern::table(Backend::kScalar);
  for (const Backend backend : accelerated_backends()) {
    const Kernels& accel = mmtag::kern::table(backend);
    for (const std::size_t n : kLengths) {
      const auto stats = random_doubles(n, 67 + n);
      std::vector<std::uint8_t> bits_s(n), bits_a(n);
      scalar.threshold_below(stats.data(), n, 0.1, bits_s.data());
      const Unaligned<double> ustats(stats);
      accel.threshold_below(ustats.data(), n, 0.1, bits_a.data());
      EXPECT_EQ(bits_s, bits_a) << "threshold length " << n;
    }
  }
}

// The impairment kernels (src/impair) are elementwise with no
// reductions and only exactly-rounded ops (+,-,*,/,sqrt,floor), so the
// contract is exact bit identity across backends — not just ULP
// closeness. test_impair.cpp covers the end-to-end discipline; this is
// the kernel-level matrix.
TEST(KernEquivalence, ImpairmentKernelsBitIdentical) {
  const Kernels& scalar = mmtag::kern::table(Backend::kScalar);
  for (const Backend backend : accelerated_backends()) {
    const Kernels& accel = mmtag::kern::table(backend);
    for (const std::size_t n : kLengths) {
      const auto x = random_complex(n, 301 + n);
      const auto c = random_complex(n, 307 + n);

      auto mul_s = x;
      Unaligned<Complexd> mul_a(x);
      const Unaligned<Complexd> uc(c);
      scalar.mul_complex(mul_s.data(), c.data(), n);
      accel.mul_complex(mul_a.data(), uc.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(mul_s[i], mul_a.data()[i]) << "mul_complex[" << i
                                             << "] length " << n;
      }

      const Complexd mu(0.993, 0.021);
      const Complexd nu(-0.034, 0.027);
      auto iq_s = x;
      Unaligned<Complexd> iq_a(x);
      scalar.iq_imbalance(iq_s.data(), mu, nu, n);
      accel.iq_imbalance(iq_a.data(), mu, nu, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(iq_s[i], iq_a.data()[i]) << "iq_imbalance[" << i
                                           << "] length " << n;
      }

      auto pa_s = x;
      Unaligned<Complexd> pa_a(x);
      scalar.pa_rapp(pa_s.data(), n, 0.2512, 0.0139, 0.2512);
      accel.pa_rapp(pa_a.data(), n, 0.2512, 0.0139, 0.2512);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(pa_s[i], pa_a.data()[i]) << "pa_rapp[" << i << "] length "
                                           << n;
      }

      auto adc_s = x;
      Unaligned<Complexd> adc_a(x);
      const double step = 2.0 * 0.75 / 64.0;
      scalar.adc_quantize(adc_s.data(), n, 0.75, step, 1.0 / step);
      accel.adc_quantize(adc_a.data(), n, 0.75, step, 1.0 / step);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(adc_s[i], adc_a.data()[i]) << "adc_quantize[" << i
                                             << "] length " << n;
      }
    }
  }
}

TEST(KernEquivalence, Crc16BitIdentical) {
  const Kernels& scalar = mmtag::kern::table(Backend::kScalar);
  for (const Backend backend : accelerated_backends()) {
    const Kernels& accel = mmtag::kern::table(backend);
    for (const std::size_t nbits : kLengths) {
      mmtag::sim::Rng rng(79 + nbits);
      std::vector<std::uint8_t> bytes((nbits + 7) / 8);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      EXPECT_EQ(scalar.crc16_bits(bytes.data(), nbits),
                accel.crc16_bits(bytes.data(), nbits))
          << "crc16 nbits " << nbits;
    }
  }
  // Known vector: "123456789" MSB-first is the CRC-16/CCITT-FALSE check
  // input; every backend must produce 0x29B1.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(scalar.crc16_bits(check, 72), 0x29B1);
}

TEST(KernTwiddleCache, SameSizeTransformsReuseTable) {
  using mmtag::phy::fft;
  mmtag::phy::fft_twiddle_cache_clear();
  const std::uint64_t builds_before = mmtag::phy::fft_twiddle_cache_builds();

  auto data = random_complex(64, 83);
  std::vector<Complexd> work(data.begin(), data.end());
  fft(work);
  EXPECT_EQ(mmtag::phy::fft_twiddle_cache_builds(), builds_before + 1);
  EXPECT_EQ(mmtag::phy::fft_twiddle_cache_entries(), 1u);

  // Second same-size transform must reuse the cached table.
  std::vector<Complexd> work2(data.begin(), data.end());
  fft(work2);
  EXPECT_EQ(mmtag::phy::fft_twiddle_cache_builds(), builds_before + 1);
  EXPECT_EQ(mmtag::phy::fft_twiddle_cache_entries(), 1u);

  // A different size or direction builds (and caches) a new table.
  std::vector<Complexd> other = random_complex(128, 89);
  fft(other);
  EXPECT_EQ(mmtag::phy::fft_twiddle_cache_builds(), builds_before + 2);
  fft(work2, /*inverse=*/true);
  EXPECT_EQ(mmtag::phy::fft_twiddle_cache_builds(), builds_before + 3);
  EXPECT_EQ(mmtag::phy::fft_twiddle_cache_entries(), 3u);

  // Round trip through the cached tables stays exact to ~1e-12.
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(work2[i].real(), data[i].real(), 1e-12);
    EXPECT_NEAR(work2[i].imag(), data[i].imag(), 1e-12);
  }
  mmtag::phy::fft_twiddle_cache_clear();
  EXPECT_EQ(mmtag::phy::fft_twiddle_cache_entries(), 0u);
}

// The end-to-end contract the CI matrix relies on: a BER sweep through
// the full modem must produce identical error counts under the scalar
// and auto backends (MMTAG_KERN=scalar vs =auto).
TEST(KernDeterminism, BerSweepIdenticalAcrossBackends) {
  mmtag::sim::MonteCarloLink::Params params;
  params.min_bits = 2'000;
  params.max_bits = 2'000;
  const mmtag::sim::MonteCarloLink link{params};
  const std::vector<double> snrs = mmtag::sim::linspace(0.0, 10.0, 5);
  mmtag::sim::ThreadPool pool(2);

  ASSERT_TRUE(mmtag::kern::set_backend(Backend::kScalar));
  const auto scalar_sweep = link.measure_ber_sweep(snrs, 1234, pool);
  ASSERT_TRUE(mmtag::kern::set_backend(Backend::kAuto));
  const auto auto_sweep = link.measure_ber_sweep(snrs, 1234, pool);

  ASSERT_EQ(scalar_sweep.points.size(), auto_sweep.points.size());
  for (std::size_t i = 0; i < scalar_sweep.points.size(); ++i) {
    EXPECT_EQ(scalar_sweep.points[i].bits_sent,
              auto_sweep.points[i].bits_sent)
        << "point " << i;
    EXPECT_EQ(scalar_sweep.points[i].bit_errors,
              auto_sweep.points[i].bit_errors)
        << "point " << i;
  }
}

}  // namespace
