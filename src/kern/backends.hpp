// Internal wiring between the dispatcher and the per-ISA translation
// units. Each backend TU exposes its table through one getter; TUs for
// ISAs the build cannot target still compile (their getter returns
// nullptr) so the CMake logic stays trivial. The scalar kernels are
// also exported individually so partial backends can fall back per
// kernel without duplicating code.
#pragma once

#include "src/kern/kern.hpp"

namespace mmtag::kern::detail {

// Full reference table; never nullptr.
[[nodiscard]] const Kernels* scalar_table();
// nullptr when the compiler could not target the ISA.
[[nodiscard]] const Kernels* avx2_table();

// Scalar kernels, reusable by partial SIMD backends.
namespace scalar {
double sum(const double* x, std::size_t n);
double dot(const double* a, const double* b, std::size_t n);
void centered_dot_energy(const double* x, const double* t, double mean,
                         std::size_t n, double* dot_out, double* energy_out);
void abs_complex(const std::complex<double>* x, double* out, std::size_t n);
void scale_real(std::complex<double>* x, double gain, std::size_t n);
void scale_complex(std::complex<double>* x, std::complex<double> c,
                   std::size_t n);
void fir_complex(const std::complex<double>* x, std::size_t n,
                 const double* taps, std::size_t nt,
                 std::complex<double>* out);
void butterfly_pass(std::complex<double>* data, std::size_t n,
                    std::size_t len, const std::complex<double>* tw);
void block_sum_complex(const std::complex<double>* x, std::size_t nblocks,
                       std::size_t block, std::complex<double>* out);
void threshold_below(const double* stats, std::size_t n, double threshold,
                     std::uint8_t* bits);
void squared_distance(const double* xs, const double* ys, double cx,
                      double cy, std::size_t n, double* out);
std::uint64_t count_below(const double* x, std::size_t n, double threshold);
void mul_complex(std::complex<double>* x, const std::complex<double>* c,
                 std::size_t n);
void iq_imbalance(std::complex<double>* x, std::complex<double> mu,
                  std::complex<double> nu, std::size_t n);
void pa_rapp(std::complex<double>* x, std::size_t n, double inv_sat2,
             double k_pm, double b_pm);
void adc_quantize(std::complex<double>* x, std::size_t n, double clip,
                  double step, double inv_step);
std::uint32_t fm0_decode_bytes(const std::uint8_t* chips, std::size_t nbits,
                               std::uint8_t* bits);
std::uint16_t crc16_bits(const std::uint8_t* bytes, std::size_t nbits);
}  // namespace scalar

// The AVX2 backend's CRC: slicing-by-8 CRC-16/CCITT over whole bytes
// plus a bitwise tail. Bit-exact with scalar::crc16_bits.
std::uint16_t crc16_bits_sliced(const std::uint8_t* bytes, std::size_t nbits);

}  // namespace mmtag::kern::detail
