/// \file
/// \brief Vectorized DSP kernel layer with runtime CPU dispatch.
///
/// Every sample-rate hot loop in the PHY (waveform energy, OOK
/// integrate-and-dump and slicing, FFT butterflies, FIR shaping, CRC)
/// and the impairment stages funnel through the function-pointer table
/// returned by kern::dispatch(). The table is resolved once at startup
/// from the host CPU (AVX2 when the host has it, else scalar) and can be
/// forced with the MMTAG_KERN environment variable or kern::set_backend()
/// (the `--kern` bench flag).
///
/// **Equivalence discipline.** Backends are not "close": for the same
/// inputs every backend must produce the *same bits*. Reductions are
/// specified as a fixed 4-lane tree (lane j accumulates elements
/// j, j+4, j+8, ...; lanes combine as (l0+l2)+(l1+l3); the tail past the
/// last multiple of 4 is added sequentially), complex multiplication is
/// specified as (ar*br - ai*bi, ai*br + ar*bi), and no backend may use
/// FMA contraction. SIMD lanes then perform the identical IEEE-754
/// operations the scalar reference performs, so tests/test_kern.cpp can
/// assert bit-identity (integer kernels) and <=2 ULP (float kernels, 0 in
/// practice) across backends, and `MMTAG_KERN=scalar` reproduces
/// `MMTAG_KERN=auto` runs exactly. See DESIGN.md Sec. 11.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace mmtag::kern {

/// Instruction-set backends selectable at runtime. Order is by
/// preference: higher enumerators win when available.
enum class Backend : int {
  kScalar = 0,  ///< Portable reference implementation (always available).
  kAvx2 = 1,    ///< x86-64 AVX2 (256-bit lanes, no FMA by design).
  kAuto = 2,    ///< Resolve to the best backend the host supports.
};

/// The kernel function-pointer table. One instance exists per backend;
/// phy code calls through `dispatch()` and never names a backend.
///
/// Pointer arguments never need alignment beyond the element type's, and
/// in-place operation is only allowed where a parameter says so. Complex
/// buffers are standard `std::complex<double>` arrays (interleaved
/// re/im), which the SIMD backends reinterpret as double pairs as
/// guaranteed by [complex.numbers.general].
struct Kernels {
  /// Human-readable backend name ("scalar", "avx2").
  const char* name;

  // --- Reductions (fixed 4-lane tree; see file comment). ---

  /// Dot product sum of `a[i] * b[i]`. With `a == b` this is a sum of
  /// squares (used for waveform energy via the re/im-interleaved view).
  double (*dot)(const double* a, const double* b, std::size_t n);

  // --- Elementwise maps (no reduction; order per element). ---

  /// `out[i] = sqrt(re^2 + im^2)`. Envelope magnitude without the
  /// overflow guard of std::abs — baseband amplitudes are O(1).
  void (*abs_complex)(const std::complex<double>* x, double* out,
                      std::size_t n);

  /// In-place `x[i] *= gain` (both components).
  void (*scale_real)(std::complex<double>* x, double gain, std::size_t n);

  // --- Filtering / transforms. ---

  /// "Same"-aligned FIR with real taps: for each output index `i`,
  /// `out[i] = sum_k taps[k] * x[i + nt/2 - k]` over the in-range `k`,
  /// accumulated even-k-lane + odd-k-lane (relative to the first valid
  /// k) then tail. `out` must not alias `x`.
  void (*fir_complex)(const std::complex<double>* x, std::size_t n,
                      const double* taps, std::size_t nt,
                      std::complex<double>* out);

  /// One radix-2 DIT butterfly stage over the whole array: for every
  /// group `s` (multiple of `len`) and `k < len/2`,
  ///   odd = data[s+k+len/2] * tw[k];
  ///   data[s+k+len/2] = data[s+k] - odd;
  ///   data[s+k]      += odd.
  /// `tw` holds the stage's `len/2` twiddles (from phy's size-keyed
  /// cache). `n` and `len` are powers of two, `len >= 2`, `len <= n`.
  void (*butterfly_pass)(std::complex<double>* data, std::size_t n,
                         std::size_t len, const std::complex<double>* tw);

  // --- Modem. ---

  /// Integrate-and-dump: `out[k] = sum of x[k*block .. k*block+block)`,
  /// accumulated even-lane + odd-lane + tail (complex 2-lane tree).
  void (*block_sum_complex)(const std::complex<double>* x,
                            std::size_t nblocks, std::size_t block,
                            std::complex<double>* out);

  /// Hard slicer: `bits[i] = stats[i] < threshold ? 1 : 0`.
  void (*threshold_below)(const double* stats, std::size_t n,
                          double threshold, std::uint8_t* bits);

  // --- Impairment stages (src/impair receive-chain realism). ---

  /// Elementwise complex Hadamard product `x[i] *= c[i]` with the
  /// specified complex-multiply formula. Applies precomputed unit-norm
  /// rotation trajectories (oscillator phase noise) without transcendental
  /// functions in the kernel, so backends stay bit-identical.
  void (*mul_complex)(std::complex<double>* x, const std::complex<double>* c,
                      std::size_t n);

  /// Receive-side IQ imbalance `x[i] = mu*x[i] + nu*conj(x[i])` with both
  /// products expanded by the specified complex-multiply formula and the
  /// two results added componentwise (mu-product first).
  void (*iq_imbalance)(std::complex<double>* x, std::complex<double> mu,
                       std::complex<double> nu, std::size_t n);

  /// Rapp PA (smoothness p = 2) with a rational tangent-half-angle AM/PM
  /// rotation. Per element, with `a2 = re*re + im*im`:
  ///   u  = a2 * inv_sat2;            g = 1 / sqrt(sqrt(1 + u*u));
  ///   t  = (k_pm * a2) / (1 + b_pm * a2);
  ///   iv = 1 / (1 + t*t);  cr = (1 - t*t) * iv;  ci = (t + t) * iv;
  ///   x  = (cmul(x, (cr, ci)).re * g, cmul(x, (cr, ci)).im * g).
  /// Only +,-,*,/ and sqrt (all exactly rounded), so SIMD lanes reproduce
  /// the scalar bits. The rotation angle is 2*atan(t) by construction —
  /// see src/impair/stages.hpp for the calibration story.
  void (*pa_rapp)(std::complex<double>* x, std::size_t n, double inv_sat2,
                  double k_pm, double b_pm);

  /// Mid-tread ADC: per real component (2n doubles),
  ///   v = v > clip ? clip : v;  v = v < -clip ? -clip : v;
  ///   v = floor(v * inv_step + 0.5) * step.
  /// floor rounds toward -inf in every backend (vroundpd); inputs are
  /// finite baseband samples (no NaN contract).
  void (*adc_quantize)(std::complex<double>* x, std::size_t n, double clip,
                       double step, double inv_step);

  // --- Integer. ---

  /// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, MSB-first) over
  /// `nbits` bits packed MSB-first into `bytes`. Bit-exact across
  /// backends; accelerated backends use slicing-by-8 over whole bytes.
  std::uint16_t (*crc16_bits)(const std::uint8_t* bytes, std::size_t nbits);
};

/// The active kernel table. First use resolves the MMTAG_KERN
/// environment variable ("scalar", "avx2", "auto"; unset or invalid
/// means "auto") against the host CPU; later calls are a single atomic
/// load. Thread-safe.
[[nodiscard]] const Kernels& dispatch();

/// The table for a specific backend (kAuto resolves to
/// best_available()). Requesting an unavailable backend returns the
/// scalar table. Intended for tests and per-backend benchmarks;
/// production code should call dispatch().
[[nodiscard]] const Kernels& table(Backend backend);

/// True when the host CPU can execute `backend` (kScalar and kAuto are
/// always true).
[[nodiscard]] bool available(Backend backend);

/// The strongest available backend on this host.
[[nodiscard]] Backend best_available();

/// Force the dispatch() table. kAuto re-resolves MMTAG_KERN / the CPU.
/// Returns false (and leaves dispatch() unchanged) when `backend` is not
/// available on this host.
bool set_backend(Backend backend);

/// Backend currently served by dispatch() (resolving it if needed).
[[nodiscard]] Backend active_backend();

/// Parse a backend name as accepted by MMTAG_KERN / --kern. Accepts
/// "scalar", "avx2", "auto"; returns nullopt otherwise.
[[nodiscard]] std::optional<Backend> parse_backend(std::string_view name);

/// Canonical name for `backend` ("auto" for kAuto).
[[nodiscard]] std::string_view backend_name(Backend backend);

}  // namespace mmtag::kern
