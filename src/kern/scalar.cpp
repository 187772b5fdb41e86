// Reference backend. Every kernel here *defines* the arithmetic DAG the
// SIMD backends must reproduce bit-for-bit: reductions use the 4-lane
// tree from kern.hpp, complex products use the (ar*br - ai*bi,
// ai*br + ar*bi) formula, and nothing may be contracted into FMA. This
// TU is built with auto-vectorization disabled (see CMakeLists.txt) so
// "scalar" in benchmarks genuinely means one lane.
#include <algorithm>
#include <cmath>

#include "src/kern/backends.hpp"
#include "src/kern/crc_tables.hpp"

namespace mmtag::kern::detail::scalar {

namespace {

using Complexd = std::complex<double>;

// The specified complex product (do not replace with std::complex
// operator*: its NaN-recovery path and formula must not leak into the
// kernel contract).
inline Complexd cmul(Complexd a, Complexd b) {
  return Complexd(a.real() * b.real() - a.imag() * b.imag(),
                  a.imag() * b.real() + a.real() * b.imag());
}

double dot(const double* a, const double* b, std::size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    acc[0] += a[i] * b[i];
    acc[1] += a[i + 1] * b[i + 1];
    acc[2] += a[i + 2] * b[i + 2];
    acc[3] += a[i + 3] * b[i + 3];
  }
  double total = (acc[0] + acc[2]) + (acc[1] + acc[3]);
  for (std::size_t i = n4; i < n; ++i) total += a[i] * b[i];
  return total;
}

void abs_complex(const Complexd* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double re = x[i].real();
    const double im = x[i].imag();
    out[i] = std::sqrt(re * re + im * im);
  }
}

void scale_real(Complexd* x, double gain, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = Complexd(x[i].real() * gain, x[i].imag() * gain);
  }
}

void fir_complex(const Complexd* x, std::size_t n, const double* taps,
                 std::size_t nt, Complexd* out) {
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(nt / 2);
  const std::ptrdiff_t sn = static_cast<std::ptrdiff_t>(n);
  const std::ptrdiff_t snt = static_cast<std::ptrdiff_t>(nt);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    const std::ptrdiff_t k_lo = std::max<std::ptrdiff_t>(0, i + delay - (sn - 1));
    const std::ptrdiff_t k_hi = std::min<std::ptrdiff_t>(snt - 1, i + delay);
    const std::ptrdiff_t m = k_hi - k_lo + 1;
    if (m <= 0) {
      out[static_cast<std::size_t>(i)] = Complexd(0.0, 0.0);
      continue;
    }
    const std::ptrdiff_t mv = m & ~std::ptrdiff_t{1};
    double ar = 0.0, ai = 0.0, br = 0.0, bi = 0.0;
    for (std::ptrdiff_t off = 0; off < mv; off += 2) {
      const std::ptrdiff_t k0 = k_lo + off;
      const Complexd x0 = x[static_cast<std::size_t>(i + delay - k0)];
      const Complexd x1 = x[static_cast<std::size_t>(i + delay - k0 - 1)];
      ar += taps[k0] * x0.real();
      ai += taps[k0] * x0.imag();
      br += taps[k0 + 1] * x1.real();
      bi += taps[k0 + 1] * x1.imag();
    }
    double re = ar + br;
    double im = ai + bi;
    if (mv != m) {
      const Complexd xt = x[static_cast<std::size_t>(i + delay - k_hi)];
      re += taps[k_hi] * xt.real();
      im += taps[k_hi] * xt.imag();
    }
    out[static_cast<std::size_t>(i)] = Complexd(re, im);
  }
}

void butterfly_pass(Complexd* data, std::size_t n, std::size_t len,
                    const Complexd* tw) {
  const std::size_t half = len / 2;
  if (len == 2) {
    for (std::size_t s = 0; s < n; s += 2) {
      const Complexd a = data[s];
      const Complexd b = data[s + 1];
      data[s] = Complexd(a.real() + b.real(), a.imag() + b.imag());
      data[s + 1] = Complexd(a.real() - b.real(), a.imag() - b.imag());
    }
    return;
  }
  for (std::size_t s = 0; s < n; s += len) {
    for (std::size_t k = 0; k < half; ++k) {
      const Complexd even = data[s + k];
      const Complexd odd = cmul(data[s + k + half], tw[k]);
      data[s + k] =
          Complexd(even.real() + odd.real(), even.imag() + odd.imag());
      data[s + k + half] =
          Complexd(even.real() - odd.real(), even.imag() - odd.imag());
    }
  }
}

void block_sum_complex(const Complexd* x, std::size_t nblocks,
                       std::size_t block, Complexd* out) {
  const std::size_t bv = block & ~std::size_t{1};
  for (std::size_t k = 0; k < nblocks; ++k) {
    const Complexd* base = x + k * block;
    double er = 0.0, ei = 0.0, orr = 0.0, oi = 0.0;
    for (std::size_t s = 0; s < bv; s += 2) {
      er += base[s].real();
      ei += base[s].imag();
      orr += base[s + 1].real();
      oi += base[s + 1].imag();
    }
    double re = er + orr;
    double im = ei + oi;
    if (bv != block) {
      re += base[block - 1].real();
      im += base[block - 1].imag();
    }
    out[k] = Complexd(re, im);
  }
}

void threshold_below(const double* stats, std::size_t n, double threshold,
                     std::uint8_t* bits) {
  for (std::size_t i = 0; i < n; ++i) {
    bits[i] = stats[i] < threshold ? 1 : 0;
  }
}

void mul_complex(Complexd* x, const Complexd* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] = cmul(x[i], c[i]);
}

void iq_imbalance(Complexd* x, Complexd mu, Complexd nu, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const Complexd m = cmul(x[i], mu);
    const Complexd v = cmul(Complexd(x[i].real(), -x[i].imag()), nu);
    x[i] = Complexd(m.real() + v.real(), m.imag() + v.imag());
  }
}

void pa_rapp(Complexd* x, std::size_t n, double inv_sat2, double k_pm,
             double b_pm) {
  for (std::size_t i = 0; i < n; ++i) {
    const double re = x[i].real();
    const double im = x[i].imag();
    const double a2 = re * re + im * im;
    const double u = a2 * inv_sat2;
    const double g = 1.0 / std::sqrt(std::sqrt(1.0 + u * u));
    const double t = (k_pm * a2) / (1.0 + b_pm * a2);
    const double iv = 1.0 / (1.0 + t * t);
    const double cr = (1.0 - t * t) * iv;
    const double ci = (t + t) * iv;
    x[i] = Complexd((re * cr - im * ci) * g, (im * cr + re * ci) * g);
  }
}

void adc_quantize(Complexd* x, std::size_t n, double clip, double step,
                  double inv_step) {
  double* p = reinterpret_cast<double*>(x);
  const std::size_t d = 2 * n;
  for (std::size_t i = 0; i < d; ++i) {
    double v = p[i];
    v = v > clip ? clip : v;
    v = v < -clip ? -clip : v;
    p[i] = std::floor(v * inv_step + 0.5) * step;
  }
}

std::uint16_t crc16_bits(const std::uint8_t* bytes, std::size_t nbits) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < nbits; ++i) {
    const std::uint8_t bit = (bytes[i / 8] >> (7 - (i % 8))) & 1u;
    const bool msb = (crc & 0x8000) != 0;
    crc = static_cast<std::uint16_t>(crc << 1);
    if (msb != (bit != 0)) crc ^= kCrc16Poly;
  }
  return crc;
}

}  // namespace
}  // namespace mmtag::kern::detail::scalar

namespace mmtag::kern::detail {

std::uint16_t crc16_bits_sliced(const std::uint8_t* bytes,
                                std::size_t nbits) {
  std::uint16_t crc = 0xFFFF;
  const std::size_t nbytes = nbits / 8;
  std::size_t i = 0;
  // Fold eight stream bytes per round; the running 16-bit state only
  // touches the first two.
  for (; i + 8 <= nbytes; i += 8) {
    const auto& t = kCrc16Tables;
    crc = static_cast<std::uint16_t>(
        t[7][static_cast<std::uint8_t>(bytes[i] ^ (crc >> 8))] ^
        t[6][static_cast<std::uint8_t>(bytes[i + 1] ^ (crc & 0xFF))] ^
        t[5][bytes[i + 2]] ^ t[4][bytes[i + 3]] ^ t[3][bytes[i + 4]] ^
        t[2][bytes[i + 5]] ^ t[1][bytes[i + 6]] ^ t[0][bytes[i + 7]]);
  }
  for (; i < nbytes; ++i) {
    crc = static_cast<std::uint16_t>(
        (crc << 8) ^ kCrc16Tables[0][static_cast<std::uint8_t>(
                         (crc >> 8) ^ bytes[i])]);
  }
  for (std::size_t b = nbytes * 8; b < nbits; ++b) {
    const std::uint8_t bit = (bytes[b / 8] >> (7 - (b % 8))) & 1u;
    const bool msb = (crc & 0x8000) != 0;
    crc = static_cast<std::uint16_t>(crc << 1);
    if (msb != (bit != 0)) crc ^= kCrc16Poly;
  }
  return crc;
}

const Kernels* scalar_table() {
  static const Kernels kTable = {
      "scalar",
      &scalar::dot,
      &scalar::abs_complex,
      &scalar::scale_real,
      &scalar::fir_complex,
      &scalar::butterfly_pass,
      &scalar::block_sum_complex,
      &scalar::threshold_below,
      &scalar::mul_complex,
      &scalar::iq_imbalance,
      &scalar::pa_rapp,
      &scalar::adc_quantize,
      &scalar::crc16_bits,
  };
  return &kTable;
}

}  // namespace mmtag::kern::detail
