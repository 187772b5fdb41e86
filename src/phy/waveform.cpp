#include "src/phy/waveform.hpp"

#include <cassert>
#include <cmath>

#include "src/kern/kern.hpp"
#include "src/phys/units.hpp"

namespace mmtag::phy {

double mean_power(std::span<const Complex> samples) {
  if (samples.empty()) return 0.0;
  // sum |x|^2 as a self-dot over the interleaved re/im view.
  const double* doubles = reinterpret_cast<const double*>(samples.data());
  const double sum =
      kern::dispatch().dot(doubles, doubles, 2 * samples.size());
  return sum / static_cast<double>(samples.size());
}

double noise_power_for_snr(double signal_power, double snr_db) {
  assert(signal_power > 0.0);
  return signal_power / phys::db_to_ratio(snr_db);
}

}  // namespace mmtag::phy
