#include "src/phy/ber.hpp"

#include <cassert>
#include <cmath>

#include "src/phys/units.hpp"

namespace mmtag::phy {

double q_function(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double q_function_inverse(double p) {
  assert(p > 0.0 && p < 0.5);
  double lo = 0.0;
  double hi = 40.0;  // Q(40) is far below any representable target.
  for (int i = 0; i < 200; ++i) {
    const double mid = (lo + hi) / 2.0;
    if (q_function(mid) > p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

double ook_coherent_ber(double snr_db) {
  const double snr = phys::db_to_ratio(snr_db);
  return q_function(std::sqrt(snr));
}

double ook_noncoherent_ber(double snr_db) {
  const double snr = phys::db_to_ratio(snr_db);
  return 0.5 * std::exp(-snr / 2.0);
}

double ook_snr_for_ber_db(double target_ber) {
  assert(target_ber > 0.0 && target_ber < 0.5);
  const double x = q_function_inverse(target_ber);
  return phys::ratio_to_db(x * x);
}

}  // namespace mmtag::phy
