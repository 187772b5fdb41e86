// Phased-array power-model tests (src/antenna/phased_array).
#include "src/antenna/phased_array.hpp"

#include <gtest/gtest.h>

namespace mmtag::antenna {
namespace {

TEST(PhasedArray, DcPowerIsWatts) {
  // "phased arrays ... have high power consumption (a few watts)" (paper
  // Sec. 5). The model must land in that band.
  const PhasedArray array = PhasedArray::typical_24ghz(16);
  EXPECT_GT(array.dc_power_w(), 0.5);
  EXPECT_LT(array.dc_power_w(), 5.0);
}

TEST(PhasedArray, PowerScalesWithElements) {
  EXPECT_GT(PhasedArray::typical_24ghz(64).dc_power_w(),
            PhasedArray::typical_24ghz(8).dc_power_w());
}

}  // namespace
}  // namespace mmtag::antenna
