// RF switch and transmission-line tests (src/em/switch_model,
// src/em/transmission_line).
#include <gtest/gtest.h>

#include "src/em/switch_model.hpp"
#include "src/em/transmission_line.hpp"
#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::em {
namespace {

TEST(RfSwitch, OffStateIsCapacitive) {
  const RfSwitch fet = RfSwitch::ce3520k3();
  const Complex z = fet.shunt_impedance(SwitchState::kOff, 24e9);
  EXPECT_DOUBLE_EQ(z.real(), 0.0);
  EXPECT_LT(z.imag(), 0.0);  // Capacitive reactance.
  // 25 fF at 24 GHz: |Z| ~ 265 ohm, a light load on a 50-ohm system.
  EXPECT_GT(std::abs(z), 200.0);
}

TEST(RfSwitch, OnStateIsLowResistiveInductive) {
  const RfSwitch fet = RfSwitch::ce3520k3();
  const Complex z = fet.shunt_impedance(SwitchState::kOn, 24e9);
  EXPECT_GT(z.real(), 0.0);
  EXPECT_GT(z.imag(), 0.0);  // Inductive bond wire.
  EXPECT_LT(std::abs(z), 50.0);  // A heavy shunt on the patch.
}

TEST(RfSwitch, ToggleEnergyIsPicojoules) {
  const RfSwitch fet = RfSwitch::ce3520k3();
  const double e = fet.energy_per_toggle_j();
  EXPECT_GT(e, 1e-13);
  EXPECT_LT(e, 1e-10);  // Orders below any active radio's per-bit energy.
}

TEST(TransmissionLine, QuarterWaveIsNinetyDegrees) {
  TransmissionLine::Params p;
  p.attenuation_db_per_m = 0.0;
  TransmissionLine probe(p);
  const double lambda_g = probe.guided_wavelength_m(24e9);
  p.length_m = lambda_g / 4.0;
  const TransmissionLine quarter(p);
  EXPECT_NEAR(quarter.phase_delay_rad(24e9), phys::kPi / 2.0, 1e-9);
}

TEST(TransmissionLine, GuidedWavelengthShorterThanFreeSpace) {
  const TransmissionLine line = TransmissionLine::mmtag_interconnect(0.01);
  EXPECT_LT(line.guided_wavelength_m(24e9), phys::wavelength_m(24e9));
}

TEST(TransmissionLine, LossScalesWithLength) {
  const TransmissionLine short_line =
      TransmissionLine::mmtag_interconnect(0.01);
  const TransmissionLine long_line =
      TransmissionLine::mmtag_interconnect(0.03);
  EXPECT_NEAR(long_line.loss_db(), 3.0 * short_line.loss_db(), 1e-12);
}

TEST(TransmissionLine, MatchedTransferMagnitudeAndPhase) {
  const TransmissionLine line = TransmissionLine::mmtag_interconnect(0.02);
  const Complex t = line.matched_transfer(24e9);
  EXPECT_NEAR(std::abs(t), phys::db_to_amplitude_ratio(-line.loss_db()),
              1e-12);
  // Phase is a delay (negative) matching beta * l modulo 2*pi.
  EXPECT_NEAR(phys::wrap_angle_rad(std::arg(t) +
                                   line.phase_delay_rad(24e9)),
              0.0, 1e-9);
}

TEST(Abcd, IdentityPassesThrough) {
  const AbcdMatrix identity;
  EXPECT_EQ(identity.input_impedance(Complex(42.0, 7.0)),
            Complex(42.0, 7.0));
  EXPECT_NEAR(std::abs(identity.s21(50.0)), 1.0, 1e-12);
}

TEST(Abcd, ShortedQuarterWaveLooksOpen) {
  // Classic transmission-line identity: a shorted lossless quarter-wave
  // line presents a near-open circuit.
  TransmissionLine::Params p;
  p.attenuation_db_per_m = 0.0;
  TransmissionLine probe(p);
  p.length_m = probe.guided_wavelength_m(24e9) / 4.0;
  const TransmissionLine quarter(p);
  const Complex zin = quarter.abcd(24e9).input_impedance(Complex(1e-9, 0.0));
  EXPECT_GT(std::abs(zin), 1e4);
}

TEST(Abcd, HalfWaveReproducesLoad) {
  TransmissionLine::Params p;
  p.attenuation_db_per_m = 0.0;
  TransmissionLine probe(p);
  p.length_m = probe.guided_wavelength_m(24e9) / 2.0;
  const TransmissionLine half(p);
  const Complex load(75.0, -20.0);
  const Complex zin = half.abcd(24e9).input_impedance(load);
  EXPECT_NEAR(zin.real(), load.real(), 1e-6);
  EXPECT_NEAR(zin.imag(), load.imag(), 1e-6);
}

TEST(Abcd, CascadeOfHalvesEqualsWhole) {
  const TransmissionLine whole = TransmissionLine::mmtag_interconnect(0.02);
  const TransmissionLine half = TransmissionLine::mmtag_interconnect(0.01);
  const AbcdMatrix cascaded = half.abcd(24e9).cascade(half.abcd(24e9));
  const AbcdMatrix direct = whole.abcd(24e9);
  EXPECT_NEAR(std::abs(cascaded.a - direct.a), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(cascaded.b - direct.b), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(cascaded.c - direct.c), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(cascaded.d - direct.d), 0.0, 1e-9);
}

TEST(Abcd, MatchedLineS21MatchesTransfer) {
  const TransmissionLine line = TransmissionLine::mmtag_interconnect(0.015);
  const Complex s21 = line.abcd(24e9).s21(50.0);
  const Complex transfer = line.matched_transfer(24e9);
  EXPECT_NEAR(std::abs(s21), std::abs(transfer), 1e-3);
  EXPECT_NEAR(phys::wrap_angle_rad(std::arg(s21) - std::arg(transfer)), 0.0,
              1e-3);
}

// Property: Van Atta requirement — equal-length lines have equal phase at
// every frequency across the band.
class LinePhaseEqualityTest : public ::testing::TestWithParam<double> {};

TEST_P(LinePhaseEqualityTest, EqualLengthsGiveEqualPhase) {
  const double f = GetParam();
  const TransmissionLine a = TransmissionLine::mmtag_interconnect(0.0137);
  const TransmissionLine b = TransmissionLine::mmtag_interconnect(0.0137);
  EXPECT_DOUBLE_EQ(a.phase_delay_rad(f), b.phase_delay_rad(f));
}

INSTANTIATE_TEST_SUITE_P(Band, LinePhaseEqualityTest,
                         ::testing::Values(23.5e9, 24.0e9, 24.125e9, 24.25e9,
                                           24.5e9));

}  // namespace
}  // namespace mmtag::em
