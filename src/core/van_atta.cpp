#include "src/core/van_atta.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <span>

#include "src/phys/constants.hpp"
#include "src/phys/units.hpp"

namespace mmtag::core {

namespace {

antenna::UniformLinearArray make_geometry(const VanAttaArray::Config& config) {
  const double spacing = config.spacing_m > 0.0
                             ? config.spacing_m
                             : phys::wavelength_m(config.frequency_hz) / 2.0;
  return antenna::UniformLinearArray(config.elements, spacing,
                                     config.frequency_hz);
}

/// Arrays up to this many elements run the signal flow on the stack.
constexpr std::size_t kStackElements = 32;

/// `size` complex values on the stack, or on the heap past kStackElements
/// and once a coupling matrix has produced them (adopt).
class ElementBuffer {
 public:
  explicit ElementBuffer(std::size_t size)
      : heap_(size > kStackElements ? size : 0),
        data_(size > kStackElements ? heap_.data() : stack_.data()),
        size_(size) {}
  ElementBuffer(const ElementBuffer&) = delete;
  ElementBuffer& operator=(const ElementBuffer&) = delete;

  Complex& operator[](std::size_t i) { return data_[i]; }
  const Complex& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] Complex* data() { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const Complex> view() const { return {data_, size_}; }

  void adopt(std::vector<Complex> values) {
    assert(values.size() == size_);
    heap_ = std::move(values);
    data_ = heap_.data();
  }

 private:
  std::array<Complex, kStackElements> stack_;
  std::vector<Complex> heap_;
  Complex* data_;
  std::size_t size_;
};

/// The frequency-only factors of the signal flow at `frequency_hz`: the
/// feed coupling per em::SwitchState (kOff, kOn) and the matched transfer
/// per pair line. The one place either is computed.
void compute_terms(const em::PatchElement& element,
                   const std::vector<em::TransmissionLine>& pair_lines,
                   double frequency_hz, Complex* feed, Complex* line) {
  feed[0] = element.feed_coupling(em::SwitchState::kOff, frequency_hz);
  feed[1] = element.feed_coupling(em::SwitchState::kOn, frequency_hz);
  for (std::size_t p = 0; p < pair_lines.size(); ++p) {
    line[p] = pair_lines[p].matched_transfer(frequency_hz);
  }
}

/// Steering phasors e^{-j psi n} of paper Eq. (1) toward `theta_rad` at
/// `frequency_hz`, psi = k0 d sin(theta), one per element of `out`.
void steering_phasors(const antenna::UniformLinearArray& geometry,
                      double frequency_hz, double theta_rad,
                      ElementBuffer& out) {
  const double k0 = phys::wavenumber_rad_per_m(frequency_hz);
  const double psi = k0 * geometry.spacing_m() * std::sin(theta_rad);
  for (std::size_t n = 0; n < out.size(); ++n) {
    out[n] = std::polar(1.0, -psi * static_cast<double>(n));
  }
}

/// The signal flow, the one routine every field and gain goes through:
///   incident pickup -> [mutual coupling] -> switch/feed coupling ->
///   mirrored line routing -> switch/feed coupling -> [mutual coupling]
///   -> far-field projection.
/// `pickup` and `projection` hold the steering phasors toward theta_in and
/// theta_out, `feed_of(n)` element n's feed coupling and `line` the pair
/// lines' transfers. Returns the field before the element pattern.
template <class FeedOf>
Complex signal_flow(const ElementBuffer& pickup,
                    const ElementBuffer& projection, FeedOf feed_of,
                    const Complex* line,
                    const std::optional<antenna::CouplingMatrix>& coupling) {
  const std::size_t size = pickup.size();

  // Incident pickup per element (paper Eq. 1): x_n = e^{-j psi_in n}.
  ElementBuffer v(size);
  if (coupling) {
    v.adopt(coupling->apply(pickup.view()));
  } else {
    for (std::size_t n = 0; n < size; ++n) v[n] = pickup[n];
  }

  // Into the feeds (switch states gate each element)...
  for (std::size_t n = 0; n < size; ++n) v[n] *= feed_of(n);

  // ... through the mirrored interconnects (paper Eq. 4:
  // y'_n = e^{j phi} x_{N-1-n}, with per-pair loss included) ...
  ElementBuffer y(size);
  for (std::size_t rx = 0; rx < size; ++rx) {
    const std::size_t tx = size - 1 - rx;
    y[tx] = v[rx] * line[rx < tx ? rx : tx];
  }

  // ... out through the feeds again ...
  for (std::size_t n = 0; n < size; ++n) y[n] *= feed_of(n);
  if (coupling) y.adopt(coupling->apply(y.view()));

  // ... and projected onto the far field toward theta_out.
  Complex total(0.0, 0.0);
  for (std::size_t n = 0; n < size; ++n) total += y[n] * projection[n];
  return total;
}

/// Power gain [dB rel. isotropic scatterer] of a field of power `power`,
/// floored at -100 dB.
double power_gain_db(double power) {
  constexpr double kFloorDb = -100.0;
  if (power <= 1e-10) return kFloorDb;
  return phys::ratio_to_db(power);
}

std::size_t state_index(em::SwitchState state) {
  return state == em::SwitchState::kOn ? 1 : 0;
}

}  // namespace

struct VanAttaArray::CarrierTerms {
  std::array<Complex, 2> feed;  ///< Indexed by state_index.
  std::vector<Complex> line;    ///< One per pair line.
};

VanAttaArray::VanAttaArray(Config config, em::PatchElement element_model,
                           std::vector<em::TransmissionLine> pair_lines)
    : config_(config),
      element_model_(element_model),
      pair_lines_(std::move(pair_lines)),
      geometry_(make_geometry(config)),
      element_pattern_(),
      switch_states_(static_cast<std::size_t>(config.elements),
                     em::SwitchState::kOff) {
  assert(config_.elements >= 1);
  assert(config_.frequency_hz > 0.0);
  [[maybe_unused]] const std::size_t pairs =
      (static_cast<std::size_t>(config_.elements) + 1) / 2;
  assert(pair_lines_.size() == pairs &&
         "one transmission line per mirrored element pair");
  auto terms = std::make_shared<CarrierTerms>();
  terms->line.resize(pair_lines_.size());
  compute_terms(element_model_, pair_lines_, config_.frequency_hz,
                terms->feed.data(), terms->line.data());
  carrier_ = std::move(terms);
}

VanAttaArray VanAttaArray::mmtag_prototype() {
  static const VanAttaArray prototype =
      with_elements(phys::kMmTagPrototypeElements);
  return prototype;
}

VanAttaArray VanAttaArray::with_elements(int elements) {
  Config config;
  config.elements = elements;
  config.frequency_hz = phys::kMmTagCarrierHz;
  // Equal-length interconnects, one guided wavelength each: the common
  // phase phi of paper Eq. (4). (Any equal length works; one lambda_g keeps
  // losses realistic for the 60 x 45 mm board.)
  const std::size_t pairs = (static_cast<std::size_t>(elements) + 1) / 2;
  em::TransmissionLine reference = em::TransmissionLine::mmtag_interconnect(0.0);
  const double length = reference.guided_wavelength_m(config.frequency_hz);
  std::vector<em::TransmissionLine> lines;
  lines.reserve(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    lines.push_back(em::TransmissionLine::mmtag_interconnect(length));
  }
  return VanAttaArray(config, em::PatchElement::mmtag(), std::move(lines));
}

int VanAttaArray::pair_of(int n) const {
  assert(n >= 0 && n < config_.elements);
  return config_.elements - 1 - n;
}

void VanAttaArray::set_all_switches(em::SwitchState state) {
  for (em::SwitchState& s : switch_states_) s = state;
}

void VanAttaArray::set_switch(int n, em::SwitchState state) {
  assert(n >= 0 && n < config_.elements);
  switch_states_[static_cast<std::size_t>(n)] = state;
}

em::SwitchState VanAttaArray::switch_state(int n) const {
  assert(n >= 0 && n < config_.elements);
  return switch_states_[static_cast<std::size_t>(n)];
}

void VanAttaArray::set_mutual_coupling(antenna::CouplingMatrix coupling) {
  assert(coupling.order() == config_.elements);
  coupling_ = std::move(coupling);
}

Complex VanAttaArray::reradiated_field(double theta_in_rad,
                                       double theta_out_rad,
                                       double frequency_hz) const {
  const double a_in = element_pattern_.amplitude(theta_in_rad);
  const double a_out = element_pattern_.amplitude(theta_out_rad);
  ElementBuffer pickup(switch_states_.size());
  ElementBuffer projection(switch_states_.size());
  steering_phasors(geometry_, frequency_hz, theta_in_rad, pickup);
  steering_phasors(geometry_, frequency_hz, theta_out_rad, projection);
  const auto field = [&](const Complex* feed, const Complex* line) {
    const Complex total = signal_flow(
        pickup, projection,
        [&](std::size_t n) { return feed[state_index(switch_states_[n])]; },
        line, coupling_);
    return total * a_in * a_out;
  };

  // The frequency-only factors: the shared block at the carrier, the same
  // calls made here at any other frequency.
  if (frequency_hz == config_.frequency_hz) {
    return field(carrier_->feed.data(), carrier_->line.data());
  }
  std::array<Complex, 2> feed;
  ElementBuffer line(pair_lines_.size());
  compute_terms(element_model_, pair_lines_, frequency_hz, feed.data(),
                line.data());
  return field(feed.data(), line.data());
}

Complex VanAttaArray::reradiated_field(double theta_in_rad,
                                       double theta_out_rad) const {
  return reradiated_field(theta_in_rad, theta_out_rad, config_.frequency_hz);
}

double VanAttaArray::monostatic_gain_db(double theta_rad) const {
  return bistatic_gain_db(theta_rad, theta_rad);
}

StateGainsDb VanAttaArray::monostatic_state_gains_db(double theta_rad) const {
  // reradiated_field(theta, theta) for each uniform switch state, with the
  // steering phasors (the same toward theta_in and theta_out) and the
  // pattern amplitude computed once.
  const double a = element_pattern_.amplitude(theta_rad);
  ElementBuffer steering(switch_states_.size());
  steering_phasors(geometry_, config_.frequency_hz, theta_rad, steering);
  const auto gain_db = [&](em::SwitchState state) {
    const Complex feed = carrier_->feed[state_index(state)];
    const Complex total = signal_flow(
        steering, steering, [feed](std::size_t) { return feed; },
        carrier_->line.data(), coupling_);
    return power_gain_db(std::norm(total * a * a));
  };
  StateGainsDb gains;
  gains.off_db = gain_db(em::SwitchState::kOff);
  gains.on_db = gain_db(em::SwitchState::kOn);
  return gains;
}

double VanAttaArray::bistatic_gain_db(double theta_in_rad,
                                      double theta_out_rad) const {
  return power_gain_db(
      std::norm(reradiated_field(theta_in_rad, theta_out_rad)));
}

double VanAttaArray::peak_reradiation_direction_rad(
    double theta_in_rad) const {
  const auto power_at = [&](double theta_out) {
    return std::norm(reradiated_field(theta_in_rad, theta_out));
  };
  // Coarse sweep across the visible half-plane...
  const double lo_limit = -phys::kPi / 2.0;
  const double hi_limit = phys::kPi / 2.0;
  constexpr int kSteps = 720;
  double best_theta = 0.0;
  double best_power = -1.0;
  for (int i = 0; i <= kSteps; ++i) {
    const double theta = lo_limit + (hi_limit - lo_limit) * i / kSteps;
    const double p = power_at(theta);
    if (p > best_power) {
      best_power = p;
      best_theta = theta;
    }
  }
  // ... then golden-section refinement in the winning bracket.
  const double span = (hi_limit - lo_limit) / kSteps;
  double lo = best_theta - span;
  double hi = best_theta + span;
  constexpr double kGolden = 0.381966011250105;  // 2 - golden ratio.
  for (int i = 0; i < 60; ++i) {
    const double m1 = lo + kGolden * (hi - lo);
    const double m2 = hi - kGolden * (hi - lo);
    if (power_at(m1) > power_at(m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return (lo + hi) / 2.0;
}

double VanAttaArray::retro_beamwidth_deg(double theta_in_rad) const {
  const double peak_dir = peak_reradiation_direction_rad(theta_in_rad);
  const double peak_power =
      std::norm(reradiated_field(theta_in_rad, peak_dir));
  assert(peak_power > 0.0);
  const double half_power = peak_power / 2.0;
  const auto power_at = [&](double theta_out) {
    return std::norm(reradiated_field(theta_in_rad, theta_out));
  };
  const auto find_crossing = [&](double direction) {
    const double step = phys::deg_to_rad(0.05);
    double theta = peak_dir;
    while (std::abs(theta - peak_dir) < phys::kPi / 2.0) {
      const double next = theta + direction * step;
      if (power_at(next) < half_power) {
        double lo = theta;
        double hi = next;
        for (int i = 0; i < 40; ++i) {
          const double mid = (lo + hi) / 2.0;
          if (power_at(mid) >= half_power) {
            lo = mid;
          } else {
            hi = mid;
          }
        }
        return (lo + hi) / 2.0;
      }
      theta = next;
    }
    return theta;
  };
  const double left = find_crossing(-1.0);
  const double right = find_crossing(+1.0);
  return phys::rad_to_deg(right - left);
}

double VanAttaArray::link_side_gain_dbi() const {
  return element_pattern_.boresight_gain_dbi() +
         phys::ratio_to_db(static_cast<double>(config_.elements));
}

}  // namespace mmtag::core
