// Struct-of-arrays tag population store for metro-scale simulation.
//
// deploy's fleet path stores tags as a vector of core::MmTag objects —
// fine at 2000 tags, hostile at a million: every hot scan (mobility,
// nearest-reader queries, service aggregation) walks 100+-byte objects to
// touch two doubles. TagStore transposes the population into parallel
// contiguous columns (pose, energy, MAC/session state), so the scale
// layer's epoch batcher can hand slabs of x/y straight to the kern SIMD
// kernels and MetroWorld's service accounting streams over columns.
//
// Slots are stable for a tag's lifetime and recycled through a free-list:
// destroying a tag never moves another tag's state, so spatial-index
// entries and cross-references stay valid. Populations built without
// destroy() are dense (slot == creation index), which is the layout every
// bench uses.
#pragma once

#include <cstdint>
#include <vector>

namespace mmtag::scale {

/// Index into the store's columns; stable until destroy(), then recycled.
using TagSlot = std::uint32_t;

inline constexpr TagSlot kInvalidSlot = 0xFFFFFFFFu;

class TagStore {
 public:
  TagStore() = default;

  /// Pre-size every column (avoids re-allocation churn while building
  /// million-tag populations).
  void reserve(std::size_t tags);

  /// Add a tag; returns its slot (recycled from the free-list when one is
  /// available, else appended). Service state starts zeroed.
  TagSlot create(std::uint32_t id, double x, double y,
                 double orientation_rad, double energy_j = 0.0);

  /// Recycle `slot`. The columns keep their size; the slot goes on the
  /// free-list and alive(slot) turns false.
  void destroy(TagSlot slot);

  [[nodiscard]] bool alive(TagSlot slot) const {
    return slot < alive_.size() && alive_[slot] != 0;
  }
  /// Live tags.
  [[nodiscard]] std::size_t size() const { return live_; }
  /// Column length (live + free slots). Dense populations: slots == size.
  [[nodiscard]] std::size_t slots() const { return alive_.size(); }

  /// Zero the MAC/session columns (read flags, first-read instants,
  /// delivered bits, polls) without touching poses or energy — the
  /// between-runs reset.
  void reset_service();

  // --- Pose columns -----------------------------------------------------
  [[nodiscard]] const double* xs() const { return x_.data(); }
  [[nodiscard]] const double* ys() const { return y_.data(); }
  [[nodiscard]] const double* orientations() const {
    return orientation_.data();
  }
  void set_position(TagSlot slot, double x, double y) {
    x_[slot] = x;
    y_[slot] = y;
  }
  void set_orientation(TagSlot slot, double orientation_rad) {
    orientation_[slot] = orientation_rad;
  }

  // --- Energy column ----------------------------------------------------
  [[nodiscard]] const double* energies() const { return energy_.data(); }
  [[nodiscard]] double* energies() { return energy_.data(); }

  // --- Identity column --------------------------------------------------
  [[nodiscard]] const std::uint32_t* ids() const { return id_.data(); }

  // --- MAC/session columns (one writer per slot at a time) --------------
  [[nodiscard]] const std::uint8_t* read_flags() const {
    return read_.data();
  }
  [[nodiscard]] std::uint8_t* read_flags() { return read_.data(); }
  [[nodiscard]] const double* first_read_s() const {
    return first_read_s_.data();
  }
  [[nodiscard]] double* first_read_s() { return first_read_s_.data(); }
  [[nodiscard]] const double* delivered_bits() const {
    return delivered_bits_.data();
  }
  [[nodiscard]] double* delivered_bits() { return delivered_bits_.data(); }
  [[nodiscard]] const long* polls() const { return polls_.data(); }
  [[nodiscard]] long* polls() { return polls_.data(); }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<double> orientation_;
  std::vector<double> energy_;
  std::vector<std::uint32_t> id_;
  std::vector<std::uint8_t> read_;
  std::vector<double> first_read_s_;
  std::vector<double> delivered_bits_;
  std::vector<long> polls_;
  std::vector<std::uint8_t> alive_;
  std::vector<TagSlot> free_;
  std::size_t live_ = 0;
};

}  // namespace mmtag::scale
