// Memoized link budgets for the fleet hot loop.
//
// A fleet simulation evaluates the same (reader, tag, beam) link thousands
// of times per epoch — every poll re-checks the budget — yet the underlying
// geometry only changes when an entity moves. trace_paths() is by far the
// most expensive step (segment intersections against every wall and
// obstacle), so this cache memoizes it per tag and the derived LinkReport
// per (tag, beam), with dirty invalidation when mobility moves a tag and a
// full flush when the reader restarts. Counters expose
// lookups/hits/raytrace evaluations so benches can report the hit rate and
// the saved work (see bench_d1_fleet).
//
// The cache is per-reader (each ReaderCell owns one), so parallel cells
// never share mutable state — thread-count invariance of the fleet results
// stays structural rather than lock-enforced.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/channel/environment.hpp"
#include "src/channel/raytrace.hpp"
#include "src/core/tag.hpp"
#include "src/phy/rate_table.hpp"
#include "src/reader/reader.hpp"

namespace mmtag::deploy {

class LinkCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;  ///< Served without recomputing the report.
    std::uint64_t raytrace_evals = 0;  ///< trace_paths() invocations.
    std::uint64_t evictions = 0;  ///< Memoized entries dropped (reports +
                                  ///< traced path sets).

    [[nodiscard]] double hit_rate() const {
      return lookups > 0
                 ? static_cast<double>(hits) / static_cast<double>(lookups)
                 : 0.0;
    }
  };

  /// `env` and `rates` must outlive the cache. `enabled == false` turns the
  /// cache into a counting pass-through (every lookup re-traces), which is
  /// the uncached baseline the bench compares against.
  LinkCache(reader::MmWaveReader reader, const channel::Environment* env,
            const phy::RateTable* rates, bool enabled = true);

  /// Link report for `tag` with the reader steered to `boresight_rad`.
  /// `beam_key` must identify the steering uniquely (codebook index) —
  /// reports are memoized per (tag id, beam_key). The strongest of the
  /// ray-traced paths (by received power) is reported, matching
  /// MmWaveReader::evaluate_link.
  [[nodiscard]] const reader::LinkReport& link(const core::MmTag& tag,
                                               int beam_key,
                                               double boresight_rad);

  /// Drop everything cached for `tag_id` (call when the tag moved).
  void invalidate_tag(std::uint32_t tag_id);

  /// Drop every memoized entry (a restarted reader re-calibrates from
  /// scratch — stale link state must not survive the power cycle).
  /// Returns the number of entries evicted.
  std::uint64_t invalidate_all();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const reader::MmWaveReader& reader() const { return reader_; }
  [[nodiscard]] bool enabled() const { return enabled_; }

 private:
  struct TagEntry {
    std::vector<channel::Path> paths;
    bool paths_valid = false;
    std::unordered_map<int, reader::LinkReport> reports;  ///< By beam key.
  };

  /// Memoized entries held for `tag_id` (reports + traced path set).
  [[nodiscard]] static std::uint64_t entry_size(const TagEntry& entry);

  reader::MmWaveReader reader_;
  const channel::Environment* env_;
  const phy::RateTable* rates_;
  bool enabled_;
  std::unordered_map<std::uint32_t, TagEntry> entries_;
  Stats stats_;
  reader::LinkReport scratch_;  ///< Returned storage when disabled.
};

}  // namespace mmtag::deploy
