#include "src/deploy/link_cache.hpp"

#include <cassert>

#include "src/obs/gate.hpp"
#include "src/obs/metrics.hpp"

namespace mmtag::deploy {

namespace {

// Process-wide mirrors of the per-cache Stats counters. The per-object
// Stats stay the source of truth for FleetStats aggregation (cell merge
// order, fingerprints); these let any run's cache behaviour show up in
// bench --json metrics without plumbing.
obs::Counter& cache_lookups_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("deploy.cache.lookups");
  return counter;
}
obs::Counter& cache_hits_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("deploy.cache.hits");
  return counter;
}
obs::Counter& raytrace_evals_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("deploy.cache.raytrace_evals");
  return counter;
}
obs::Counter& evictions_metric() {
  static obs::Counter& counter =
      obs::Registry::instance().counter("deploy.cache.evictions");
  return counter;
}

}  // namespace

LinkCache::LinkCache(reader::MmWaveReader reader,
                     const channel::Environment* env,
                     const phy::RateTable* rates, bool enabled)
    : reader_(std::move(reader)), env_(env), rates_(rates),
      enabled_(enabled) {
  assert(env_ != nullptr && rates_ != nullptr);
}

const reader::LinkReport& LinkCache::link(const core::MmTag& tag,
                                          int beam_key,
                                          double boresight_rad) {
  ++stats_.lookups;
  if constexpr (obs::kObsEnabled) cache_lookups_metric().add(1);
  TagEntry& entry = entries_[tag.id()];

  if (enabled_) {
    const auto cached = entry.reports.find(beam_key);
    if (cached != entry.reports.end()) {
      ++stats_.hits;
      if constexpr (obs::kObsEnabled) cache_hits_metric().add(1);
      return cached->second;
    }
  }

  if (!enabled_ || !entry.paths_valid) {
    entry.paths = channel::trace_paths(*env_, reader_.pose().position,
                                       tag.pose().position);
    entry.paths_valid = enabled_;
    ++stats_.raytrace_evals;
    if constexpr (obs::kObsEnabled) raytrace_evals_metric().add(1);
  }

  reader_.steer_to_world(boresight_rad);
  const reader::LinkReport best =
      reader_.evaluate_best_path(tag, entry.paths, *rates_);
  if (!enabled_) {
    scratch_ = best;
    return scratch_;
  }
  return entry.reports.emplace(beam_key, best).first->second;
}

std::uint64_t LinkCache::entry_size(const TagEntry& entry) {
  return static_cast<std::uint64_t>(entry.reports.size()) +
         (entry.paths_valid ? 1u : 0u);
}

void LinkCache::invalidate_tag(std::uint32_t tag_id) {
  const auto it = entries_.find(tag_id);
  if (it == entries_.end()) return;
  const std::uint64_t evicted = entry_size(it->second);
  stats_.evictions += evicted;
  if constexpr (obs::kObsEnabled) evictions_metric().add(evicted);
  entries_.erase(it);
}

std::uint64_t LinkCache::invalidate_all() {
  std::uint64_t evicted = 0;
  for (const auto& [tag_id, entry] : entries_) evicted += entry_size(entry);
  stats_.evictions += evicted;
  if constexpr (obs::kObsEnabled) evictions_metric().add(evicted);
  entries_.clear();
  return evicted;
}

}  // namespace mmtag::deploy
