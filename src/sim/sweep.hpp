// Parameter-sweep helpers.
#pragma once

#include <vector>

namespace mmtag::sim {

/// `count` evenly spaced values from `first` to `last` inclusive.
[[nodiscard]] std::vector<double> linspace(double first, double last,
                                           int count);

}  // namespace mmtag::sim
