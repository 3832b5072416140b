// Confidence intervals for the failure probabilities campaigns print.
//
// A campaign samples a finite fault list, so every Pf it reports is a
// binomial estimate: 5 failures out of 60 runs is 8.3%, but anything from
// 3.6% to 18.1% is consistent with it at 95% confidence. The Wilson score
// interval stays inside [0, 1] and keeps sensible coverage at the small
// sample counts and near-zero rates campaigns produce, where the normal
// approximation collapses to a zero-width interval.
#pragma once

#include <cstddef>

namespace issrtl::fault {

/// Two-sided interval on a proportion, both ends in [0, 1].
struct PfInterval {
  double lo = 0.0;
  double hi = 1.0;
};

/// 95% Wilson score interval for k successes in n trials. n == 0 carries
/// no information and yields the whole range [0, 1]; k > n is clamped to n.
PfInterval wilson95(std::size_t k, std::size_t n);

}  // namespace issrtl::fault
