#include "fault/interval.hpp"

#include <algorithm>
#include <cmath>

namespace issrtl::fault {

PfInterval wilson95(std::size_t k, std::size_t n) {
  if (n == 0) return {};
  constexpr double z = 1.959963984540054;  // standard normal 97.5% quantile
  k = std::min(k, n);
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(k) / nn;
  const double z2n = z * z / nn;
  const double denom = 1.0 + z2n;
  const double center = (p + z2n / 2.0) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / nn + z2n / (4.0 * nn)) / denom;
  // At k == 0 and k == n the Wilson bound is exactly 0 or 1; pin it so
  // rounding cannot print 0.0% as a hair above zero or 100% as below.
  return {k == 0 ? 0.0 : std::max(0.0, center - half),
          k == n ? 1.0 : std::min(1.0, center + half)};
}

}  // namespace issrtl::fault
