#include "browser/metrics.h"

namespace vroom::browser {

double speed_index_ms(
    const std::vector<std::pair<sim::Time, double>>& paints) {
  double total_weight = 0;
  for (const auto& [t, w] : paints) total_weight += w;
  if (total_weight <= 0) return 0;
  // SI = integral over time of (1 - completeness) = sum_i w_i/W * t_i when
  // completeness steps at each paint event.
  double si = 0;
  for (const auto& [t, w] : paints) {
    si += (w / total_weight) * sim::to_ms(t);
  }
  return si;
}

}  // namespace vroom::browser
