#ifndef SERVEBENCH_CHECKS_H_
#define SERVEBENCH_CHECKS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mirror.h"
#include "serve/recommendation_service.h"

namespace servebench {

/// Outcome of one output check: `ok`, and what was compared.
struct CheckResult {
  bool ok = true;
  std::string detail;
};

/// Exact exponential-mechanism moments of one user's single serve under
/// (epsilon, sensitivity), from the benchmark's own utilities: the
/// expected accuracy u(pick)/u_max and its second moment. Zero-block picks
/// contribute 0.
struct AccuracyMoments {
  double mean = 0;
  double second = 0;
};
AccuracyMoments ExactAccuracy(const RefVector& ref, double epsilon,
                              double sensitivity);

/// Chi-squared goodness of fit of `draws` (picks for `user` from repeated
/// budget-neutral serves) against the exact exponential mechanism on the
/// mirror's view: one bin per candidate expecting at least five draws, the
/// other nonzero candidates pooled, and the zero block pooled. Fails when a
/// draw is no candidate or the statistic exceeds its 1e-6 upper quantile.
CheckResult CheckDistribution(const Mirror& mirror, uint32_t cap, NodeId user,
                              std::span<const NodeId> draws, double epsilon,
                              double sensitivity);

/// Observed mean accuracy over n serves against the sum of their exact
/// expectations: fails beyond five standard errors.
CheckResult CheckAccuracy(double observed_sum, double expected_sum,
                          double variance_sum, uint64_t n);

/// Every user's remaining budget equals budget - epsilon * charged[user],
/// and stats().served (and, with a ledger, ledger_appends) equals the sum
/// of `charged`.
CheckResult CheckBudgets(const privrec::RecommendationService& service,
                         std::span<const uint32_t> charged, double budget,
                         double epsilon, bool ledger);

/// The service's current snapshot holds exactly the mirror's arcs.
CheckResult CheckGraph(const Mirror& mirror, const privrec::CsrGraph& graph);

/// A k-slot list holds k distinct candidates of `user` on the view.
bool ValidList(const Mirror& mirror, uint32_t cap, NodeId user,
               std::span<const NodeId> picks, size_t k);

}  // namespace servebench

#endif  // SERVEBENCH_CHECKS_H_
