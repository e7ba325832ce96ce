#include "checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace servebench {
namespace {

constexpr double kMinExpected = 5.0;
constexpr size_t kMaxCandidateBins = 100;
/// Standard normal quantile of 1 - 1e-6.
constexpr double kZ = 4.753;

/// Wilson-Hilferty approximation of the chi-squared upper quantile.
double ChiSquaredCritical(double dof) {
  const double a = 2.0 / (9.0 * dof);
  return dof * std::pow(1.0 - a + kZ * std::sqrt(a), 3.0);
}

/// Normalized exponential-mechanism weights of ref's nonzero entries and
/// of the whole zero block.
std::vector<double> Probabilities(const RefVector& ref, double epsilon,
                                  double sensitivity, double* zero_block) {
  const double scale = epsilon / sensitivity;
  std::vector<double> probs;
  probs.reserve(ref.nonzero.size());
  double total = 0;
  for (const auto& [node, u] : ref.nonzero) {
    probs.push_back(std::exp(scale * (static_cast<double>(u) - ref.max)));
    total += probs.back();
  }
  const double zero_count =
      static_cast<double>(ref.num_candidates - ref.nonzero.size());
  *zero_block = zero_count * std::exp(-scale * ref.max);
  total += *zero_block;
  for (double& p : probs) p /= total;
  *zero_block /= total;
  return probs;
}

}  // namespace

AccuracyMoments ExactAccuracy(const RefVector& ref, double epsilon,
                              double sensitivity) {
  AccuracyMoments moments;
  if (ref.max == 0) return moments;
  double zero_block = 0;
  const std::vector<double> probs =
      Probabilities(ref, epsilon, sensitivity, &zero_block);
  for (size_t i = 0; i < probs.size(); ++i) {
    const double a = static_cast<double>(ref.nonzero[i].second) / ref.max;
    moments.mean += a * probs[i];
    moments.second += a * a * probs[i];
  }
  return moments;
}

CheckResult CheckDistribution(const Mirror& mirror, uint32_t cap, NodeId user,
                              std::span<const NodeId> draws, double epsilon,
                              double sensitivity) {
  std::vector<uint32_t> scratch(mirror.num_nodes(), 0);
  const RefVector ref = mirror.Utilities(user, cap, scratch);
  double zero_block = 0;
  const std::vector<double> probs =
      Probabilities(ref, epsilon, sensitivity, &zero_block);
  const double n = static_cast<double>(draws.size());

  // Bins: [0] zero block, [1] pooled nonzero candidates, then one bin per
  // candidate expecting at least kMinExpected draws (largest first).
  std::vector<size_t> order(probs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return probs[a] > probs[b]; });
  std::vector<double> expected = {zero_block * n, 0.0};
  std::unordered_map<NodeId, size_t> bin_of;
  for (size_t i : order) {
    const double e = probs[i] * n;
    if (e >= kMinExpected && expected.size() < 2 + kMaxCandidateBins) {
      bin_of[ref.nonzero[i].first] = expected.size();
      expected.push_back(e);
    } else {
      bin_of[ref.nonzero[i].first] = 1;
      expected[1] += e;
    }
  }
  std::vector<double> observed(expected.size(), 0.0);
  uint64_t invalid = 0;
  for (NodeId pick : draws) {
    if (!mirror.IsCandidate(user, pick, cap)) {
      ++invalid;
      continue;
    }
    auto it = bin_of.find(pick);
    observed[it == bin_of.end() ? 0 : it->second] += 1;
  }
  // Pool a sparse bin into the zero block so every bin expects >= 5.
  for (size_t b = 1; b < expected.size(); ++b) {
    if (expected[b] < kMinExpected) {
      expected[0] += expected[b];
      observed[0] += observed[b];
      expected[b] = observed[b] = 0;
    }
  }
  double chi2 = 0;
  int bins = 0;
  for (size_t b = 0; b < expected.size(); ++b) {
    if (expected[b] <= 0) {
      if (observed[b] > 0) chi2 = INFINITY;  // a draw the mechanism never makes
      continue;
    }
    ++bins;
    const double d = observed[b] - expected[b];
    chi2 += d * d / expected[b];
  }
  const int dof = bins - 1;
  const double critical = dof > 0 ? ChiSquaredCritical(dof) : 0.0;
  CheckResult result;
  // One bin (all mass in the zero block) leaves nothing to test but the
  // invalid draws; its statistic is float dust.
  result.ok = invalid == 0 && (dof == 0 || chi2 <= critical);
  std::ostringstream detail;
  detail << "user " << user << ": " << draws.size() << " draws, chi2 " << chi2
         << " on " << dof << " dof (critical " << critical << "), " << invalid
         << " invalid";
  result.detail = detail.str();
  return result;
}

CheckResult CheckAccuracy(double observed_sum, double expected_sum,
                          double variance_sum, uint64_t n) {
  CheckResult result;
  if (n == 0) return result;
  const double observed = observed_sum / n;
  const double expected = expected_sum / n;
  const double se = std::sqrt(variance_sum) / n;
  result.ok = std::abs(observed - expected) <= 5 * se + 1e-12;
  std::ostringstream detail;
  detail << "accuracy " << observed << " vs exact " << expected << " (se " << se
         << ", " << n << " serves)";
  result.detail = detail.str();
  return result;
}

CheckResult CheckBudgets(const privrec::RecommendationService& service,
                         std::span<const uint32_t> charged, double budget,
                         double epsilon, bool ledger) {
  CheckResult result;
  uint64_t total = 0;
  uint64_t mismatched = 0;
  std::ostringstream detail;
  for (NodeId user = 0; user < charged.size(); ++user) {
    total += charged[user];
    const double want = budget - epsilon * charged[user];
    const double got = service.RemainingBudget(user);
    if (std::abs(got - want) > 1e-9 * budget) {
      if (mismatched++ == 0) {
        detail << "user " << user << " remaining " << got << " want " << want
               << "; ";
      }
    }
  }
  const privrec::ServiceStats stats = service.stats();
  result.ok = mismatched == 0 && stats.served == total &&
              (!ledger || stats.ledger_appends == total);
  detail << mismatched << " users mismatched; served " << stats.served
         << ", ledger appends " << stats.ledger_appends << ", tally " << total;
  result.detail = detail.str();
  return result;
}

CheckResult CheckGraph(const Mirror& mirror, const privrec::CsrGraph& graph) {
  CheckResult result;
  result.ok = mirror.Equals(graph);
  result.detail = "snapshot " + std::to_string(graph.num_arcs()) +
                  " arcs, mirror " + std::to_string(mirror.num_arcs());
  return result;
}

bool ValidList(const Mirror& mirror, uint32_t cap, NodeId user,
               std::span<const NodeId> picks, size_t k) {
  if (picks.size() != k) return false;
  std::unordered_set<NodeId> seen;
  for (NodeId pick : picks) {
    if (!mirror.IsCandidate(user, pick, cap) || !seen.insert(pick).second) {
      return false;
    }
  }
  return true;
}

}  // namespace servebench
