// Shows that each output check of the benchmark passes on the honest
// service and fails on the fault it exists to catch:
//  - a service released at another epsilon than the reference fails the
//    distribution and accuracy checks;
//  - a mirror with one edge perturbed fails the graph-state check;
//  - a budget tally off by one fails the budget check.
// Run: python3 servebench/run.py --self-test   (exit code 0 = all hold)

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "gen/generators.h"
#include "mirror.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

namespace servebench {
namespace {

constexpr double kEpsilon = 0.5;
constexpr double kDeltaF = 2.0;  // common neighbours, undirected
constexpr double kBudget = 1e6;

int failures = 0;

void Expect(bool cond, const std::string& what, const CheckResult& r) {
  std::cout << (cond ? "ok   " : "FAIL ") << what << " (" << r.detail << ")\n";
  if (!cond) ++failures;
}

privrec::CsrGraph SmallGraph() {
  privrec::Rng rng(42);
  const std::vector<double> weights = privrec::PowerLawWeights(400, 2.1);
  return std::move(privrec::ChungLu(weights, weights, 3000, false, rng))
      .ValueOrDie();
}

/// A service on `graph` at `epsilon`, its serves, and the checks' inputs.
struct Harness {
  Harness(const privrec::CsrGraph& graph, double epsilon)
      : dynamic(graph), mirror(graph), charged(graph.num_nodes(), 0) {
    privrec::ServiceOptions options;
    options.release_epsilon = epsilon;
    options.per_user_budget = kBudget;
    options.num_shards = 4;
    service = std::make_unique<privrec::RecommendationService>(
        &dynamic, std::make_unique<privrec::CommonNeighborsUtility>(), options);
  }

  /// Toggles a few edges on both service and mirror, then serves singles
  /// and lists to seeded users, tallying accuracy against its expectation.
  void Drive(uint64_t seed) {
    privrec::Rng rng(seed);
    const NodeId n = mirror.num_nodes();
    for (int toggled = 0; toggled < 20;) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v) continue;
      const bool add = !mirror.HasArc(u, v);
      if (!(add ? service->AddEdge(u, v) : service->RemoveEdge(u, v)).ok()) continue;
      mirror.Toggle(u, v, add);
      ++toggled;
    }
    std::vector<uint32_t> scratch(n, 0);
    for (int i = 0; i < 4000; ++i) {
      const NodeId user = static_cast<NodeId>(rng.NextBounded(n));
      if (i % 10 == 0) {
        auto list = service->ServeList(user, 10, rng);
        if (!list.ok()) continue;
        ++charged[user];
        std::vector<NodeId> picks;
        for (const auto& p : list->picks) picks.push_back(p.node);
        lists_valid = lists_valid && ValidList(mirror, 0, user, picks, 10);
        continue;
      }
      auto pick = service->ServeRecommendation(user, rng);
      if (!pick.ok()) continue;
      ++charged[user];
      picks_valid = picks_valid && mirror.IsCandidate(user, *pick, 0);
      const RefVector ref = mirror.Utilities(user, 0, scratch);
      if (ref.max == 0) continue;
      const AccuracyMoments m = ExactAccuracy(ref, kEpsilon, kDeltaF);
      observed += static_cast<double>(ref.At(*pick)) / ref.max;
      expected += m.mean;
      variance += m.second - m.mean * m.mean;
      ++serves;
    }
  }

  /// Budget-neutral draws for the user with the largest support.
  CheckResult Distribution() {
    std::vector<uint32_t> scratch(mirror.num_nodes(), 0);
    NodeId best = 0;
    size_t support = 0;
    for (NodeId v = 0; v < mirror.num_nodes(); ++v) {
      const size_t s = mirror.Utilities(v, 0, scratch).nonzero.size();
      if (s > support) {
        support = s;
        best = v;
      }
    }
    privrec::Rng rng(7);
    std::vector<NodeId> draws;
    for (int i = 0; i < 8000; ++i) draws.push_back(*service->ServeForAudit(best, rng));
    return CheckDistribution(mirror, 0, best, draws, kEpsilon, kDeltaF);
  }

  privrec::DynamicGraph dynamic;
  Mirror mirror;
  std::unique_ptr<privrec::RecommendationService> service;
  std::vector<uint32_t> charged;
  bool picks_valid = true;
  bool lists_valid = true;
  double observed = 0, expected = 0, variance = 0;
  uint64_t serves = 0;
};

void HonestServicePassesEveryCheck(const privrec::CsrGraph& graph) {
  Harness h(graph, kEpsilon);
  h.Drive(1);
  Expect(h.picks_valid && h.lists_valid, "honest picks and lists are candidates",
         CheckResult{true, "every pick checked on the mirror"});
  const CheckResult dist = h.Distribution();
  Expect(dist.ok, "honest distribution", dist);
  const CheckResult acc = CheckAccuracy(h.observed, h.expected, h.variance, h.serves);
  Expect(acc.ok, "honest accuracy", acc);
  const CheckResult budgets = CheckBudgets(*h.service, h.charged, kBudget, kEpsilon, false);
  Expect(budgets.ok, "honest budgets", budgets);
  const CheckResult state = CheckGraph(h.mirror, *h.dynamic.SharedSnapshot());
  Expect(state.ok, "honest graph state", state);
}

void OtherEpsilonFailsDistributionAndAccuracy(const privrec::CsrGraph& graph) {
  Harness h(graph, 4 * kEpsilon);
  h.Drive(2);
  const CheckResult dist = h.Distribution();
  Expect(!dist.ok, "service at 4x epsilon fails the distribution check", dist);
  const CheckResult acc = CheckAccuracy(h.observed, h.expected, h.variance, h.serves);
  Expect(!acc.ok, "service at 4x epsilon fails the accuracy check", acc);
}

void PerturbedMirrorFailsGraphState(const privrec::CsrGraph& graph) {
  Harness h(graph, kEpsilon);
  h.Drive(3);
  const NodeId u = 0;
  const NodeId v = h.mirror.Out(u).empty() ? 1 : h.mirror.Out(u)[0];
  h.mirror.Toggle(u, v, !h.mirror.HasArc(u, v));
  const CheckResult state = CheckGraph(h.mirror, *h.dynamic.SharedSnapshot());
  Expect(!state.ok, "a perturbed mirror edge fails the graph-state check", state);
}

void OffByOneTallyFailsBudgets(const privrec::CsrGraph& graph) {
  Harness h(graph, kEpsilon);
  h.Drive(4);
  ++h.charged[5];
  const CheckResult budgets = CheckBudgets(*h.service, h.charged, kBudget, kEpsilon, false);
  Expect(!budgets.ok, "an off-by-one tally fails the budget check", budgets);
}

}  // namespace
}  // namespace servebench

int main() {
  const privrec::CsrGraph graph = servebench::SmallGraph();
  servebench::HonestServicePassesEveryCheck(graph);
  servebench::OtherEpsilonFailsDistributionAndAccuracy(graph);
  servebench::PerturbedMirrorFailsGraphState(graph);
  servebench::OffByOneTallyFailsBudgets(graph);
  std::cout << (servebench::failures == 0 ? "all checks behave\n" : "FAILED\n");
  return servebench::failures == 0 ? 0 : 1;
}
