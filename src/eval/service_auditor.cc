#include "eval/service_auditor.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/statistics.h"
#include "graph/dynamic_graph.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "serve/concurrent_driver.h"
#include "serve/recommendation_service.h"

namespace privrec {
namespace {

/// One identical mutation applied to both sides of a pair for the
/// post-mutation path.
struct CommonToggle {
  NodeId a = 0;
  NodeId b = 0;
  bool present = false;  // present in both sides => toggle is a removal
};

bool SameUnorderedEdge(NodeId a, NodeId b, NodeId u, NodeId v) {
  return (a == u && b == v) || (a == v && b == u);
}

/// Picks an edge slot (a, b) whose state matches on both sides, is not
/// incident to the target, and is not the pair's differing edge — so
/// toggling it on BOTH services keeps the graphs neighbors. Prefers a in
/// N(target): that lands inside the target's 2-hop influence set, forcing
/// the delta-patch (or recompute) + re-freeze machinery the post-mutation
/// path exists to audit (a mutation outside the influence set would only
/// exercise the kept-entry path and the ratchet).
std::optional<CommonToggle> ChooseCommonToggle(const NeighboringPair& pair,
                                               NodeId target) {
  const CsrGraph& base = pair.base;
  const CsrGraph& nb = pair.neighbor;
  const NodeId n = base.num_nodes();
  auto eligible = [&](NodeId a, NodeId b) -> std::optional<CommonToggle> {
    if (a == b || a == target || b == target) return std::nullopt;
    if (pair.kind != NeighboringPair::Kind::kNodeRewired &&
        SameUnorderedEdge(a, b, pair.u, pair.v)) {
      return std::nullopt;
    }
    const bool in_base = base.HasEdge(a, b);
    if (in_base != nb.HasEdge(a, b)) return std::nullopt;
    if (!base.directed() && in_base != nb.HasEdge(b, a)) return std::nullopt;
    return CommonToggle{a, b, in_base};
  };
  for (NodeId a : base.OutNeighbors(target)) {
    for (NodeId b = 0; b < n; ++b) {
      if (auto toggle = eligible(a, b)) return toggle;
    }
  }
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (auto toggle = eligible(a, b)) return toggle;
    }
  }
  return std::nullopt;
}

/// The one place audit-side ServiceOptions are built: every driver
/// (per-path, cold per-trial, under-mutation) must configure the audited
/// services identically — privacy model, degree cap, and the
/// uncap_projection trip-wire included — or the audit would measure a
/// service nobody deploys.
ServiceOptions MakeAuditServiceOptions(const ServiceAuditOptions& options,
                                       size_t num_shards) {
  ServiceOptions service_options;
  service_options.release_epsilon = options.release_epsilon;
  service_options.per_user_budget = options.release_epsilon;
  service_options.num_shards = num_shards;
  service_options.seed = options.seed;
  service_options.privacy_model = options.privacy_model;
  service_options.degree_cap = options.degree_cap;
  service_options.uncap_projection = options.uncap_projection;
  return service_options;
}

uint64_t DeriveSeed(uint64_t root, uint64_t path, uint64_t side) {
  SplitMix64 mixer(root ^ (path * 0x9e3779b97f4a7c15ULL));
  mixer.Next();
  for (uint64_t i = 0; i <= side; ++i) mixer.Next();
  return mixer.Next() ^ (side + 1);
}

/// DeriveSeed path id for the under-mutation audit (0–3 are the
/// ServeAuditPath values; sides 0/1 = measurement streams, side 2 = the
/// mirrored mutator's toggle/churn streams).
constexpr uint64_t kMutationPathId = 4;

/// DeriveSeed path id for the under-faults audit (sides 0/1 = measurement
/// streams).
constexpr uint64_t kFaultPathId = 5;

/// DeriveSeed path id for the across-recovery audit (sides 0/1 =
/// measurement streams; each stream spans the crash boundary — the
/// recovered half continues where the pre-crash half stopped, identically
/// on both sides).
constexpr uint64_t kRecoveryPathId = 6;

/// One serve trial of the configured shape, recorded into `counts`
/// (single) or `reduction` (list).
Status RecordShapeTrial(RecommendationService& service, NodeId target,
                        ServeAuditShape shape, size_t list_k, Rng& rng,
                        std::map<NodeId, uint64_t>& counts,
                        ListOutcomeReduction& reduction) {
  if (shape == ServeAuditShape::kSingle) {
    PRIVREC_ASSIGN_OR_RETURN(NodeId outcome,
                             service.ServeForAudit(target, rng));
    ++counts[outcome];
    return Status::OK();
  }
  PRIVREC_ASSIGN_OR_RETURN(TopKResult list,
                           service.ServeListForAudit(target, list_k, rng));
  std::vector<uint32_t> items;
  items.reserve(list.picks.size());
  for (const Recommendation& pick : list.picks) {
    items.push_back(static_cast<uint32_t>(pick.node));
  }
  reduction.AddList(items);
  return Status::OK();
}

/// Builds the per-path estimate from whichever recorder the shape filled.
PathEpsilonEstimate EstimateShape(
    const std::string& path_name, ServeAuditShape shape,
    const std::map<NodeId, uint64_t>& base_counts,
    const std::map<NodeId, uint64_t>& neighbor_counts,
    const ListOutcomeReduction& base_reduction,
    const ListOutcomeReduction& neighbor_reduction, uint64_t trials,
    double confidence, size_t bonferroni_override) {
  if (shape == ServeAuditShape::kSingle) {
    return EstimateEpsilonFromCounts(path_name, base_counts, neighbor_counts,
                                     trials, confidence, bonferroni_override);
  }
  const EpsilonCellEstimate cells = EstimateEpsilonFromListReductions(
      base_reduction, neighbor_reduction, confidence, bonferroni_override);
  PathEpsilonEstimate estimate;
  estimate.path = path_name;
  estimate.trials_per_side = trials;
  estimate.epsilon_hat = cells.epsilon_hat;
  estimate.epsilon_lower_bound = cells.epsilon_lower_bound;
  // Cell ids carry (position | item) or a sequence hash; the low 32 bits
  // are the item for marginal cells, which is the most useful NodeId-sized
  // projection for dashboards.
  estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
  estimate.worst_z = cells.worst_z;
  estimate.bonferroni_cells = cells.bonferroni_cells;
  return estimate;
}

/// Largest-remainder apportionment of `total` trials across weights
/// (deterministic: ties break to the lowest index). Zero/negative weight
/// vectors fall back to uniform.
std::vector<uint64_t> Apportion(uint64_t total, std::vector<double> weights) {
  const size_t n = weights.size();
  PRIVREC_CHECK_GT(n, 0u);
  double sum = 0;
  for (double w : weights) sum += std::max(w, 0.0);
  if (sum <= 0) {
    weights.assign(n, 1.0);
    sum = static_cast<double>(n);
  }
  std::vector<uint64_t> alloc(n, 0);
  std::vector<std::pair<double, size_t>> fractions;
  fractions.reserve(n);
  uint64_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    const double quota =
        static_cast<double>(total) * std::max(weights[i], 0.0) / sum;
    alloc[i] = static_cast<uint64_t>(quota);
    assigned += alloc[i];
    fractions.emplace_back(quota - static_cast<double>(alloc[i]), i);
  }
  std::sort(fractions.begin(), fractions.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (size_t i = 0; assigned < total; ++i) {
    ++alloc[fractions[i % n].second];
    ++assigned;
  }
  return alloc;
}

/// One audited (path, pair) trial engine, both sides. Construction + Init
/// reproduce the exact service arrangement the one-shot audit used
/// (fresh graphs per path, warm-up discard, post-mutation toggle), but the
/// trial loop is callable in slices so the adaptive allocator can keep
/// spending on the path whose intervals are widest — RNG streams and
/// service state persist across slices, so (seed → transcript) stays a
/// pure function no matter how the budget lands.
class PathTrialDriver {
 public:
  PathTrialDriver(const ServiceAuditor::UtilityFactory& factory,
                  const ServiceAuditOptions& options,
                  const NeighboringPair& pair, NodeId target,
                  ServeAuditPath path)
      : factory_(factory),
        options_(options),
        pair_(pair),
        target_(target),
        path_(path) {}

  Status Init() {
    if (path_ == ServeAuditPath::kPostMutation) {
      toggle_ = ChooseCommonToggle(pair_, target_);
      if (!toggle_.has_value()) {
        return Status::FailedPrecondition(
            "no common edge slot available for the post-mutation toggle");
      }
    }
    for (int side = 0; side < 2; ++side) {
      SideState& state = sides_[side];
      const CsrGraph& side_graph = side == 0 ? pair_.base : pair_.neighbor;
      // Each (path, side) owns a fresh dynamic graph: the post-mutation
      // path mutates it, and cross-path state bleed would make the audit
      // depend on path order.
      state.graph = std::make_unique<DynamicGraph>(side_graph);
      const ServiceOptions service_options = MakeAuditServiceOptions(
          options_,
          path_ == ServeAuditPath::kMultiShard ? options_.multi_shard_count
                                               : 1);
      state.rng = Rng(DeriveSeed(options_.seed, static_cast<uint64_t>(path_),
                                 static_cast<uint64_t>(side)));
      if (path_ == ServeAuditPath::kCold) continue;
      state.service = std::make_unique<RecommendationService>(
          state.graph.get(), factory_(), service_options);
      // Warm the cache so the sampled trials sit on the path under audit
      // (the warm-up draw itself is the cold path; discard it).
      PRIVREC_RETURN_NOT_OK(Warmup(state));
      if (path_ == ServeAuditPath::kPostMutation) {
        const Status mutated =
            toggle_->present
                ? state.service->RemoveEdge(toggle_->a, toggle_->b)
                : state.service->AddEdge(toggle_->a, toggle_->b);
        PRIVREC_RETURN_NOT_OK(mutated);
      }
    }
    return Status::OK();
  }

  Status RunTrials(uint64_t n) {
    for (int side = 0; side < 2; ++side) {
      SideState& state = sides_[side];
      for (uint64_t t = 0; t < n; ++t) {
        if (path_ == ServeAuditPath::kCold) {
          RecommendationService service(state.graph.get(), factory_(),
                                        MakeAuditServiceOptions(options_, 1));
          PRIVREC_RETURN_NOT_OK(
              RecordShapeTrial(service, target_, options_.shape,
                               options_.list_k, state.rng, state.counts,
                               state.reduction));
          continue;
        }
        PRIVREC_RETURN_NOT_OK(
            RecordShapeTrial(*state.service, target_, options_.shape,
                             options_.list_k, state.rng, state.counts,
                             state.reduction));
      }
    }
    trials_done_ += n;
    return Status::OK();
  }

  uint64_t trials_done() const { return trials_done_; }

  PathEpsilonEstimate Estimate(double confidence) const {
    return EstimateShape(ServeAuditPathName(path_), options_.shape,
                         sides_[0].counts, sides_[1].counts,
                         sides_[0].reduction, sides_[1].reduction,
                         trials_done_, confidence,
                         options_.bonferroni_cells_override);
  }

 private:
  struct SideState {
    std::unique_ptr<DynamicGraph> graph;
    std::unique_ptr<RecommendationService> service;  // null for cold
    Rng rng{0};
    std::map<NodeId, uint64_t> counts;
    ListOutcomeReduction reduction;
  };

  Status Warmup(SideState& state) {
    if (options_.shape == ServeAuditShape::kSingle) {
      return state.service->ServeForAudit(target_, state.rng).status();
    }
    return state.service
        ->ServeListForAudit(target_, options_.list_k, state.rng)
        .status();
  }

  const ServiceAuditor::UtilityFactory& factory_;
  const ServiceAuditOptions& options_;
  const NeighboringPair& pair_;
  NodeId target_;
  ServeAuditPath path_;
  std::optional<CommonToggle> toggle_;
  SideState sides_[2];
  uint64_t trials_done_ = 0;
};

ServiceStats SumStats(ServiceStats a, const ServiceStats& b) {
  a += b;
  return a;
}

}  // namespace

PathEpsilonEstimate EstimateEpsilonFromCounts(
    const std::string& path_name,
    const std::map<NodeId, uint64_t>& base_counts,
    const std::map<NodeId, uint64_t>& neighbor_counts, uint64_t trials,
    double confidence, size_t bonferroni_override) {
  // Thin adapter over the shared outcome-cell kit (common/statistics.h):
  // NodeId outcomes are already 64-bit-safe cell ids, and the kit computes
  // the identical per-interval confidence 1 - (1-γ)/(2m), half-count
  // floors, and CP-box certified bounds this function always used.
  OutcomeCellCounts base_cells;
  OutcomeCellCounts neighbor_cells;
  for (const auto& [node, count] : base_counts) {
    base_cells[static_cast<uint64_t>(node)] = count;
  }
  for (const auto& [node, count] : neighbor_counts) {
    neighbor_cells[static_cast<uint64_t>(node)] = count;
  }
  const EpsilonCellEstimate cells = EstimateEpsilonFromOutcomeCells(
      base_cells, neighbor_cells, trials, confidence, bonferroni_override,
      /*include_complements=*/false);
  PathEpsilonEstimate estimate;
  estimate.path = path_name;
  estimate.trials_per_side = trials;
  estimate.epsilon_hat = cells.epsilon_hat;
  estimate.epsilon_lower_bound = cells.epsilon_lower_bound;
  estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
  estimate.worst_z = cells.worst_z;
  estimate.bonferroni_cells = cells.bonferroni_cells;
  return estimate;
}

const char* ServeAuditPathName(ServeAuditPath path) {
  switch (path) {
    case ServeAuditPath::kCold:
      return "cold";
    case ServeAuditPath::kCacheHit:
      return "cache_hit";
    case ServeAuditPath::kPostMutation:
      return "post_mutation";
    case ServeAuditPath::kMultiShard:
      return "multi_shard";
  }
  return "unknown";
}

ServiceAuditor::ServiceAuditor(UtilityFactory utility_factory,
                               ServiceAuditOptions options)
    : utility_factory_(std::move(utility_factory)),
      options_(std::move(options)) {
  PRIVREC_CHECK(utility_factory_ != nullptr);
  PRIVREC_CHECK_GT(options_.release_epsilon, 0.0);
  // Uniform mode draws trials_per_side per path; a total_trial_budget
  // supersedes it (the adaptive loop ignores trials_per_side entirely).
  PRIVREC_CHECK(options_.trials_per_side > 0 ||
                options_.total_trial_budget > 0);
  PRIVREC_CHECK_GT(options_.confidence, 0.0);
  PRIVREC_CHECK(options_.confidence < 1.0);
  if (options_.paths.empty()) {
    options_.paths.assign(std::begin(kAllServeAuditPaths),
                          std::end(kAllServeAuditPaths));
  }
}

Result<DpAuditResult> ServiceAuditor::AuditPair(const NeighboringPair& pair,
                                                NodeId target) const {
  return AuditPairAtConfidence(pair, target, options_.confidence);
}

Result<DpAuditResult> ServiceAuditor::AuditPairAtConfidence(
    const NeighboringPair& pair, NodeId target, double confidence) const {
  if (pair.base.num_nodes() != pair.neighbor.num_nodes() ||
      pair.base.directed() != pair.neighbor.directed()) {
    return Status::InvalidArgument(
        "pair sides disagree on node count or direction");
  }
  if (target >= pair.base.num_nodes()) {
    return Status::InvalidArgument("target out of range");
  }

  DpAuditResult result;
  result.pairs_checked = 1;
  result.worst_edge_u = pair.u;
  result.worst_edge_v = pair.v;

  std::vector<std::unique_ptr<PathTrialDriver>> drivers;
  drivers.reserve(options_.paths.size());
  for (ServeAuditPath path : options_.paths) {
    drivers.push_back(std::make_unique<PathTrialDriver>(
        utility_factory_, options_, pair, target, path));
    PRIVREC_RETURN_NOT_OK(drivers.back()->Init());
  }

  if (options_.total_trial_budget == 0) {
    // Uniform allocation: every path gets trials_per_side, matching the
    // pre-adaptive audit transcript exactly.
    for (auto& driver : drivers) {
      PRIVREC_RETURN_NOT_OK(driver->RunTrials(options_.trials_per_side));
    }
  } else {
    // Adaptive allocation: spend the fixed total budget round by round,
    // steering each round's slice toward the paths whose certification
    // gap (ε̂ − certified bound) is widest. The gap IS the interval
    // width the CP box leaves unresolved, so trials land where they
    // shrink uncertainty fastest; round 1 has no estimates yet and
    // splits uniformly. Total spend is exactly the budget (apportionment
    // is exact), and determinism holds because each driver's streams
    // persist across rounds.
    const uint64_t budget = options_.total_trial_budget;
    const uint64_t rounds = std::max<uint64_t>(1, options_.adaptive_rounds);
    for (uint64_t round = 0; round < rounds; ++round) {
      const uint64_t slice =
          budget / rounds + (round < budget % rounds ? 1 : 0);
      if (slice == 0) continue;
      std::vector<double> widths(drivers.size(), 1.0);
      if (round > 0) {
        for (size_t i = 0; i < drivers.size(); ++i) {
          const PathEpsilonEstimate estimate =
              drivers[i]->Estimate(confidence);
          widths[i] = estimate.epsilon_hat - estimate.epsilon_lower_bound;
        }
      }
      const std::vector<uint64_t> alloc = Apportion(slice, widths);
      for (size_t i = 0; i < drivers.size(); ++i) {
        if (alloc[i] > 0) PRIVREC_RETURN_NOT_OK(drivers[i]->RunTrials(alloc[i]));
      }
    }
  }

  for (auto& driver : drivers) {
    PathEpsilonEstimate estimate = driver->Estimate(confidence);
    result.max_abs_log_ratio =
        std::max(result.max_abs_log_ratio, estimate.epsilon_hat);
    result.per_path.push_back(std::move(estimate));
  }
  return result;
}

Result<DpAuditResult> ServiceAuditor::AuditPairUnderMutation(
    const NeighboringPair& pair, NodeId target,
    const MutationAuditOptions& mutation, ServiceStats* stats_out) const {
  if (pair.base.num_nodes() != pair.neighbor.num_nodes() ||
      pair.base.directed() != pair.neighbor.directed()) {
    return Status::InvalidArgument(
        "pair sides disagree on node count or direction");
  }
  if (target >= pair.base.num_nodes()) {
    return Status::InvalidArgument("target out of range");
  }
  const uint64_t rounds = std::max<uint64_t>(1, mutation.rounds);
  const uint64_t trials_per_round = options_.trials_per_side / rounds;
  if (trials_per_round == 0) {
    return Status::InvalidArgument(
        "trials_per_side must cover at least one trial per round");
  }

  DynamicGraph graphs[2] = {DynamicGraph(pair.base),
                            DynamicGraph(pair.neighbor)};
  if (mutation.journal_capacity > 0) {
    graphs[0].SetJournalCapacity(mutation.journal_capacity);
    graphs[1].SetJournalCapacity(mutation.journal_capacity);
  }
  // Two shards: the audited target and the churn users stripe across
  // shards, so repair, snapshot re-pinning, and sensitivity memos all run
  // under real shard concurrency — while keeping per-shard state small
  // enough that every mutation round actually touches it.
  const ServiceOptions service_options = MakeAuditServiceOptions(options_, 2);
  RecommendationService base_service(&graphs[0], utility_factory_(),
                                     service_options);
  RecommendationService neighbor_service(&graphs[1], utility_factory_(),
                                         service_options);
  RecommendationService* services[2] = {&base_service, &neighbor_service};
  Rng rngs[2] = {Rng(DeriveSeed(options_.seed, kMutationPathId, 0)),
                 Rng(DeriveSeed(options_.seed, kMutationPathId, 1))};
  // Warm both sides so round 1's trials already sit on the cached-entry
  // path that each round's mutations will then have to repair.
  for (int side = 0; side < 2; ++side) {
    const Status warm =
        options_.shape == ServeAuditShape::kSingle
            ? services[side]->ServeForAudit(target, rngs[side]).status()
            : services[side]
                  ->ServeListForAudit(target, options_.list_k, rngs[side])
                  .status();
    PRIVREC_RETURN_NOT_OK(warm);
  }

  MirroredMutatorOptions mutator_options;
  mutator_options.num_threads = mutation.mutator_threads;
  mutator_options.toggles_per_thread = mutation.toggles_per_thread_per_round;
  mutator_options.churn_serves_per_thread =
      mutation.churn_serves_per_thread_per_round;
  mutator_options.seed = DeriveSeed(options_.seed, kMutationPathId, 2);
  MirroredMutator mutator(&base_service, &neighbor_service, pair.base, target,
                          pair.u, pair.v, mutator_options);

  // Outcome cells are keyed by (round, outcome), not outcome alone. The
  // round index is public (the auditor controls the schedule), and within
  // a round the two sides sit in identical-except-toggle states, so every
  // (round, outcome) cell's probability ratio is e^ε-bounded for an
  // honest service. Pooling rounds instead would average the per-state
  // ratios — a mis-calibrated service whose leak peaks in some graph
  // states would hide behind the states where it happens not to leak.
  OutcomeCellCounts round_cells[2];
  std::vector<ListOutcomeReduction> round_reductions[2];
  for (uint64_t round = 0; round < rounds; ++round) {
    // Concurrent phase: identical toggle streams + churn on both sides.
    // RunPhase joins its workers, so the measurement slice below runs
    // against a settled, deterministic graph state.
    mutator.RunPhase();
    for (int side = 0; side < 2; ++side) {
      if (options_.shape == ServeAuditShape::kList) {
        round_reductions[side].emplace_back();
      }
      for (uint64_t t = 0; t < trials_per_round; ++t) {
        if (options_.shape == ServeAuditShape::kSingle) {
          PRIVREC_ASSIGN_OR_RETURN(
              NodeId outcome,
              services[side]->ServeForAudit(target, rngs[side]));
          ++round_cells[side][((round + 1) << 32) |
                              static_cast<uint64_t>(outcome)];
        } else {
          std::map<NodeId, uint64_t> unused;
          PRIVREC_RETURN_NOT_OK(RecordShapeTrial(
              *services[side], target, options_.shape, options_.list_k,
              rngs[side], unused, round_reductions[side].back()));
        }
      }
    }
  }

  DpAuditResult result;
  result.pairs_checked = 1;
  result.worst_edge_u = pair.u;
  result.worst_edge_v = pair.v;
  PathEpsilonEstimate estimate;
  estimate.path = "under_mutation";
  estimate.trials_per_side = trials_per_round * rounds;
  if (options_.shape == ServeAuditShape::kSingle) {
    const EpsilonCellEstimate cells = EstimateEpsilonFromOutcomeCells(
        round_cells[0], round_cells[1], trials_per_round * rounds,
        options_.confidence, options_.bonferroni_cells_override,
        /*include_complements=*/false);
    estimate.epsilon_hat = cells.epsilon_hat;
    estimate.epsilon_lower_bound = cells.epsilon_lower_bound;
    estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
    estimate.worst_z = cells.worst_z;
    estimate.bonferroni_cells = cells.bonferroni_cells;
  } else {
    // Per-round list reductions share one Bonferroni budget: first total
    // the cells every round contributes, then re-estimate each round at
    // that shared correction and keep the worst.
    size_t total_cells = options_.bonferroni_cells_override;
    if (total_cells == 0) {
      for (uint64_t round = 0; round < rounds; ++round) {
        total_cells += EstimateEpsilonFromListReductions(
                           round_reductions[0][round],
                           round_reductions[1][round], options_.confidence)
                           .bonferroni_cells;
      }
    }
    for (uint64_t round = 0; round < rounds; ++round) {
      const EpsilonCellEstimate cells = EstimateEpsilonFromListReductions(
          round_reductions[0][round], round_reductions[1][round],
          options_.confidence, total_cells);
      if (cells.epsilon_hat > estimate.epsilon_hat) {
        estimate.epsilon_hat = cells.epsilon_hat;
        estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
      }
      estimate.epsilon_lower_bound =
          std::max(estimate.epsilon_lower_bound, cells.epsilon_lower_bound);
      estimate.worst_z = std::max(estimate.worst_z, cells.worst_z);
    }
    estimate.bonferroni_cells = total_cells;
  }
  result.max_abs_log_ratio = estimate.epsilon_hat;
  result.per_path.push_back(std::move(estimate));
  if (stats_out != nullptr) {
    *stats_out = SumStats(base_service.stats(), neighbor_service.stats());
  }
  return result;
}

Result<DpAuditResult> ServiceAuditor::AuditPairUnderFaults(
    const NeighboringPair& pair, NodeId target,
    const FaultAuditOptions& faults, ServiceStats* stats_out) const {
  if (pair.base.num_nodes() != pair.neighbor.num_nodes() ||
      pair.base.directed() != pair.neighbor.directed()) {
    return Status::InvalidArgument(
        "pair sides disagree on node count or direction");
  }
  if (target >= pair.base.num_nodes()) {
    return Status::InvalidArgument("target out of range");
  }
  const uint64_t trials = std::max<uint64_t>(1, options_.trials_per_side);

  DynamicGraph graphs[2] = {DynamicGraph(pair.base),
                            DynamicGraph(pair.neighbor)};
  if (faults.journal_capacity > 0) {
    graphs[0].SetJournalCapacity(faults.journal_capacity);
    graphs[1].SetJournalCapacity(faults.journal_capacity);
  }
  // One injector per side: identical plans driven by the mirrored call
  // sequence below fire identically, so the two sides stay in lockstep
  // fault states (equal fire counts are asserted at the end).
  FaultInjector injectors[2];
  std::unique_ptr<RecommendationService> services[2];
  Rng rngs[2] = {Rng(DeriveSeed(options_.seed, kFaultPathId, 0)),
                 Rng(DeriveSeed(options_.seed, kFaultPathId, 1))};
  for (int side = 0; side < 2; ++side) {
    ServiceOptions service_options = MakeAuditServiceOptions(options_, 2);
    service_options.fault_injector = &injectors[side];
    service_options.retry = faults.retry;
    services[side] = std::make_unique<RecommendationService>(
        &graphs[side], utility_factory_(), service_options);
  }
  // Warm both sides BEFORE arming the plan: the measured trials then sit
  // on the cached-entry path, which is the path the injected faults
  // (repair failure, journal compaction, patch failures) actually bend.
  for (int side = 0; side < 2; ++side) {
    const Status warm =
        options_.shape == ServeAuditShape::kSingle
            ? services[side]->ServeForAudit(target, rngs[side]).status()
            : services[side]
                  ->ServeListForAudit(target, options_.list_k, rngs[side])
                  .status();
    PRIVREC_RETURN_NOT_OK(warm);
  }
  injectors[0].Install(faults.plan);
  injectors[1].Install(faults.plan);

  std::optional<CommonToggle> toggle;
  if (faults.mutations_between_trials > 0) {
    toggle = ChooseCommonToggle(pair, target);
    if (!toggle.has_value()) {
      return Status::FailedPrecondition(
          "no common edge slot available for the under-faults toggles");
    }
  }
  bool present = toggle.has_value() && toggle->present;

  // Outcome cells are keyed by (parity, outcome): the common slot cycles
  // the graph state with period 2, the parity schedule is public, and at
  // equal parity the two sides are neighbors — so each cell of an honest
  // service is e^ε-bounded, exactly the under-mutation argument with the
  // round index collapsed to the toggle parity.
  OutcomeCellCounts parity_cells[2];
  ListOutcomeReduction parity_reductions[2][2];  // [side][parity]
  uint64_t parity_trials[2] = {0, 0};
  for (uint64_t t = 0; t < trials; ++t) {
    for (uint64_t m = 0; m < faults.mutations_between_trials; ++m) {
      for (int side = 0; side < 2; ++side) {
        const Status mutated =
            present ? services[side]->RemoveEdge(toggle->a, toggle->b)
                    : services[side]->AddEdge(toggle->a, toggle->b);
        PRIVREC_RETURN_NOT_OK(mutated);
      }
      present = !present;
    }
    const uint64_t parity =
        (toggle.has_value() && present != toggle->present) ? 1 : 0;
    ++parity_trials[parity];
    for (int side = 0; side < 2; ++side) {
      if (options_.shape == ServeAuditShape::kSingle) {
        PRIVREC_ASSIGN_OR_RETURN(
            NodeId outcome, services[side]->ServeForAudit(target, rngs[side]));
        ++parity_cells[side][((parity + 1) << 32) |
                             static_cast<uint64_t>(outcome)];
      } else {
        std::map<NodeId, uint64_t> unused;
        PRIVREC_RETURN_NOT_OK(RecordShapeTrial(
            *services[side], target, options_.shape, options_.list_k,
            rngs[side], unused, parity_reductions[side][parity]));
      }
    }
  }
  // The determinism contract made observable: mirrored plans + mirrored
  // drive sequences must have produced identical fire counts.
  PRIVREC_CHECK_EQ(injectors[0].total_fires(), injectors[1].total_fires());

  DpAuditResult result;
  result.pairs_checked = 1;
  result.worst_edge_u = pair.u;
  result.worst_edge_v = pair.v;
  PathEpsilonEstimate estimate;
  estimate.path = "under_faults";
  estimate.trials_per_side = trials;
  if (options_.shape == ServeAuditShape::kSingle) {
    const EpsilonCellEstimate cells = EstimateEpsilonFromOutcomeCells(
        parity_cells[0], parity_cells[1], trials, options_.confidence,
        options_.bonferroni_cells_override,
        /*include_complements=*/false);
    estimate.epsilon_hat = cells.epsilon_hat;
    estimate.epsilon_lower_bound = cells.epsilon_lower_bound;
    estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
    estimate.worst_z = cells.worst_z;
    estimate.bonferroni_cells = cells.bonferroni_cells;
  } else {
    // Per-parity list reductions share one Bonferroni budget, mirroring
    // the under-mutation per-round merge.
    size_t total_cells = options_.bonferroni_cells_override;
    if (total_cells == 0) {
      for (int parity = 0; parity < 2; ++parity) {
        if (parity_trials[parity] == 0) continue;
        total_cells += EstimateEpsilonFromListReductions(
                           parity_reductions[0][parity],
                           parity_reductions[1][parity], options_.confidence)
                           .bonferroni_cells;
      }
    }
    for (int parity = 0; parity < 2; ++parity) {
      if (parity_trials[parity] == 0) continue;
      const EpsilonCellEstimate cells = EstimateEpsilonFromListReductions(
          parity_reductions[0][parity], parity_reductions[1][parity],
          options_.confidence, total_cells);
      if (cells.epsilon_hat > estimate.epsilon_hat) {
        estimate.epsilon_hat = cells.epsilon_hat;
        estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
      }
      estimate.epsilon_lower_bound =
          std::max(estimate.epsilon_lower_bound, cells.epsilon_lower_bound);
      estimate.worst_z = std::max(estimate.worst_z, cells.worst_z);
    }
    estimate.bonferroni_cells = total_cells;
  }
  result.max_abs_log_ratio = estimate.epsilon_hat;
  result.per_path.push_back(std::move(estimate));
  if (stats_out != nullptr) {
    *stats_out = SumStats(services[0]->stats(), services[1]->stats());
  }
  return result;
}

Result<DpAuditResult> ServiceAuditor::AuditAcrossRecovery(
    const NeighboringPair& pair, NodeId target,
    const RecoveryAuditOptions& recovery, ServiceStats* stats_out) const {
  if (options_.shape != ServeAuditShape::kSingle) {
    return Status::InvalidArgument(
        "AuditAcrossRecovery supports ServeAuditShape::kSingle only");
  }
  if (recovery.state_dir.empty()) {
    return Status::InvalidArgument(
        "RecoveryAuditOptions::state_dir is required");
  }
  if (pair.base.num_nodes() != pair.neighbor.num_nodes() ||
      pair.base.directed() != pair.neighbor.directed()) {
    return Status::InvalidArgument(
        "pair sides disagree on node count or direction");
  }
  if (target >= pair.base.num_nodes()) {
    return Status::InvalidArgument("target out of range");
  }
  // At least one trial on each side of the crash boundary — the boundary
  // IS the path under audit.
  const uint64_t trials = std::max<uint64_t>(2, options_.trials_per_side);
  const uint64_t phase0_trials = trials / 2;

  // Per-side durable state, wiped on entry so a fixed seed reproduces the
  // audit byte for byte.
  std::string side_dirs[2];
  for (int side = 0; side < 2; ++side) {
    side_dirs[side] = recovery.state_dir + "/side" + std::to_string(side);
    std::error_code ec;
    std::filesystem::remove_all(side_dirs[side], ec);
    std::filesystem::create_directories(side_dirs[side], ec);
    if (ec) {
      return Status::IOError("cannot create audit state dir '" +
                             side_dirs[side] + "'");
    }
  }
  auto wal_dir = [&](int side) { return side_dirs[side] + "/wal"; };
  auto ledger_dir = [&](int side) { return side_dirs[side] + "/ledger"; };
  auto ckpt_dir = [&](int side) { return side_dirs[side] + "/ckpt"; };

  // Headroom for the charged pre-crash traffic: the audit serves
  // themselves stay budget-neutral, but the charged serves must fit.
  const double per_user_budget =
      options_.release_epsilon *
      static_cast<double>(recovery.charged_serves_per_side + 1);

  FaultInjector injectors[2];
  std::unique_ptr<WriteAheadLog> wals[2];
  std::unique_ptr<BudgetLedger> ledgers[2];
  std::unique_ptr<DynamicGraph> graphs[2];
  std::unique_ptr<RecommendationService> services[2];
  Rng rngs[2] = {Rng(DeriveSeed(options_.seed, kRecoveryPathId, 0)),
                 Rng(DeriveSeed(options_.seed, kRecoveryPathId, 1))};

  auto build_service = [&](int side) -> Status {
    ServiceOptions service_options = MakeAuditServiceOptions(options_, 2);
    service_options.per_user_budget = per_user_budget;
    service_options.fault_injector = &injectors[side];
    service_options.retry = recovery.retry;
    service_options.wal = wals[side].get();
    service_options.budget_ledger = ledgers[side].get();
    services[side] = std::make_unique<RecommendationService>(
        graphs[side].get(), utility_factory_(), service_options);
    return Status::OK();
  };
  for (int side = 0; side < 2; ++side) {
    graphs[side] = std::make_unique<DynamicGraph>(side == 0 ? pair.base
                                                            : pair.neighbor);
    if (recovery.journal_capacity > 0) {
      graphs[side]->SetJournalCapacity(recovery.journal_capacity);
    }
    WalOptions wal_options;
    wal_options.fault_injector = &injectors[side];
    PRIVREC_ASSIGN_OR_RETURN(wals[side],
                             WriteAheadLog::Open(wal_dir(side), wal_options));
    LedgerOptions ledger_options;
    ledger_options.fault_injector = &injectors[side];
    PRIVREC_ASSIGN_OR_RETURN(
        ledgers[side], BudgetLedger::Open(ledger_dir(side), ledger_options));
    PRIVREC_RETURN_NOT_OK(build_service(side));
    // Initial checkpoint BEFORE the plan is armed: recovery always has an
    // authoritative manifest to start from, whatever the plan breaks.
    PRIVREC_RETURN_NOT_OK(services[side]->SaveCheckpoint(ckpt_dir(side)));
    // Warm before arming, mirroring AuditPairUnderFaults: measured trials
    // sit on the cached-entry path.
    PRIVREC_RETURN_NOT_OK(
        services[side]->ServeForAudit(target, rngs[side]).status());
  }
  injectors[0].Install(recovery.plan);
  injectors[1].Install(recovery.plan);

  // Charged pre-crash traffic: the serves the durable ledger must
  // survive. Mirrored; only identical ok-ness is required (a refusal is
  // budget-neutral on both sides).
  for (uint64_t i = 0; i < recovery.charged_serves_per_side; ++i) {
    const Status s0 =
        services[0]->ServeRecommendation(target, rngs[0]).status();
    const Status s1 =
        services[1]->ServeRecommendation(target, rngs[1]).status();
    if (s0.ok() != s1.ok()) {
      return Status::Internal("mirrored charged serves diverged: '" +
                              s0.message() + "' vs '" + s1.message() + "'");
    }
  }
  const double pre_crash_charged[2] = {
      per_user_budget - services[0]->RemainingBudget(target),
      per_user_budget - services[1]->RemainingBudget(target)};

  std::optional<CommonToggle> toggle;
  if (recovery.mutations_between_trials > 0) {
    toggle = ChooseCommonToggle(pair, target);
    if (!toggle.has_value()) {
      return Status::FailedPrecondition(
          "no common edge slot available for the across-recovery toggles");
    }
  }
  bool present = toggle.has_value() && toggle->present;
  // A torn WAL rejects mutations from then on; the schedule freezes
  // SYMMETRICALLY (equal plans fire equally), keeping the parity cells
  // sound. Divergent ok-ness is the one impossible state worth failing on.
  bool mutations_alive = toggle.has_value();
  OutcomeCellCounts parity_cells[2];
  auto run_trials = [&](uint64_t count) -> Status {
    for (uint64_t t = 0; t < count; ++t) {
      if (mutations_alive) {
        for (uint64_t m = 0; m < recovery.mutations_between_trials; ++m) {
          const Status m0 = present
                                ? services[0]->RemoveEdge(toggle->a, toggle->b)
                                : services[0]->AddEdge(toggle->a, toggle->b);
          const Status m1 = present
                                ? services[1]->RemoveEdge(toggle->a, toggle->b)
                                : services[1]->AddEdge(toggle->a, toggle->b);
          if (m0.ok() != m1.ok()) {
            return Status::Internal("mirrored toggles diverged: '" +
                                    m0.message() + "' vs '" + m1.message() +
                                    "'");
          }
          if (!m0.ok()) {
            mutations_alive = false;
            break;
          }
          present = !present;
        }
      }
      const uint64_t parity =
          (toggle.has_value() && present != toggle->present) ? 1 : 0;
      for (int side = 0; side < 2; ++side) {
        PRIVREC_ASSIGN_OR_RETURN(
            NodeId outcome, services[side]->ServeForAudit(target, rngs[side]));
        ++parity_cells[side][((parity + 1) << 32) |
                             static_cast<uint64_t>(outcome)];
      }
    }
    return Status::OK();
  };
  PRIVREC_RETURN_NOT_OK(run_trials(phase0_trials));

  // Mid-audit checkpoint attempt, faults still armed: under
  // kCheckpointCrash this dies before the manifest commit (on both sides
  // identically) and the initial checkpoint stays authoritative.
  {
    const Status c0 = services[0]->SaveCheckpoint(ckpt_dir(0));
    const Status c1 = services[1]->SaveCheckpoint(ckpt_dir(1));
    if (c0.ok() != c1.ok()) {
      return Status::Internal("mirrored checkpoints diverged: '" +
                              c0.message() + "' vs '" + c1.message() + "'");
    }
  }

  // ---- The crash. ----
  PRIVREC_CHECK_EQ(injectors[0].total_fires(), injectors[1].total_fires());
  const ServiceStats pre_crash_stats =
      SumStats(services[0]->stats(), services[1]->stats());
  for (int side = 0; side < 2; ++side) {
    wals[side]->SimulateCrash();
    ledgers[side]->SimulateCrash();
  }
  // Teardown order mirrors ownership: services reference graphs, graphs
  // reference WALs.
  for (int side = 0; side < 2; ++side) services[side].reset();
  for (int side = 0; side < 2; ++side) graphs[side].reset();
  for (int side = 0; side < 2; ++side) {
    wals[side].reset();
    ledgers[side].reset();
  }
  // Post-recovery runs clean; the fire counts above are already folded
  // into pre_crash_stats.
  injectors[0].Clear();
  injectors[1].Clear();

  // ---- Recovery. ----
  for (int side = 0; side < 2; ++side) {
    PRIVREC_ASSIGN_OR_RETURN(wals[side], WriteAheadLog::Open(wal_dir(side)));
    RecoveryReport report;
    PRIVREC_ASSIGN_OR_RETURN(
        graphs[side], RecoverGraph(ckpt_dir(side), *wals[side], &report));
    if (recovery.journal_capacity > 0) {
      graphs[side]->SetJournalCapacity(recovery.journal_capacity);
    }
    PRIVREC_ASSIGN_OR_RETURN(ledgers[side],
                             BudgetLedger::Open(ledger_dir(side)));
    const std::unordered_map<NodeId, double> recovered_spend =
        ledgers[side]->SpentByUser();
    auto it = recovered_spend.find(target);
    const double recovered = it == recovered_spend.end() ? 0.0 : it->second;
    if (recovered + 1e-9 < pre_crash_charged[side]) {
      // The one unrecoverable state: durable spend below what was charged
      // in memory means a charge was lost (torn ledger append). Refusing
      // is the only sound posture — certifying would launder the loss.
      return Status::FailedPrecondition(
          "budget ledger unrecoverable on side " + std::to_string(side) +
          ": recovered spend " + std::to_string(recovered) +
          " < pre-crash charged " +
          std::to_string(pre_crash_charged[side]) +
          " — refusing to certify across this recovery");
    }
    PRIVREC_RETURN_NOT_OK(build_service(side));
    services[side]->ImportSpentBudgets(recovered_spend);
    PRIVREC_RETURN_NOT_OK(
        services[side]->ServeForAudit(target, rngs[side]).status());
  }
  // Re-derive the parity anchor from the RECOVERED graphs: recovery is
  // exact, so both sides must agree — and agree with the pre-crash
  // schedule.
  if (toggle.has_value()) {
    const bool p0 = graphs[0]->VersionedSnapshot().graph->HasEdge(toggle->a,
                                                                  toggle->b);
    const bool p1 = graphs[1]->VersionedSnapshot().graph->HasEdge(toggle->a,
                                                                  toggle->b);
    if (p0 != p1) {
      return Status::Internal(
          "recovered sides disagree on the common toggle slot");
    }
    if (p0 != present) {
      return Status::Internal(
          "recovered graph state disagrees with the pre-crash toggle "
          "schedule");
    }
    mutations_alive = true;  // fresh WAL: toggles flow again
  }
  PRIVREC_RETURN_NOT_OK(run_trials(trials - phase0_trials));
  PRIVREC_CHECK_EQ(injectors[0].total_fires(), injectors[1].total_fires());

  DpAuditResult result;
  result.pairs_checked = 1;
  result.worst_edge_u = pair.u;
  result.worst_edge_v = pair.v;
  PathEpsilonEstimate estimate;
  estimate.path = "across_recovery";
  estimate.trials_per_side = trials;
  const EpsilonCellEstimate cells = EstimateEpsilonFromOutcomeCells(
      parity_cells[0], parity_cells[1], trials, options_.confidence,
      options_.bonferroni_cells_override,
      /*include_complements=*/false);
  estimate.epsilon_hat = cells.epsilon_hat;
  estimate.epsilon_lower_bound = cells.epsilon_lower_bound;
  estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
  estimate.worst_z = cells.worst_z;
  estimate.bonferroni_cells = cells.bonferroni_cells;
  result.max_abs_log_ratio = estimate.epsilon_hat;
  result.per_path.push_back(std::move(estimate));
  if (stats_out != nullptr) {
    *stats_out = SumStats(pre_crash_stats,
                          SumStats(services[0]->stats(), services[1]->stats()));
  }
  return result;
}

Result<DpAuditResult> ServiceAuditor::AuditEdgeToggles(const CsrGraph& graph,
                                                       NodeId target,
                                                       size_t max_pairs,
                                                       Rng& rng) const {
  PRIVREC_ASSIGN_OR_RETURN(std::vector<NeighboringPair> pairs,
                           SampleEdgeTogglePairs(graph, target, max_pairs,
                                                 rng));
  if (pairs.empty()) {
    return Status::InvalidArgument("no eligible neighboring pairs");
  }
  return AuditPairsMerged(pairs, target);
}

Result<DpAuditResult> ServiceAuditor::AuditNodeRewirings(const CsrGraph& graph,
                                                         NodeId target,
                                                         size_t max_pairs,
                                                         Rng& rng) const {
  PRIVREC_ASSIGN_OR_RETURN(
      std::vector<NeighboringPair> pairs,
      SampleNodeRewiringPairs(graph, target, max_pairs, rng));
  if (pairs.empty()) {
    return Status::InvalidArgument("no eligible neighboring pairs");
  }
  return AuditPairsMerged(pairs, target);
}

Result<DpAuditResult> ServiceAuditor::AuditPairsMerged(
    const std::vector<NeighboringPair>& pairs, NodeId target) const {
  // The merged bound takes a max over the pairs, so the per-pair
  // confidence must absorb a Bonferroni factor of K for the merged result
  // to stay certified at options_.confidence.
  const double per_pair_confidence =
      1.0 - (1.0 - options_.confidence) / static_cast<double>(pairs.size());
  DpAuditResult merged;
  for (const NeighboringPair& pair : pairs) {
    PRIVREC_ASSIGN_OR_RETURN(
        DpAuditResult audit,
        AuditPairAtConfidence(pair, target, per_pair_confidence));
    merged.pairs_checked += audit.pairs_checked;
    if (audit.max_abs_log_ratio > merged.max_abs_log_ratio) {
      merged.max_abs_log_ratio = audit.max_abs_log_ratio;
      merged.worst_edge_u = audit.worst_edge_u;
      merged.worst_edge_v = audit.worst_edge_v;
    }
    // Merge per-path by max so each path's worst pair survives.
    for (PathEpsilonEstimate& estimate : audit.per_path) {
      PathEpsilonEstimate* existing = nullptr;
      for (PathEpsilonEstimate& entry : merged.per_path) {
        if (entry.path == estimate.path) {
          existing = &entry;
          break;
        }
      }
      if (existing == nullptr) {
        merged.per_path.push_back(std::move(estimate));
        continue;
      }
      if (estimate.epsilon_hat > existing->epsilon_hat) {
        existing->epsilon_hat = estimate.epsilon_hat;
        existing->worst_outcome = estimate.worst_outcome;
      }
      existing->epsilon_lower_bound = std::max(existing->epsilon_lower_bound,
                                               estimate.epsilon_lower_bound);
      existing->worst_z = std::max(existing->worst_z, estimate.worst_z);
      existing->bonferroni_cells =
          std::max(existing->bonferroni_cells, estimate.bonferroni_cells);
    }
  }
  return merged;
}

}  // namespace privrec
