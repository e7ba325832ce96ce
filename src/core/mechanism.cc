#include "core/mechanism.h"

#include <algorithm>

namespace privrec {
namespace {

/// Alias-table weights: one bucket per nonzero candidate plus, when the
/// zero block is nonempty, one aggregated bucket carrying its whole mass.
std::vector<double> SamplerWeights(const RecommendationDistribution& dist,
                                   uint64_t num_zero) {
  std::vector<double> weights = dist.nonzero_probs;
  if (num_zero > 0) weights.push_back(dist.zero_block_prob);
  return weights;
}

/// Per-thread exclusion marks for zero-block resolution: v is ineligible
/// in the current call iff marks[v] == epoch, so bumping the epoch clears
/// every mark in O(1). Grown on demand, never shrunk; the 64-bit epoch
/// cannot wrap.
struct ExclusionMarks {
  std::vector<uint64_t> marks;
  uint64_t epoch = 0;
};
thread_local ExclusionMarks t_exclusion;

}  // namespace

RecommendationSampler::RecommendationSampler(const UtilityVector& utilities,
                                             RecommendationDistribution dist)
    : entries_(utilities.nonzero()),
      num_zero_(utilities.num_zero()),
      alias_(SamplerWeights(dist, utilities.num_zero())) {}

double RecommendationDistribution::ExpectedAccuracy(
    const UtilityVector& utilities) const {
  const double u_max = utilities.max_utility();
  if (u_max <= 0) return 0;
  double expected = 0;
  const auto& entries = utilities.nonzero();
  for (size_t i = 0; i < entries.size() && i < nonzero_probs.size(); ++i) {
    expected += entries[i].utility * nonzero_probs[i];
  }
  return expected / u_max;
}

Status ResolveZeroBlockPicks(const CsrGraph& graph,
                             const UtilityVector& utilities,
                             std::span<Recommendation> picks, Rng& rng) {
  auto is_zero = [](const Recommendation& p) { return p.from_zero_block; };
  if (std::none_of(picks.begin(), picks.end(), is_zero)) return Status::OK();
  if (utilities.num_zero() == 0) {
    return Status::FailedPrecondition("no zero-utility candidates");
  }
  const NodeId n = graph.num_nodes();
  const NodeId target = utilities.target();
  ExclusionMarks& scratch = t_exclusion;
  if (scratch.marks.size() < n) scratch.marks.resize(n);
  uint64_t* const marks = scratch.marks.data();
  const uint64_t epoch = ++scratch.epoch;
  marks[target] = epoch;
  for (NodeId v : graph.OutNeighbors(target)) marks[v] = epoch;
  for (const UtilityEntry& e : utilities.nonzero()) marks[e.node] = epoch;
  for (Recommendation& pick : picks) {
    if (!pick.from_zero_block) continue;
    // Rejection is uniform over the remaining zero block; past the cap, the
    // r-th eligible node for a uniform r is exactly the same distribution.
    NodeId resolved = kUnresolvedZeroNode;
    for (int attempt = 0; attempt < 256 && resolved == kUnresolvedZeroNode;
         ++attempt) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (marks[v] != epoch) resolved = v;
    }
    if (resolved == kUnresolvedZeroNode) {
      uint64_t eligible = 0;
      for (NodeId v = 0; v < n; ++v) eligible += marks[v] != epoch;
      if (eligible == 0) {
        return Status::Internal("zero-utility candidate bookkeeping mismatch");
      }
      uint64_t rank = rng.NextBounded(eligible);
      for (NodeId v = 0; resolved == kUnresolvedZeroNode; ++v) {
        if (marks[v] != epoch && rank-- == 0) resolved = v;
      }
    }
    pick.node = resolved;
    marks[resolved] = epoch;
  }
  return Status::OK();
}

Result<NodeId> ResolveZeroUtilityNode(const CsrGraph& graph,
                                      const UtilityVector& utilities,
                                      Rng& rng) {
  Recommendation pick{kUnresolvedZeroNode, 0.0, true};
  PRIVREC_RETURN_NOT_OK(
      ResolveZeroBlockPicks(graph, utilities, std::span(&pick, 1), rng));
  return pick.node;
}

}  // namespace privrec
