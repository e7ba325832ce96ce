#ifndef SERVEBENCH_MIRROR_H_
#define SERVEBENCH_MIRROR_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"

namespace servebench {

using privrec::NodeId;

/// A sparse common-neighbour utility vector computed by the benchmark:
/// the candidates with nonzero utility (node, 2-path count), sorted by
/// node, and the total candidate count (everyone but the target and the
/// nodes it links to).
struct RefVector {
  NodeId target = 0;
  uint64_t num_candidates = 0;
  std::vector<std::pair<NodeId, uint32_t>> nonzero;
  uint32_t max = 0;

  /// Utility of `node` (0 when it is not in the nonzero support).
  uint32_t At(NodeId node) const;
};

/// The benchmark's own copy of the graph the service serves from, kept as
/// sorted adjacency vectors and updated with every toggle the benchmark
/// sends, so that outputs are checked against state the service never
/// touched. A projection cap D > 0 reads each node's D smallest
/// out-neighbours, the node-DP projection the service claims to apply.
class Mirror {
 public:
  explicit Mirror(const privrec::CsrGraph& graph);

  NodeId num_nodes() const { return static_cast<NodeId>(out_.size()); }
  bool directed() const { return directed_; }
  uint64_t num_arcs() const { return num_arcs_; }

  bool HasArc(NodeId u, NodeId v) const;

  /// Out-neighbours of v in increasing order; the first `cap` when cap > 0.
  std::span<const NodeId> Out(NodeId v, uint32_t cap = 0) const;

  /// Adds (add) or removes the edge u->v, both directions when undirected.
  /// Returns false, leaving the mirror unchanged, when the edge is already
  /// in the requested state.
  bool Toggle(NodeId u, NodeId v, bool add);

  /// Common-neighbour utility of candidate c for target r: the number of
  /// 2-paths r -> w -> c through the view. 0 when c is r or one of r's
  /// out-neighbours (not a candidate).
  uint32_t Utility(NodeId r, NodeId c, uint32_t cap) const;

  /// True when c may be recommended to r on the view.
  bool IsCandidate(NodeId r, NodeId c, uint32_t cap) const;

  /// The full utility vector of r on the view. `scratch` is a dense
  /// counter of num_nodes() zeros, left zeroed on return.
  RefVector Utilities(NodeId r, uint32_t cap,
                      std::vector<uint32_t>& scratch) const;

  /// Number of toggles applied so far, and the toggle count at the last
  /// toggle that changed Out(v). r's utility vector is unchanged since
  /// toggle t when no node in {r} ∪ Out(r) was touched after t.
  uint64_t toggles() const { return toggles_; }
  bool UnchangedSince(NodeId r, uint64_t t) const;

  /// True when the two graphs hold exactly the same arcs.
  bool Equals(const privrec::CsrGraph& graph) const;

 private:
  bool directed_;
  uint64_t num_arcs_ = 0;
  std::vector<std::vector<NodeId>> out_;
  /// In-neighbours, kept only for directed graphs.
  std::vector<std::vector<NodeId>> in_;
  uint64_t toggles_ = 0;
  std::vector<uint64_t> touched_;
};

}  // namespace servebench

#endif  // SERVEBENCH_MIRROR_H_
