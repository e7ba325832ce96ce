#include "mirror.h"

#include <algorithm>

namespace servebench {
namespace {

bool Contains(std::span<const NodeId> sorted, NodeId v) {
  return std::binary_search(sorted.begin(), sorted.end(), v);
}

bool InsertSorted(std::vector<NodeId>& list, NodeId v) {
  auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) return false;
  list.insert(it, v);
  return true;
}

bool EraseSorted(std::vector<NodeId>& list, NodeId v) {
  auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) return false;
  list.erase(it);
  return true;
}

uint32_t IntersectionSize(std::span<const NodeId> a, std::span<const NodeId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  uint32_t count = 0;
  for (NodeId v : a) count += Contains(b, v) ? 1 : 0;
  return count;
}

}  // namespace

uint32_t RefVector::At(NodeId node) const {
  auto it = std::lower_bound(
      nonzero.begin(), nonzero.end(), node,
      [](const std::pair<NodeId, uint32_t>& e, NodeId v) { return e.first < v; });
  return it != nonzero.end() && it->first == node ? it->second : 0;
}

Mirror::Mirror(const privrec::CsrGraph& graph)
    : directed_(graph.directed()),
      out_(graph.num_nodes()),
      touched_(graph.num_nodes(), 0) {
  if (directed_) in_.resize(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    auto neighbors = graph.OutNeighbors(v);
    out_[v].assign(neighbors.begin(), neighbors.end());
    std::sort(out_[v].begin(), out_[v].end());
    num_arcs_ += out_[v].size();
    if (directed_) {
      for (NodeId w : neighbors) in_[w].push_back(v);
    }
  }
  // Pushed in increasing v, so every in-list is already sorted.
}

bool Mirror::HasArc(NodeId u, NodeId v) const { return Contains(out_[u], v); }

std::span<const NodeId> Mirror::Out(NodeId v, uint32_t cap) const {
  std::span<const NodeId> all = out_[v];
  return cap > 0 && all.size() > cap ? all.first(cap) : all;
}

bool Mirror::Toggle(NodeId u, NodeId v, bool add) {
  if (add ? !InsertSorted(out_[u], v) : !EraseSorted(out_[u], v)) return false;
  if (directed_) {
    add ? InsertSorted(in_[v], u) : EraseSorted(in_[v], u);
  } else {
    add ? InsertSorted(out_[v], u) : EraseSorted(out_[v], u);
  }
  const uint64_t arcs = directed_ ? 1 : 2;
  num_arcs_ = add ? num_arcs_ + arcs : num_arcs_ - arcs;
  ++toggles_;
  touched_[u] = toggles_;
  if (!directed_) touched_[v] = toggles_;
  return true;
}

bool Mirror::IsCandidate(NodeId r, NodeId c, uint32_t cap) const {
  return c < num_nodes() && c != r && !Contains(Out(r, cap), c);
}

uint32_t Mirror::Utility(NodeId r, NodeId c, uint32_t cap) const {
  if (!IsCandidate(r, c, cap)) return 0;
  if (cap == 0) {
    return IntersectionSize(out_[r], directed_ ? in_[c] : out_[c]);
  }
  uint32_t count = 0;
  for (NodeId w : Out(r, cap)) count += Contains(Out(w, cap), c) ? 1 : 0;
  return count;
}

RefVector Mirror::Utilities(NodeId r, uint32_t cap,
                            std::vector<uint32_t>& scratch) const {
  RefVector ref;
  ref.target = r;
  const std::span<const NodeId> own = Out(r, cap);
  ref.num_candidates = num_nodes() - 1 - own.size();
  std::vector<NodeId> touched;
  for (NodeId w : own) {
    for (NodeId c : Out(w, cap)) {
      if (c == r) continue;
      if (scratch[c]++ == 0) touched.push_back(c);
    }
  }
  std::sort(touched.begin(), touched.end());
  for (NodeId c : touched) {
    if (!Contains(own, c)) {
      ref.nonzero.emplace_back(c, scratch[c]);
      ref.max = std::max(ref.max, scratch[c]);
    }
    scratch[c] = 0;
  }
  return ref;
}

bool Mirror::UnchangedSince(NodeId r, uint64_t t) const {
  if (touched_[r] > t) return false;
  for (NodeId w : out_[r]) {
    if (touched_[w] > t) return false;
  }
  return true;
}

bool Mirror::Equals(const privrec::CsrGraph& graph) const {
  if (graph.num_nodes() != num_nodes() || graph.directed() != directed_ ||
      graph.num_arcs() != num_arcs_) {
    return false;
  }
  for (NodeId v = 0; v < num_nodes(); ++v) {
    auto neighbors = graph.OutNeighbors(v);
    if (!std::equal(neighbors.begin(), neighbors.end(), out_[v].begin(),
                    out_[v].end())) {
      return false;
    }
  }
  return true;
}

}  // namespace servebench
