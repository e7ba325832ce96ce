// Serve-path benchmark for RecommendationService.
//
// One process runs one seeded workload:
//  1. set-up, repeated kSetupRepeats times with the median reported as
//     setup_s: graph generation, service construction, the logs and a
//     genesis checkpoint when the workload has them, and warm-up;
//  2. a closed loop of seeded requests for --seconds, in whole rounds;
//  3. a replay of every request on the benchmark's own mirror of the graph
//     that checks each output, plus distribution, budget, graph-state and
//     (with logs) recovery checks;
//  4. one JSON object on the last line of stdout.
// With --trace 1 the same stream runs with spans around every service call
// and around the layer calls each request passes through, timed from
// outside on the same inputs; the run prints the per-layer metrics.
//
// Usage: servebench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--commit SHA] [--source-digest HEX]
// README.md describes the workloads, the metrics and how to read them.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "core/exponential_mechanism.h"
#include "core/mechanism.h"
#include "core/privacy_accountant.h"
#include "core/topk.h"
#include "gen/datasets.h"
#include "graph/dynamic_graph.h"
#include "mirror.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "random/alias_sampler.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "trace.h"
#include "utility/common_neighbors.h"

namespace servebench {
namespace {

using privrec::AliasSampler;
using privrec::BudgetLedger;
using privrec::CommonNeighborsUtility;
using privrec::CsrGraph;
using privrec::DynamicGraph;
using privrec::EdgeDelta;
using privrec::PrivacyAccountant;
using privrec::PrivacyModel;
using privrec::RecommendationSampler;
using privrec::RecommendationService;
using privrec::Rng;
using privrec::ServiceOptions;
using privrec::ServiceStats;
using privrec::SplitMix64;
using privrec::Status;
using privrec::UtilityVector;
using privrec::UtilityWorkspace;
using privrec::WriteAheadLog;

constexpr double kEpsilon = 0.5;
/// Large enough that no user's budget runs out in a run: every serve is a
/// release, none a refusal.
constexpr double kBudget = 1e6;
/// Fixed rather than taken from the host, so the shard a user lands on
/// (and with it every cache decision) is the same on every machine.
constexpr size_t kNumShards = 8;
constexpr uint32_t kDegreeCap = 16;
constexpr size_t kListK = 10;
/// The graphs are fixed data sets; --seed drives the traffic.
constexpr uint64_t kWikiGraphSeed = 7115;
constexpr uint64_t kTwitterGraphSeed = 96403;
constexpr int kSetupRepeats = 3;
/// The timed phase is cut into kBlocks equal time blocks; medians, means
/// and throughput are the median over blocks, so a burst of interference
/// in one block does not move them.
constexpr int kBlocks = 10;
/// The work digest is taken after this many timed rounds of a
/// single-threaded workload, which every run completes.
constexpr int kDigestRounds = 5;
constexpr size_t kAuditDraws = 20000;
constexpr uint64_t kAuditSeed = 0xa0d17;
constexpr int kAuditCandidates = 64;
constexpr int kToggledNodesPerCaller = 8;
/// Seed of the concurrent workload's toggled node set, fixed so that the
/// set of users it serves is the same in every run.
constexpr uint64_t kToggledNodesSeed = 0x7091e5;
constexpr double kHardStopSeconds = 150;

struct Workload {
  const char* name;
  bool twitter;
  bool node_dp;
  /// 0: twice the number of users, so the cache holds every user.
  size_t cache_capacity;
  double list_share;
  double toggle_share;
  /// Toggle slots of the single caller (concurrent: derived per caller).
  size_t slots;
  /// One caller per CPU (at most 8), each toggling its own node set.
  bool concurrent;
  /// WAL-first toggles with this group commit (0: no WAL), a genesis
  /// checkpoint in set-up, and recovery checked at the end.
  uint64_t wal_group;
  /// A budget ledger appended and fsynced before every charged release.
  bool ledger;
  /// ServeForAudit every user once during set-up.
  bool fill_cache;
  /// Compare accuracy with its exact expectation (static graph only).
  bool exact_accuracy;
  size_t round_ops;
  int warm_rounds;
};

const Workload kWorkloads[] = {
    // name, twitter, node_dp, cache, lists, toggles, slots, concurrent,
    // wal_group, ledger, fill_cache, exact_accuracy, round_ops, warm_rounds
    {"read_warm", false, false, 0, 0.15, 0.0, 0, false, 0, false, true, true,
     1000, 10},
    {"write_heavy", false, false, 0, 0.15, 0.5, 4096, false, 256, false, true,
     false, 1000, 3},
    {"node_cold", true, true, 4096, 0.15, 0.02, 4096, false, 0, false, false,
     false, 1000, 10},
    // Every charged serve pays a ledger fsync and every toggle a WAL fsync,
    // so its figures follow the disk; it is run by hand (README), not gated.
    {"durable", false, false, 0, 0.10, 0.10, 0, true, 1, true, true, false,
     250, 2},
};

double DeltaF(const Workload& w) {
  // Common neighbours: one edge moves one utility by 1 on a directed graph
  // (only the head's count) and by 2 on an undirected one; node-DP scales
  // the edge bound by the degree cap.
  const double edge = w.twitter ? 1.0 : 2.0;
  return w.node_dp ? kDegreeCap * edge : edge;
}

uint32_t ViewCap(const Workload& w) { return w.node_dp ? kDegreeCap : 0; }

// ------------------------------------------------------------------ inputs

enum class OpKind : uint8_t { kSingle, kList, kAdd, kRemove };

struct Slot {
  NodeId u;
  NodeId v;
  bool present;
};

struct Op {
  OpKind kind;
  NodeId a;  // user, or the toggled edge's tail
  NodeId b;  // the toggled edge's head
};

/// Everything a run derives from --seed and the graph: who is served, the
/// degree weighting of hub traffic, and the edge slots each caller toggles.
struct Inputs {
  std::vector<NodeId> users;
  std::unique_ptr<AliasSampler> hubs;
  std::vector<std::vector<Slot>> slots;  // per caller
  std::vector<NodeId> audit_users;
};

uint64_t PairKey(NodeId u, NodeId v, bool directed) {
  if (!directed && u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// `count` distinct slots, half of them edges of `g` and half non-edges.
std::vector<Slot> DrawSlots(const CsrGraph& g, size_t count, Rng& rng,
                            std::unordered_set<uint64_t>& taken) {
  std::vector<Slot> slots;
  while (slots.size() < count) {
    const bool edge = slots.size() % 2 == 0;
    NodeId u = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    NodeId v;
    if (edge) {
      if (g.OutDegree(u) == 0) continue;
      v = g.OutNeighbors(u)[rng.NextBounded(g.OutDegree(u))];
    } else {
      v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
      if (u == v || g.HasEdge(u, v)) continue;
    }
    if (!taken.insert(PairKey(u, v, g.directed())).second) continue;
    slots.push_back(Slot{u, v, edge});
  }
  return slots;
}

Inputs MakeInputs(const Workload& w, const CsrGraph& g, uint64_t seed,
                  int callers) {
  SplitMix64 seeds(seed);
  Rng rng(seeds.Next());
  Inputs in;
  std::unordered_set<uint64_t> taken;
  if (w.concurrent) {
    // Each caller toggles the pairs among its own kToggledNodesPerCaller
    // nodes, and only users with no neighbour among any toggled node are
    // served: concurrent toggles then never change a served user's
    // utilities, so every pick is checked exactly whatever the interleaving.
    Rng node_rng(kToggledNodesSeed);
    std::vector<NodeId> toggled;
    std::unordered_set<NodeId> toggled_set;
    while (toggled.size() < static_cast<size_t>(callers) * kToggledNodesPerCaller) {
      const NodeId v = static_cast<NodeId>(node_rng.NextBounded(g.num_nodes()));
      if (toggled_set.insert(v).second) toggled.push_back(v);
    }
    for (int c = 0; c < callers; ++c) {
      std::vector<Slot> slots;
      for (int i = 0; i < kToggledNodesPerCaller; ++i) {
        for (int j = i + 1; j < kToggledNodesPerCaller; ++j) {
          const NodeId u = toggled[c * kToggledNodesPerCaller + i];
          const NodeId v = toggled[c * kToggledNodesPerCaller + j];
          slots.push_back(Slot{u, v, g.HasEdge(u, v)});
        }
      }
      in.slots.push_back(std::move(slots));
    }
    for (NodeId r = 0; r < g.num_nodes(); ++r) {
      if (toggled_set.count(r)) continue;
      bool clear = true;
      for (NodeId w2 : g.OutNeighbors(r)) clear = clear && !toggled_set.count(w2);
      if (clear) in.users.push_back(r);
    }
  } else {
    for (NodeId r = 0; r < g.num_nodes(); ++r) in.users.push_back(r);
    in.slots.push_back(DrawSlots(g, w.slots, rng, taken));
  }
  std::vector<double> weights;
  for (NodeId r : in.users) weights.push_back(g.OutDegree(r));
  in.hubs = std::make_unique<AliasSampler>(weights);
  // The distribution check audits, of kAuditCandidates users drawn like
  // the traffic, the uniform and the hub draw with the most 2-hop paths
  // on the serving view: a user without support has a one-bin test.
  Mirror view(g);
  std::vector<uint32_t> scratch(g.num_nodes(), 0);
  for (bool hub : {false, true}) {
    NodeId best = 0;
    uint64_t best_support = 0;
    for (int i = 0; i < kAuditCandidates; ++i) {
      const NodeId r =
          in.users[hub ? in.hubs->Sample(rng) : rng.NextBounded(in.users.size())];
      const uint64_t support = view.Utilities(r, ViewCap(w), scratch).nonzero.size();
      if (i == 0 || support > best_support) {
        best = r;
        best_support = support;
      }
    }
    in.audit_users.push_back(best);
  }
  return in;
}

/// A caller's seeded request stream: a share of toggles over its slots,
/// then lists and single serves, each for a user drawn uniformly or by
/// degree (hub traffic) with equal probability.
class Stream {
 public:
  Stream(uint64_t seed, const Workload& w, const Inputs& in,
         std::vector<Slot> slots)
      : rng_(seed), w_(w), in_(in), slots_(std::move(slots)) {}

  Op Next() {
    const double x = rng_.NextDouble();
    if (x < w_.toggle_share && !slots_.empty()) {
      Slot& s = slots_[rng_.NextBounded(slots_.size())];
      const Op op{s.present ? OpKind::kRemove : OpKind::kAdd, s.u, s.v};
      s.present = !s.present;
      return op;
    }
    const OpKind kind =
        x < w_.toggle_share + w_.list_share ? OpKind::kList : OpKind::kSingle;
    const size_t i = rng_.NextBernoulli(0.5) ? in_.hubs->Sample(rng_)
                                             : rng_.NextBounded(in_.users.size());
    return Op{kind, in_.users[i], 0};
  }

 private:
  Rng rng_;
  const Workload& w_;
  const Inputs& in_;
  std::vector<Slot> slots_;
};

// ----------------------------------------------------------------- callers

enum SampleKind { kServeSamples, kListSamples, kMutateSamples, kNumSampleKinds };

/// One request as sent and answered, for the replay.
struct Record {
  OpKind kind;
  bool ok;
  bool timed;
  NodeId a;
  NodeId b;  // single: the pick
  uint32_t list_index;  // list: offset of its picks in Caller::list_picks
};

/// Layer-call state of a traced caller: the snapshot it last published,
/// its own utility vectors and samplers (the inputs of the layer calls it
/// times), accountants and randomness.
struct Shadow {
  struct Entry {
    uint64_t version;
    UtilityVector u;
    std::optional<RecommendationSampler> sampler;
  };
  explicit Shadow(uint64_t seed) : rng(seed) {}
  Rng rng;
  uint64_t version = ~uint64_t{0};
  DynamicGraph::StampedSnapshot snap;
  double sensitivity = 0;
  std::unordered_map<NodeId, Entry> entries;
  std::unordered_map<NodeId, PrivacyAccountant> accountants;
  UtilityWorkspace workspace;
  std::vector<EdgeDelta> filtered;
  uint64_t singles = 0;
  uint64_t zero_picks = 0;
  uint64_t patch_unsampled = 0;
  double support_sum = 0;
  int64_t serve_ns = 0;
  int64_t unaccounted_ns = 0;
};

struct Caller {
  Caller(uint64_t seed, const Workload& w, const Inputs& in,
         std::vector<Slot> slots, NodeId n)
      : stream(seed, w, in, std::move(slots)),
        rng(seed ^ 0x5e12e5ULL),
        charged(n, 0),
        shadow(seed ^ 0x7ace0ULL) {}
  Stream stream;
  Rng rng;
  std::vector<Record> records;
  std::vector<NodeId> list_picks;
  std::vector<uint32_t> charged;
  std::vector<uint32_t> samples[kNumSampleKinds][kBlocks];
  uint64_t block_ops[kBlocks] = {};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  Tracer tracer;
  Shadow shadow;
};

/// One set-up's objects; the service goes before the graph and the logs it
/// points to, and the log directory is removed last.
struct Instance {
  ~Instance() {
    callers.clear();
    service.reset();
    graph.reset();
    wal.reset();
    ledger.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
  std::string dir;
  std::unique_ptr<WriteAheadLog> wal;
  std::unique_ptr<BudgetLedger> ledger;
  std::unique_ptr<DynamicGraph> graph;
  std::unique_ptr<RecommendationService> service;
  std::vector<std::unique_ptr<Caller>> callers;
  double checkpoint_us = 0;
};

struct Env {
  const Workload* w;
  uint64_t seed;
  std::string out_dir;
  bool traced;
  int threads;
};

/// The timed phase's start and length; requests sent outside it (set-up)
/// carry no Clock.
struct Clock {
  int64_t start = 0;
  int64_t run_ns = 1;
  int Block(int64_t t) const {
    const int64_t b = (t - start) * kBlocks / run_ns;
    return static_cast<int>(std::clamp<int64_t>(b, 0, kBlocks - 1));
  }
};

void Finish(Caller& c, Record rec, const Status& status, int64_t t0,
            int64_t t1, const Clock* clock) {
  rec.ok = status.ok();
  ++c.attempted;
  if (!rec.ok) {
    if (c.failed++ == 0) c.first_error = status.ToString();
  } else if (rec.kind == OpKind::kSingle || rec.kind == OpKind::kList) {
    ++c.charged[rec.a];
  }
  if (rec.ok && clock != nullptr) {
    const int block = clock->Block(t1);
    const SampleKind kind = rec.kind == OpKind::kSingle ? kServeSamples
                            : rec.kind == OpKind::kList ? kListSamples
                                                        : kMutateSamples;
    c.samples[kind][block].push_back(static_cast<uint32_t>(t1 - t0));
    ++c.block_ops[block];
  }
  c.records.push_back(rec);
}

void SaveList(Caller& c, Record& rec, const privrec::TopKResult& list) {
  rec.list_index = static_cast<uint32_t>(c.list_picks.size());
  for (const privrec::Recommendation& p : list.picks) c.list_picks.push_back(p.node);
}

/// Sends one request, untraced.
void RunOp(Instance& inst, Caller& c, const Op& op, const Clock* clock) {
  Record rec{op.kind, false, clock != nullptr, op.a, op.b, 0};
  RecommendationService& service = *inst.service;
  Status status;
  int64_t t0 = 0;
  int64_t t1 = 0;
  switch (op.kind) {
    case OpKind::kSingle: {
      t0 = NowNs();
      auto r = service.ServeRecommendation(op.a, c.rng);
      t1 = NowNs();
      status = r.status();
      if (r.ok()) rec.b = *r;
      break;
    }
    case OpKind::kList: {
      t0 = NowNs();
      auto r = service.ServeList(op.a, kListK, c.rng);
      t1 = NowNs();
      status = r.status();
      if (r.ok()) SaveList(c, rec, *r);
      break;
    }
    case OpKind::kAdd:
    case OpKind::kRemove:
      t0 = NowNs();
      status = op.kind == OpKind::kAdd ? service.AddEdge(op.a, op.b)
                                       : service.RemoveEdge(op.a, op.b);
      t1 = NowNs();
      break;
  }
  Finish(c, rec, status, t0, t1, clock);
}

// ------------------------------------------------------------------ traced

struct TraceContext {
  const Workload* w = nullptr;
  DynamicGraph* graph = nullptr;
  RecommendationService* service = nullptr;
  CommonNeighborsUtility utility;
  /// Scratch logs the persist-layer calls are timed on (workloads with logs).
  WriteAheadLog* wal = nullptr;
  BudgetLedger* ledger = nullptr;
  /// Per-request service counters are exact only with one caller.
  bool attribute_cache = true;
};

const CsrGraph& View(const TraceContext& tc, const Shadow& s) {
  return tc.w->node_dp ? *s.snap.projected : *s.snap.graph;
}

/// Publishes the snapshot a toggle left pending, as the first serve after
/// it would, and times the sensitivity bound of the new version.
void TracePublish(TraceContext& tc, Caller& c, int32_t root, uint64_t req) {
  Shadow& s = c.shadow;
  if (tc.graph->version() == s.version) return;
  c.tracer.Time(kGraphPublish, root, req,
                [&] { s.snap = tc.graph->VersionedSnapshot(); });
  c.tracer.Time(kUtilitySensitivity, root, req, [&] {
    s.sensitivity =
        tc.w->node_dp
            ? tc.utility.NodeSensitivityBound(*s.snap.projected, kDegreeCap)
            : tc.utility.SensitivityBound(*s.snap.graph);
  });
  s.version = s.snap.version;
}

/// Re-derives the user's utility vector the way the service's cache did on
/// this request (computed, patched, or reused), timing the layer call when
/// the counters show the service made it. Returns the attributed ns.
int64_t TraceUtilities(TraceContext& tc, Caller& c, int32_t root, uint64_t req,
                       NodeId user, const ServiceStats& before,
                       const ServiceStats& after, Shadow::Entry** out) {
  Shadow& s = c.shadow;
  const CsrGraph& view = View(tc, s);
  auto it = s.entries.find(user);
  const bool patched = after.delta_patched > before.delta_patched;
  const bool computed = after.cache_misses > before.cache_misses;
  int64_t attributed = 0;
  std::optional<UtilityVector> u;
  if (tc.attribute_cache && patched && it != s.entries.end() &&
      it->second.version >= tc.graph->journal_floor_version()) {
    auto deltas = tc.graph->EdgeDeltasBetween(it->second.version, s.version);
    if (deltas.ok()) {
      const UtilityVector& cached = it->second.u;
      attributed += c.tracer.Time(kUtilityPatch, root, req, [&] {
        s.filtered.clear();
        tc.utility.FilterAffectingWindow(*s.snap.graph, *deltas, user, cached,
                                         s.filtered);
        u.emplace(s.filtered.size() == 1
                      ? tc.utility.ApplyEdgeDelta(*s.snap.graph, s.filtered[0],
                                                  user, cached, s.workspace)
                      : tc.utility.ApplyEdgeDeltaBatch(*s.snap.graph, s.filtered,
                                                       user, cached,
                                                       s.workspace));
      });
    }
  }
  if (!u && tc.attribute_cache && computed) {
    attributed += c.tracer.Time(kUtilityCompute, root, req, [&] {
      u.emplace(tc.utility.Compute(view, user, s.workspace));
    });
  }
  if (!u && it != s.entries.end() && it->second.version == s.version) {
    *out = &it->second;
    return attributed;
  }
  if (patched && !u) ++s.patch_unsampled;
  if (!u) u.emplace(tc.utility.Compute(view, user, s.workspace));
  // The shadow keeps vectors only while the journal can still patch them.
  if (s.entries.size() >= 1024) {
    const uint64_t floor = tc.graph->journal_floor_version();
    std::erase_if(s.entries, [&](const auto& e) { return e.second.version < floor; });
    if (s.entries.size() >= 1024) s.entries.clear();
  }
  auto [slot, inserted] = s.entries.insert_or_assign(
      user, Shadow::Entry{s.version, std::move(*u), std::nullopt});
  *out = &slot->second;
  return attributed;
}

int64_t TraceCharge(TraceContext& tc, Caller& c, int32_t root, uint64_t req,
                    NodeId user, const char* reason) {
  Shadow& s = c.shadow;
  auto it = s.accountants.try_emplace(user, kBudget).first;
  int64_t ns = c.tracer.Time(kCoreCharge, root, req, [&] {
    (void)it->second.Charge(kEpsilon, reason);
  });
  if (tc.ledger != nullptr) {
    ns += c.tracer.Time(kPersistLedgerAppend, root, req, [&] {
      (void)tc.ledger->AppendCharge(user, kEpsilon);
    });
  }
  return ns;
}

bool InSupport(const UtilityVector& u, NodeId node) {
  for (const auto& e : u.nonzero()) {
    if (e.node == node) return true;
  }
  return false;
}

void RunOpTraced(TraceContext& tc, Caller& c, const Op& op, const Clock* clock) {
  const uint64_t req = c.records.size();
  Record rec{op.kind, false, clock != nullptr, op.a, op.b, 0};
  Status status;
  int64_t t0 = 0;
  int64_t t1 = 0;
  const int32_t root = c.tracer.Begin(kRequest, -1, req);
  Shadow& s = c.shadow;
  if (op.kind == OpKind::kAdd || op.kind == OpKind::kRemove) {
    t0 = NowNs();
    c.tracer.Time(kGraphToggle, root, req, [&] {
      status = op.kind == OpKind::kAdd ? tc.graph->AddEdge(op.a, op.b)
                                       : tc.graph->RemoveEdge(op.a, op.b);
    });
    t1 = NowNs();
    if (tc.wal != nullptr && status.ok()) {
      c.tracer.Time(kPersistWalAppend, root, req, [&] {
        (void)tc.wal->Append(op.kind == OpKind::kAdd
                                 ? privrec::WalRecordKind::kAddEdge
                                 : privrec::WalRecordKind::kRemoveEdge,
                             op.a, op.b);
      });
    }
    c.tracer.End(root);
    Finish(c, rec, status, t0, t1, clock);
    return;
  }
  TracePublish(tc, c, root, req);
  const ServiceStats before =
      tc.attribute_cache ? tc.service->stats() : ServiceStats{};
  const bool single = op.kind == OpKind::kSingle;
  std::optional<privrec::Result<NodeId>> pick;
  std::optional<privrec::Result<privrec::TopKResult>> list;
  const int32_t call = c.tracer.Begin(single ? kServiceServe : kServiceList,
                                      root, req);
  t0 = NowNs();
  if (single) {
    pick.emplace(tc.service->ServeRecommendation(op.a, c.rng));
  } else {
    list.emplace(tc.service->ServeList(op.a, kListK, c.rng));
  }
  t1 = NowNs();
  const int64_t call_ns = c.tracer.End(call);
  const ServiceStats after =
      tc.attribute_cache ? tc.service->stats() : ServiceStats{};
  status = single ? pick->status() : list->status();
  if (status.ok()) {
    Shadow::Entry* entry = nullptr;
    int64_t attributed =
        TraceUtilities(tc, c, root, req, op.a, before, after, &entry);
    attributed += TraceCharge(tc, c, root, req, op.a,
                              single ? "single recommendation" : "list");
    if (single) {
      rec.b = **pick;
      const bool built = tc.attribute_cache &&
                         after.sampler_reuses == before.sampler_reuses;
      const privrec::ExponentialMechanism mechanism(kEpsilon, s.sensitivity);
      if (built) {
        attributed += c.tracer.Time(kCoreSamplerBuild, root, req, [&] {
          entry->sampler.emplace(*mechanism.MakeSampler(entry->u));
        });
      } else if (!entry->sampler) {
        entry->sampler.emplace(*mechanism.MakeSampler(entry->u));
      }
      attributed += c.tracer.Time(kCoreDraw, root, req,
                                  [&] { (void)entry->sampler->Draw(s.rng); });
      if (!InSupport(entry->u, rec.b)) {
        ++s.zero_picks;
        attributed += c.tracer.Time(kCoreZeroResolve, root, req, [&] {
          (void)privrec::ResolveZeroUtilityNode(View(tc, s), entry->u, s.rng);
        });
      }
      ++s.singles;
      s.support_sum += entry->u.nonzero().size();
      s.serve_ns += call_ns;
      s.unaccounted_ns += call_ns - attributed;
    } else {
      c.tracer.Time(kCorePeel, root, req, [&] {
        (void)privrec::PeelingExponentialTopK(entry->u, kListK, kEpsilon,
                                              s.sensitivity, s.rng);
      });
      SaveList(c, rec, **list);
    }
  }
  c.tracer.End(root);
  Finish(c, rec, status, t0, t1, clock);
}

// ------------------------------------------------------------------- setup

void Die(const std::string& what, const Status& status) {
  std::cerr << what << ": " << status.ToString() << "\n";
  std::exit(1);
}

CsrGraph MakeGraph(const Workload& w) {
  auto g = w.twitter ? privrec::MakeTwitterLike(kTwitterGraphSeed)
                     : privrec::MakeWikiVoteLike(kWikiGraphSeed);
  if (!g.ok()) Die("graph generation", g.status());
  return std::move(g).ValueOrDie();
}

/// One full set-up. `inputs` is derived from the first set-up's graph;
/// every set-up generates the same graph from the same seed.
std::unique_ptr<Instance> Setup(const Env& env, const CsrGraph& graph,
                                const Inputs& inputs, int rep) {
  const Workload& w = *env.w;
  auto inst = std::make_unique<Instance>();
  inst->graph = std::make_unique<DynamicGraph>(graph);
  ServiceOptions options;
  options.release_epsilon = kEpsilon;
  options.per_user_budget = kBudget;
  options.cache_capacity =
      w.cache_capacity > 0 ? w.cache_capacity : 2 * graph.num_nodes();
  options.num_shards = kNumShards;
  options.seed = env.seed;
  if (w.node_dp) {
    options.privacy_model = PrivacyModel::kNode;
    options.degree_cap = kDegreeCap;
  }
  if (w.wal_group > 0) {
    inst->dir = env.out_dir + "/logs-" + std::to_string(getpid()) + "-" +
                std::to_string(rep);
    std::error_code ec;
    std::filesystem::remove_all(inst->dir, ec);
    std::filesystem::create_directories(inst->dir, ec);
    privrec::WalOptions wal_options;
    wal_options.group_commit_records = w.wal_group;
    auto wal = WriteAheadLog::Open(inst->dir + "/wal", wal_options);
    if (!wal.ok()) Die("open WAL", wal.status());
    inst->wal = std::move(wal).ValueOrDie();
    options.wal = inst->wal.get();
  }
  if (w.ledger) {
    auto ledger = BudgetLedger::Open(inst->dir + "/ledger");
    if (!ledger.ok()) Die("open ledger", ledger.status());
    inst->ledger = std::move(ledger).ValueOrDie();
    options.budget_ledger = inst->ledger.get();
  }
  inst->service = std::make_unique<RecommendationService>(
      inst->graph.get(), std::make_unique<CommonNeighborsUtility>(), options);
  if (w.wal_group > 0) {
    const int64_t t0 = NowNs();
    const Status status = inst->service->SaveCheckpoint(inst->dir);
    if (!status.ok()) Die("genesis checkpoint", status);
    inst->checkpoint_us = (NowNs() - t0) / 1e3;
  }
  SplitMix64 seeds(env.seed ^ 0xca11e25ULL);
  for (int t = 0; t < env.threads; ++t) {
    inst->callers.push_back(std::make_unique<Caller>(
        seeds.Next(), w, inputs, inputs.slots[t], graph.num_nodes()));
  }
  if (w.fill_cache) {
    Rng rng(env.seed ^ 0xf111ULL);
    for (NodeId user : inputs.users) {
      auto r = inst->service->ServeForAudit(user, rng);
      if (!r.ok()) Die("cache fill", r.status());
    }
  }
  for (auto& c : inst->callers) {
    for (int r = 0; r < w.warm_rounds; ++r) {
      for (size_t i = 0; i < w.round_ops; ++i) {
        RunOp(*inst, *c, c->stream.Next(), nullptr);
      }
    }
  }
  return inst;
}

// ------------------------------------------------------------- measurement

struct Counters {
  ServiceStats stats;
  uint64_t snapshot_patches = 0;
  uint64_t snapshot_builds = 0;
  uint64_t projection_patches = 0;
  uint64_t projection_builds = 0;
};

Counters ReadCounters(const Instance& inst) {
  return Counters{inst.service->stats(), inst.graph->snapshot_patches(),
                  inst.graph->snapshot_builds(),
                  inst.graph->projection_patches(),
                  inst.graph->projection_builds()};
}

/// Runs one caller's closed loop in whole rounds until the run length has
/// passed and at least `min_rounds` rounds are done. `at_round` is called
/// after each round with the number done.
template <typename OnRound>
void RunCaller(const Env& env, Instance& inst, TraceContext* tc, Caller& c,
               const Clock& clock, int min_rounds, OnRound at_round) {
  const int64_t hard_stop = clock.start + static_cast<int64_t>(kHardStopSeconds * 1e9);
  for (int rounds = 1;; ++rounds) {
    for (size_t i = 0; i < env.w->round_ops; ++i) {
      const Op op = c.stream.Next();
      if (tc != nullptr) {
        RunOpTraced(*tc, c, op, &clock);
      } else {
        RunOp(inst, c, op, &clock);
      }
    }
    at_round(rounds);
    const int64_t now = NowNs();
    if ((now - clock.start >= clock.run_ns && rounds >= min_rounds) ||
        now >= hard_stop) {
      return;
    }
  }
}

double Percentile(std::vector<uint32_t> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  const size_t index = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + index, v.end());
  return v[index];
}

double Mean(const std::vector<uint32_t>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (uint32_t x : v) sum += x;
  return sum / v.size();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Merges every caller's samples of one kind in one block.
std::vector<uint32_t> BlockSamples(const Instance& inst, SampleKind kind, int b) {
  std::vector<uint32_t> all;
  for (const auto& c : inst.callers) {
    all.insert(all.end(), c->samples[kind][b].begin(), c->samples[kind][b].end());
  }
  return all;
}

std::vector<uint32_t> RunSamples(const Instance& inst, SampleKind kind) {
  std::vector<uint32_t> all;
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<uint32_t> block = BlockSamples(inst, kind, b);
    all.insert(all.end(), block.begin(), block.end());
  }
  return all;
}

/// Median over blocks of a per-block statistic, in microseconds.
template <typename Stat>
double BlockMedianUs(const Instance& inst, SampleKind kind, Stat stat) {
  std::vector<double> values;
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<uint32_t> block = BlockSamples(inst, kind, b);
    if (!block.empty()) values.push_back(stat(block) / 1e3);
  }
  return Median(values);
}

// ----------------------------------------------------------------- checks

struct Verdict {
  bool ok = true;
  void Add(const std::string& name, bool pass, const std::string& detail) {
    ok = ok && pass;
    std::cout << "check " << name << ": " << (pass ? "ok" : "FAIL") << " ("
              << detail << ")\n";
  }
  void Add(const std::string& name, const CheckResult& r) { Add(name, r.ok, r.detail); }
};

struct Replay {
  uint64_t invalid_picks = 0;
  uint64_t invalid_lists = 0;
  uint64_t bad_toggles = 0;
  double accuracy_sum = 0;
  uint64_t accuracy_n = 0;
  double expected_sum = 0;
  double variance_sum = 0;
  uint64_t digest_zero_picks = 0;
  uint64_t pick_hash = 1469598103934665603ULL;
};

void HashIn(uint64_t& h, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
}

/// Per-user reference numbers, recomputed when a toggle reached the user.
struct UserRef {
  uint64_t at = ~uint64_t{0};
  uint32_t max = 0;
  AccuracyMoments moments;
};

/// Checks one caller's requests on the mirror. With `in_order` the mirror
/// applies each toggle where it was sent (single caller); otherwise the
/// caller's toggles were applied up front (concurrent, where no toggle can
/// change a served user's utilities).
void ReplayCaller(const Workload& w, Mirror& mirror, const Caller& c,
                  bool in_order, size_t digest_records, Replay& out,
                  std::vector<UserRef>& refs, std::vector<uint32_t>& scratch) {
  const uint32_t cap = ViewCap(w);
  for (size_t i = 0; i < c.records.size(); ++i) {
    const Record& rec = c.records[i];
    if (!rec.ok) continue;
    const bool digest = i < digest_records;
    if (digest) {
      HashIn(out.pick_hash, static_cast<uint64_t>(rec.kind) << 32 | rec.a);
    }
    switch (rec.kind) {
      case OpKind::kAdd:
      case OpKind::kRemove:
        if (in_order && !mirror.Toggle(rec.a, rec.b, rec.kind == OpKind::kAdd)) {
          ++out.bad_toggles;
        }
        break;
      case OpKind::kSingle: {
        if (digest) HashIn(out.pick_hash, rec.b);
        if (!mirror.IsCandidate(rec.a, rec.b, cap)) {
          ++out.invalid_picks;
          break;
        }
        if (digest && mirror.Utility(rec.a, rec.b, cap) == 0) ++out.digest_zero_picks;
        if (!rec.timed) break;
        UserRef& ref = refs[rec.a];
        if (ref.at == ~uint64_t{0} || !mirror.UnchangedSince(rec.a, ref.at)) {
          const RefVector raw = mirror.Utilities(rec.a, 0, scratch);
          ref.max = raw.max;
          if (w.exact_accuracy) ref.moments = ExactAccuracy(raw, kEpsilon, DeltaF(w));
          ref.at = mirror.toggles();
        }
        if (ref.max == 0) break;
        out.accuracy_sum +=
            static_cast<double>(mirror.Utility(rec.a, rec.b, 0)) / ref.max;
        ++out.accuracy_n;
        out.expected_sum += ref.moments.mean;
        out.variance_sum += ref.moments.second - ref.moments.mean * ref.moments.mean;
        break;
      }
      case OpKind::kList: {
        std::span<const NodeId> picks(c.list_picks.data() + rec.list_index, kListK);
        if (digest) {
          for (NodeId p : picks) HashIn(out.pick_hash, p);
        }
        if (!ValidList(mirror, cap, rec.a, picks, kListK)) ++out.invalid_lists;
        break;
      }
    }
  }
}

/// Closes the service and its logs, recovers the graph (and the ledger,
/// when the workload has one) from disk alone, and checks them against the
/// mirror and the tallies; the recovered service must then serve.
void CheckRecovery(const Env& env, Instance& inst, const Mirror& mirror,
                   const std::vector<uint32_t>& charged, const Inputs& inputs,
                   Verdict& verdict, double* recover_us) {
  const Status synced = inst.wal->Sync();
  inst.service.reset();
  inst.graph.reset();
  inst.wal.reset();
  inst.ledger.reset();
  const int64_t t0 = NowNs();
  auto wal = WriteAheadLog::Open(inst.dir + "/wal");
  if (!wal.ok()) Die("reopen WAL", wal.status());
  auto graph = privrec::RecoverGraph(inst.dir, **wal);
  if (!graph.ok()) Die("recover graph", graph.status());
  std::unique_ptr<BudgetLedger> ledger;
  if (env.w->ledger) {
    auto opened = BudgetLedger::Open(inst.dir + "/ledger");
    if (!opened.ok()) Die("reopen ledger", opened.status());
    ledger = std::move(opened).ValueOrDie();
  }
  *recover_us = (NowNs() - t0) / 1e3;
  verdict.Add("recovered_graph", synced.ok() && mirror.Equals(*(*graph)->SharedSnapshot()),
              "recovered " + std::to_string((*graph)->num_edges()) + " edges");
  std::unordered_map<NodeId, double> spent;
  if (ledger) {
    spent = ledger->SpentByUser();
    uint64_t mismatched = 0;
    for (NodeId user = 0; user < charged.size(); ++user) {
      auto it = spent.find(user);
      const double got = it == spent.end() ? 0.0 : it->second;
      if (std::abs(got - kEpsilon * charged[user]) > 1e-9) ++mismatched;
    }
    verdict.Add("recovered_ledger", mismatched == 0,
                std::to_string(mismatched) + " users differ from the tallies");
  }
  ServiceOptions options;
  options.release_epsilon = kEpsilon;
  options.per_user_budget = kBudget;
  options.num_shards = kNumShards;
  options.wal = wal->get();
  options.budget_ledger = ledger.get();
  RecommendationService recovered(graph->get(),
                                  std::make_unique<CommonNeighborsUtility>(),
                                  options);
  recovered.ImportSpentBudgets(spent);
  Rng rng(env.seed);
  const NodeId user = inputs.audit_users[0];
  const uint32_t before = ledger ? charged[user] : 0;
  auto pick = recovered.ServeRecommendation(user, rng);
  verdict.Add("recovered_serve",
              pick.ok() && mirror.IsCandidate(user, *pick, 0) &&
                  std::abs(recovered.RemainingBudget(user) -
                           (kBudget - kEpsilon * (before + 1))) < 1e-9,
              pick.ok() ? "served " + std::to_string(*pick) : pick.status().ToString());
}

// ------------------------------------------------------------------ output

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string Json() const {
    std::ostringstream out;
    out.precision(12);
    out << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      out << (i ? ", " : "") << JsonString(entries_[i].first) << ": {\"value\": "
          << entries_[i].second.first
          << ", \"unit\": " << JsonString(entries_[i].second.second) << "}";
    }
    return out.str() + "}";
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> entries_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_build/servebench";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << flag << "\n";
      std::exit(2);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      std::exit(2);
    }
  }
  if (args.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
    std::cerr << "--seconds must be positive and --trace 0 or 1\n";
    std::exit(2);
  }
  return args;
}

double SpanMeanUs(const Instance& inst, uint16_t name) {
  double sum = 0;
  uint64_t n = 0;
  for (const auto& c : inst.callers) {
    for (const Span& s : c->tracer.spans()) {
      if (s.name == name) {
        sum += s.end_ns - s.start_ns;
        ++n;
      }
    }
  }
  return n == 0 ? 0.0 : sum / n / 1e3;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Env env{w, args.seed, args.out_dir, args.trace == 1,
          w->concurrent ? std::min(nproc, 8) : 1};
  std::filesystem::create_directories(env.out_dir);

  // Set-up, several times; the last instance is the one measured.
  const int64_t run_start = NowNs();
  std::vector<double> setup_s;
  std::optional<CsrGraph> base;
  std::optional<Inputs> inputs;
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    inst.reset();
    const int64_t t0 = NowNs();
    CsrGraph graph = MakeGraph(*w);
    int64_t inputs_ns = 0;  // the benchmark's own work, not set-up
    if (!inputs) {
      const int64_t i0 = NowNs();
      inputs.emplace(MakeInputs(*w, graph, env.seed, env.threads));
      inputs_ns = NowNs() - i0;
    }
    inst = Setup(env, graph, *inputs, rep);
    setup_s.push_back((NowNs() - t0 - inputs_ns) / 1e9);
    if (!base) base.emplace(std::move(graph));
  }
  const int64_t setup_end = NowNs();
  Mirror mirror(*base);
  const NodeId n = base->num_nodes();

  // Scratch logs for the traced persist-layer calls.
  std::unique_ptr<WriteAheadLog> trace_wal;
  std::unique_ptr<BudgetLedger> trace_ledger;
  const std::string trace_dir =
      env.out_dir + "/trace-logs-" + std::to_string(getpid());
  std::optional<TraceContext> tc;
  if (env.traced) {
    tc.emplace();
    tc->w = w;
    tc->graph = inst->graph.get();
    tc->service = inst->service.get();
    tc->attribute_cache = env.threads == 1;
    if (w->wal_group > 0) {
      std::filesystem::create_directories(trace_dir);
      privrec::WalOptions wal_options;
      wal_options.group_commit_records = w->wal_group;
      trace_wal = std::move(WriteAheadLog::Open(trace_dir + "/wal", wal_options))
                      .ValueOrDie();
      tc->wal = trace_wal.get();
    }
    if (w->ledger) {
      trace_ledger = std::move(BudgetLedger::Open(trace_dir + "/ledger")).ValueOrDie();
      tc->ledger = trace_ledger.get();
    }
  }

  // Timed phase.
  Clock clock;
  clock.run_ns = static_cast<int64_t>(args.seconds * 1e9);
  std::vector<size_t> digest_records(env.threads, 0);
  Counters digest_counters;
  const Counters start_counters = ReadCounters(*inst);
  clock.start = NowNs();
  if (env.threads == 1) {
    Caller& c = *inst->callers[0];
    RunCaller(env, *inst, tc ? &*tc : nullptr, c, clock, kDigestRounds,
              [&](int rounds) {
                if (rounds == kDigestRounds) {
                  digest_records[0] = c.records.size();
                  digest_counters = ReadCounters(*inst);
                }
              });
  } else {
    std::vector<std::thread> threads;
    for (int t = 0; t < env.threads; ++t) {
      threads.emplace_back([&, t] {
        RunCaller(env, *inst, tc ? &*tc : nullptr, *inst->callers[t], clock, 1,
                  [](int) {});
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const int64_t end = NowNs();
  const Counters end_counters = ReadCounters(*inst);

  // Replay every request on the mirror.
  Verdict verdict;
  Replay replay;
  std::vector<UserRef> refs(n);
  std::vector<uint32_t> scratch(n, 0);
  std::vector<uint32_t> charged(n, 0);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto& c : inst->callers) {
    attempted += c->attempted;
    failed += c->failed;
    if (c->failed > 0) std::cout << "failure: " << c->first_error << "\n";
    for (NodeId u = 0; u < n; ++u) charged[u] += c->charged[u];
  }
  if (env.threads == 1) {
    ReplayCaller(*w, mirror, *inst->callers[0], true, digest_records[0], replay,
                 refs, scratch);
  } else {
    for (const auto& c : inst->callers) {
      for (const Record& rec : c->records) {
        if (rec.ok && (rec.kind == OpKind::kAdd || rec.kind == OpKind::kRemove) &&
            !mirror.Toggle(rec.a, rec.b, rec.kind == OpKind::kAdd)) {
          ++replay.bad_toggles;
        }
      }
    }
    for (const auto& c : inst->callers) {
      ReplayCaller(*w, mirror, *c, false, 0, replay, refs, scratch);
    }
  }
  verdict.Add("picks", replay.invalid_picks == 0,
              std::to_string(replay.invalid_picks) + " invalid single picks");
  verdict.Add("lists", replay.invalid_lists == 0,
              std::to_string(replay.invalid_lists) + " invalid lists");
  verdict.Add("toggles", replay.bad_toggles == 0,
              std::to_string(replay.bad_toggles) + " toggles the mirror refused");
  verdict.Add("graph_state", CheckGraph(mirror, *inst->graph->SharedSnapshot()));
  verdict.Add("budgets", CheckBudgets(*inst->service, charged, kBudget, kEpsilon,
                                      w->ledger));
  {
    Rng audit_rng(kAuditSeed);
    for (NodeId user : inputs->audit_users) {
      std::vector<NodeId> draws;
      for (size_t i = 0; i < kAuditDraws; ++i) {
        auto r = inst->service->ServeForAudit(user, audit_rng);
        if (!r.ok()) Die("audit serve", r.status());
        draws.push_back(*r);
      }
      verdict.Add("distribution",
                  CheckDistribution(mirror, ViewCap(*w), user, draws, kEpsilon,
                                    DeltaF(*w)));
    }
  }
  if (w->exact_accuracy) {
    verdict.Add("accuracy", CheckAccuracy(replay.accuracy_sum, replay.expected_sum,
                                          replay.variance_sum, replay.accuracy_n));
  }
  double recover_us = 0;
  if (w->wal_group > 0) {
    CheckRecovery(env, *inst, mirror, charged, *inputs, verdict, &recover_us);
  }

  const int64_t checks_end = NowNs();
  std::cout << "phases {\"setup_s\": " << (setup_end - run_start) / 1e9
            << ", \"timed_s\": " << (end - clock.start) / 1e9
            << ", \"checks_s\": " << (checks_end - end) / 1e9 << "}\n";

  // Provenance and work digest.
  uint64_t timed_rounds = 0;
  for (const auto& c : inst->callers) {
    uint64_t timed = 0;
    for (int b = 0; b < kBlocks; ++b) timed += c->block_ops[b];
    timed_rounds += timed / w->round_ops;
  }
  std::cout << "provenance {\"commit\": " << JsonString(args.commit)
            << ", \"source_digest\": " << JsonString(args.source_digest)
            << ", \"compiler\": " << JsonString(SERVEBENCH_COMPILER)
            << ", \"build_type\": " << JsonString(SERVEBENCH_BUILD_TYPE)
            << ", \"flags\": " << JsonString(SERVEBENCH_FLAGS)
            << ", \"cpu\": " << JsonString(ReadCpuModel())
            << ", \"nproc\": " << nproc << ", \"callers\": " << env.threads
            << ", \"run_seconds\": " << args.seconds
            << ", \"timed_seconds\": " << (end - clock.start) / 1e9
            << ", \"setup_repeats\": " << kSetupRepeats
            << ", \"blocks\": " << kBlocks << ", \"timed_rounds\": " << timed_rounds
            << ", \"round_ops\": " << w->round_ops << "}\n";
  if (env.threads == 1) {
    uint64_t kinds[4] = {};
    const Caller& c = *inst->callers[0];
    for (size_t i = 0; i < digest_records[0]; ++i) {
      ++kinds[static_cast<int>(c.records[i].kind)];
    }
    const ServiceStats& s = digest_counters.stats;
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(replay.pick_hash));
    std::cout << "digest {\"workload\": " << JsonString(w->name)
              << ", \"seed\": " << env.seed << ", \"requests\": "
              << digest_records[0] << ", \"single\": " << kinds[0]
              << ", \"list\": " << kinds[1] << ", \"add\": " << kinds[2]
              << ", \"remove\": " << kinds[3] << ", \"cache_hits\": "
              << s.cache_hits << ", \"cache_misses\": " << s.cache_misses
              << ", \"kept\": " << s.delta_kept << ", \"patched\": "
              << s.delta_patched << ", \"recomputed\": " << s.delta_recomputed
              << ", \"journal_fallbacks\": " << s.journal_fallbacks
              << ", \"zero_block_picks\": " << replay.digest_zero_picks
              << ", \"snapshot_patches\": " << digest_counters.snapshot_patches
              << ", \"snapshot_builds\": " << digest_counters.snapshot_builds
              << ", \"projection_patches\": " << digest_counters.projection_patches
              << ", \"projection_builds\": " << digest_counters.projection_builds
              << ", \"ledger_appends\": " << s.ledger_appends
              << ", \"pick_hash\": \"" << hash << "\"}\n";
  }

  // Metrics.
  Metrics m;
  const double timed_s = (end - clock.start) / 1e9;
  auto p50 = [](const std::vector<uint32_t>& v) { return Percentile(v, 0.50); };
  const double serve_p50 = BlockMedianUs(*inst, kServeSamples, p50);
  const double serve_mean = BlockMedianUs(*inst, kServeSamples, Mean);
  const double serve_p99 = Percentile(RunSamples(*inst, kServeSamples), 0.99) / 1e3;
  const double list_p50 = BlockMedianUs(*inst, kListSamples, p50);
  const double list_p99 = Percentile(RunSamples(*inst, kListSamples), 0.99) / 1e3;
  const double mutate_p50 = BlockMedianUs(*inst, kMutateSamples, p50);
  std::vector<double> block_throughput;
  for (int b = 0; b < kBlocks; ++b) {
    uint64_t ops = 0;
    for (const auto& c : inst->callers) ops += c->block_ops[b];
    const double len = b + 1 < kBlocks ? clock.run_ns / 1e9 / kBlocks
                                       : timed_s - (kBlocks - 1) * clock.run_ns / 1e9 / kBlocks;
    block_throughput.push_back(ops / len);
  }
  const double accuracy =
      replay.accuracy_n ? replay.accuracy_sum / replay.accuracy_n : 0.0;
  {
    auto series = [&](const char* name, SampleKind kind, auto stat) {
      std::cout << "\"" << name << "\": [";
      for (int b = 0; b < kBlocks; ++b) {
        std::vector<uint32_t> block = BlockSamples(*inst, kind, b);
        std::cout << (b ? ", " : "") << (block.empty() ? 0.0 : stat(block) / 1e3);
      }
      std::cout << "], ";
    };
    std::cout << "blocks {";
    series("serve_p50", kServeSamples, p50);
    series("serve_mean", kServeSamples, Mean);
    series("serve_p99", kServeSamples, [](const std::vector<uint32_t>& v) { return Percentile(v, 0.99); });
    series("list_p50", kListSamples, p50);
    series("mutate_p50", kMutateSamples, p50);
    std::cout << "\"throughput\": [";
    for (int b = 0; b < kBlocks; ++b) std::cout << (b ? ", " : "") << block_throughput[b];
    std::cout << "], \"setup\": [";
    for (size_t i = 0; i < setup_s.size(); ++i) std::cout << (i ? ", " : "") << setup_s[i];
    std::cout << "]}\n";
    std::vector<uint32_t> all = RunSamples(*inst, kServeSamples);
    std::sort(all.begin(), all.end());
    std::cout << "serve_quantiles_us {";
    for (int q = 5; q <= 95 && !all.empty(); q += 5) {
      std::cout << (q > 5 ? ", " : "") << "\"p" << q << "\": "
                << all[std::min(all.size() - 1, all.size() * q / 100)] / 1e3;
    }
    std::cout << "}\n";
  }
  std::cout << "samples {\"serve\": " << RunSamples(*inst, kServeSamples).size()
            << ", \"list\": " << RunSamples(*inst, kListSamples).size()
            << ", \"mutate\": " << RunSamples(*inst, kMutateSamples).size()
            << ", \"serve_p50_us\": " << serve_p50
            << ", \"mutate_p50_us\": " << mutate_p50
            << ", \"accuracy_serves\": " << replay.accuracy_n << "}\n";
  if (!env.traced) {
    m.Add("serve_p99_us", serve_p99, "us");
    m.Add("serve_mean_us", serve_mean, "us");
    m.Add("list_p50_us", list_p50, "us");
    m.Add("list_p99_us", list_p99, "us");
    m.Add("throughput_ops_s", Median(block_throughput), "1/s");
    m.Add("accuracy", accuracy, "ratio");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    std::cout << "traced_end_to_end {\"serve_p50_us\": " << serve_p50
              << ", \"serve_mean_us\": " << serve_mean
              << ", \"list_p50_us\": " << list_p50
              << ", \"mutate_p50_us\": " << mutate_p50
              << ", \"throughput_ops_s\": " << Median(block_throughput) << "}\n";
    const ServiceStats& s0 = start_counters.stats;
    const ServiceStats& s1 = end_counters.stats;
    const double hits = s1.cache_hits - s0.cache_hits;
    const double misses = s1.cache_misses - s0.cache_misses;
    const double repairs = (s1.delta_patched - s0.delta_patched) +
                           (s1.delta_recomputed - s0.delta_recomputed);
    uint64_t singles = 0, zero_picks = 0, unsampled = 0;
    double support = 0, serve_ns = 0, unaccounted_ns = 0;
    for (const auto& c : inst->callers) {
      singles += c->shadow.singles;
      zero_picks += c->shadow.zero_picks;
      unsampled += c->shadow.patch_unsampled;
      support += c->shadow.support_sum;
      serve_ns += c->shadow.serve_ns;
      unaccounted_ns += c->shadow.unaccounted_ns;
    }
    std::cout << "trace_notes {\"patches_not_timed\": " << unsampled << "}\n";
    m.Add("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    m.Add("serve.repairs_kept", s1.delta_kept - s0.delta_kept, "count");
    m.Add("serve.repairs_patched", s1.delta_patched - s0.delta_patched, "count");
    m.Add("serve.repairs_recomputed", s1.delta_recomputed - s0.delta_recomputed, "count");
    m.Add("serve.journal_fallbacks", s1.journal_fallbacks - s0.journal_fallbacks, "count");
    m.Add("serve.repair_us",
          repairs > 0 ? (s1.repair_ns - s0.repair_ns) / repairs / 1e3 : 0, "us");
    m.Add("serve.p50_us", serve_p50, "us");
    m.Add("serve.span_mean_us", singles ? serve_ns / singles / 1e3 : 0, "us");
    m.Add("serve.unaccounted_us", singles ? unaccounted_ns / singles / 1e3 : 0, "us");
    m.Add("serve.unaccounted_share", serve_ns > 0 ? unaccounted_ns / serve_ns : 0, "ratio");
    m.Add("graph.toggle_us", SpanMeanUs(*inst, kGraphToggle), "us");
    m.Add("graph.publish_us", SpanMeanUs(*inst, kGraphPublish), "us");
    m.Add("graph.snapshot_patches",
          end_counters.snapshot_patches - start_counters.snapshot_patches, "count");
    m.Add("graph.snapshot_builds",
          end_counters.snapshot_builds - start_counters.snapshot_builds, "count");
    m.Add("graph.projection_patches",
          end_counters.projection_patches - start_counters.projection_patches, "count");
    m.Add("graph.projection_builds",
          end_counters.projection_builds - start_counters.projection_builds, "count");
    m.Add("utility.compute_us", SpanMeanUs(*inst, kUtilityCompute), "us");
    m.Add("utility.patch_us", SpanMeanUs(*inst, kUtilityPatch), "us");
    m.Add("utility.sensitivity_us", SpanMeanUs(*inst, kUtilitySensitivity), "us");
    m.Add("utility.support_mean", singles ? support / singles : 0, "count");
    m.Add("core.zero_resolve_us", SpanMeanUs(*inst, kCoreZeroResolve), "us");
    m.Add("core.zero_block_share", singles ? static_cast<double>(zero_picks) / singles : 0,
          "ratio");
    m.Add("core.draw_us", SpanMeanUs(*inst, kCoreDraw), "us");
    m.Add("core.sampler_build_us", SpanMeanUs(*inst, kCoreSamplerBuild), "us");
    m.Add("core.peel_us", SpanMeanUs(*inst, kCorePeel), "us");
    m.Add("core.charge_us", SpanMeanUs(*inst, kCoreCharge), "us");
    m.Add("persist.ledger_append_us", SpanMeanUs(*inst, kPersistLedgerAppend), "us");
    m.Add("persist.wal_append_us", SpanMeanUs(*inst, kPersistWalAppend), "us");
    m.Add("persist.checkpoint_us", inst->checkpoint_us, "us");
    m.Add("persist.recover_us", recover_us, "us");
    m.Add("persist.ledger_appends", s1.ledger_appends - s0.ledger_appends, "count");
    const std::string path = env.out_dir + "/trace-" + w->name + ".tsv";
    std::ofstream out(path);
    out << "thread\tspan\tname\tstart_ns\tend_ns\tparent\trequest\n";
    for (size_t t = 0; t < inst->callers.size(); ++t) {
      inst->callers[t]->tracer.Write(out, static_cast<int>(t), clock.start);
    }
    std::cout << "trace_file " << path << "\n";
  }
  inst.reset();
  trace_wal.reset();
  trace_ledger.reset();
  if (env.traced && w->wal_group > 0) {
    std::error_code ec;
    std::filesystem::remove_all(trace_dir, ec);
  }

  std::cout << "{\"correct\": " << (verdict.ok ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << m.Json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
