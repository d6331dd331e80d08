// Serve-path benchmark of RecommendationService: open-loop latency,
// closed-loop capacity and set-up time on two traffic mixes over one
// power-law graph, with a traced mode that splits the time across the
// library's modules and times the durable path and its recovery.
//
//   servebench --workload=hit_read|churn_miss --seed=N
//              --seconds=S --trace=0|1 --out-dir=DIR [--git-sha=SHA]
//
// The run's traffic is generated from --seed: arrival schedules, request
// users, edge toggles and the service's randomness, over a fixed Chung-Lu
// graph and user population (see kFixtureSeed). The program
// checks every release it receives (see the Checker calls) and prints,
// as its last stdout line, {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace=0, the per-layer ones with
// --trace=1. Durable state and scratch files live in a fresh directory
// under --out-dir that is removed on exit; a traced run also leaves its
// spans in DIR/trace-<workload>.csv.
//
// Tracing records spans only from this file: around each request, and
// inside the service through TracedUtility, a forwarding decorator of the
// utility. The layers the service calls directly (core, random, graph,
// persist) are timed by replaying the same calls on the same inputs after
// the traced phase.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/exponential_mechanism.h"
#include "core/mechanism.h"
#include "core/topk.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "harness.h"
#include "persist/budget_ledger.h"
#include "persist/checkpoint.h"
#include "persist/wal.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using privrec::BudgetLedger;
using privrec::CsrGraph;
using privrec::DynamicGraph;
using privrec::EdgeDelta;
using privrec::NodeId;
using privrec::RecommendationService;
using privrec::Rng;
using privrec::ServiceOptions;
using privrec::ServiceStats;
using privrec::Status;
using privrec::UtilityFunction;
using privrec::UtilityVector;
using privrec::UtilityWorkspace;
using privrec::WriteAheadLog;
using Clock = std::chrono::steady_clock;

// The graph: Chung-Lu with power-law weights at wiki-Vote scale.
constexpr NodeId kNodes = 8000;
constexpr uint64_t kEdges = 40000;
constexpr double kDegreeExponent = 2.2;
// Release ε = 1 is where both the O(1) draw and the zero-utility block
// show up; the budget is large enough that no serve is ever refused.
constexpr double kEpsilon = 1.0;
constexpr double kBudget = 1e12;
constexpr size_t kListK = 5;
// Share of reads that are ServeList(k = 5) instead of single serves.
constexpr double kListShare = 0.1;
constexpr double kZipfAlpha = 1.2;
// The graph and the user population (hot set, Zipf rank order) are one
// fixed fixture; --seed varies the traffic drawn from it: arrivals, users,
// toggles and the service's randomness. With a seeded population the Zipf
// head, where a few users take ~30 % of requests, moved the medians by up
// to 2x between seeds.
constexpr uint64_t kFixtureSeed = 20110829;
constexpr size_t kShards = 8;
// Client threads of the open-loop phases. Two on a 4-vCPU host leave the
// other two to the host; with four, figures spread ~30 % between
// identical runs. serves_per_s comes from one closed-loop client: with two,
// churn_miss's Zipf head serialises both on one shard mutex and the rate
// spread 0.34 between runs. The traced run measures 1 against up to 4
// clients for the scaling curve.
constexpr unsigned kClients = 2;
constexpr unsigned kCapacityClients = 1;
constexpr unsigned kScalingClients = 4;
constexpr int kSetupRepeats = 7;
constexpr int kRecoverRepeats = 3;
// Share of an open-loop phase's windows its latencies are read from: the
// ones with the lowest generator lateness (see QuietestWindows). Host
// noise on a shared VM comes in bursts of seconds; in a noisy period
// hit_read's serve p50 rose ~1.7x while a code change moves every window.
constexpr double kQuietShare = 0.5;
// Open-loop rate of the durable phase: far below the fsync-bound capacity
// (~2000 to 8000 requests/s on the local disk, depending on the moment).
constexpr double kDurableRate = 400;
// hit_read times as many toggles as churn_miss's traffic issues in this
// share of a run.
constexpr double kMutatePhaseShare = 0.1;
// The untraced run measures in rounds, each an open-loop slice and then a
// closed-loop slice. The host's speed drifts by up to ~25 % over a few
// seconds, so one contiguous phase per metric read a different host on
// every run; rounds spread every metric over the whole run.
constexpr int kRounds = 8;
// Replayed calls per layer in a traced run (also bounded by time).
constexpr size_t kReplayRequests = 3000;
constexpr size_t kReplayToggles = 2000;
constexpr size_t kReplayAppends = 600;
constexpr size_t kDrawBatch = 256;
// Closed-loop log capacity reserved per client and second of phase.
constexpr double kClosedLoopReservePerSecond = 40000;

struct Workload {
  const char* name;
  // Users: a uniform hot set of `hot_users` nodes (all cached), or Zipf
  // over every node with rank mapped to node through a seeded permutation.
  bool zipf_users;
  size_t hot_users;
  size_t cache_capacity;
  double toggle_share;
  bool durable;
  // Traced runs also run this traffic on a durable service (WAL and
  // ledger attached) to time the persist layer.
  bool trace_durable;
  // Open-loop offered rate, requests per second over all clients. Kept
  // at 10-20 % of the 2-client read capacity (~20k-25k serves/s on a
  // 4-vCPU Xeon VM) so queueing does not amplify the host's noise.
  double offered_rate;
};

const Workload kWorkloads[] = {
    {"hit_read", false, 2000, 8192, 0.0, false, false, 4000},
    {"churn_miss", true, 0, kNodes / 8, 0.1, false, true, 2000},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  privrec::SplitMix64 mix(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  mix.Next();
  return mix.Next();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins until `due_ns`. Clients never sleep inside a phase: on a shared
/// VM a sleeping thread wakes milliseconds late, and the request it was
/// waiting for is timed from its due time.
void WaitUntilNs(int64_t due_ns) {
  while (NowNs() < due_ns) CpuRelax();
}

// Clients sleep until this long before a phase starts, then spin.
constexpr int64_t kStartSpinNs = 5'000'000;

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ------------------------------------------------------------ tracing

enum SpanName : uint32_t {
  kSpanServe,
  kSpanList,
  kSpanMutate,
  kSpanCompute,
  kSpanPatch,
  kSpanFilter,
  kSpanAffects,
  kSpanSensitivity,
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "serve",          "list",          "mutate",          "utility.compute",
    "utility.patch",  "utility.filter", "utility.affects", "utility.sensitivity",
};

/// Per-client trace buffer. Installed in t_trace only while a traced phase
/// runs on that client's thread.
struct TraceBuffer {
  std::vector<Span> spans;
  int32_t parent = -1;
  uint64_t request = 0;
  uint64_t filter_in = 0;
  uint64_t filter_kept = 0;
};

thread_local TraceBuffer* t_trace = nullptr;

/// Records one span into the installed buffer, nested under the span that
/// is open on this thread; a no-op when no buffer is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) : buffer_(t_trace) {
    if (buffer_ == nullptr) return;
    index_ = static_cast<int32_t>(buffer_->spans.size());
    saved_parent_ = buffer_->parent;
    buffer_->spans.push_back(
        Span{name, buffer_->parent, buffer_->request, NowNs(), 0});
    buffer_->parent = index_;
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) return;
    buffer_->spans[index_].end_ns = NowNs();
    buffer_->parent = saved_parent_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buffer_;
  int32_t index_ = -1;
  int32_t saved_parent_ = -1;
};

/// Forwards every call to the wrapped utility, recording a span around
/// the calls that do work. Handed to the service in traced runs only.
class TracedUtility final : public UtilityFunction {
 public:
  explicit TracedUtility(std::unique_ptr<UtilityFunction> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override {
    ScopedSpan span(kSpanCompute);
    return inner_->Compute(graph, target, workspace);
  }
  double SensitivityBound(const CsrGraph& graph) const override {
    ScopedSpan span(kSpanSensitivity);
    return inner_->SensitivityBound(graph);
  }
  double NodeSensitivityBound(const CsrGraph& projected,
                              uint32_t degree_cap) const override {
    ScopedSpan span(kSpanSensitivity);
    return inner_->NodeSensitivityBound(projected, degree_cap);
  }
  bool SupportsIncrementalUpdate() const override {
    return inner_->SupportsIncrementalUpdate();
  }
  UtilityVector ApplyEdgeDelta(const CsrGraph& graph, const EdgeDelta& delta,
                               NodeId target, const UtilityVector& cached,
                               UtilityWorkspace& workspace) const override {
    ScopedSpan span(kSpanPatch);
    return inner_->ApplyEdgeDelta(graph, delta, target, cached, workspace);
  }
  bool SupportsIncrementalBatch() const override {
    return inner_->SupportsIncrementalBatch();
  }
  UtilityVector ApplyEdgeDeltaBatch(const CsrGraph& graph,
                                    std::span<const EdgeDelta> deltas,
                                    NodeId target, const UtilityVector& cached,
                                    UtilityWorkspace& workspace) const override {
    ScopedSpan span(kSpanPatch);
    return inner_->ApplyEdgeDeltaBatch(graph, deltas, target, cached,
                                       workspace);
  }
  bool EdgeDeltaAffects(const CsrGraph& graph, const EdgeDelta& delta,
                        NodeId target,
                        const UtilityVector& cached) const override {
    return inner_->EdgeDeltaAffects(graph, delta, target, cached);
  }
  bool EdgeDeltaWindowAffects(const CsrGraph& graph,
                              std::span<const EdgeDelta> deltas, NodeId target,
                              const UtilityVector& cached) const override {
    ScopedSpan span(kSpanAffects);
    return inner_->EdgeDeltaWindowAffects(graph, deltas, target, cached);
  }
  void FilterAffectingWindow(const CsrGraph& graph,
                             std::span<const EdgeDelta> deltas, NodeId target,
                             const UtilityVector& cached,
                             std::vector<EdgeDelta>& out) const override {
    const size_t before = out.size();
    {
      ScopedSpan span(kSpanFilter);
      inner_->FilterAffectingWindow(graph, deltas, target, cached, out);
    }
    if (t_trace != nullptr) {
      t_trace->filter_in += deltas.size();
      t_trace->filter_kept += out.size() - before;
    }
  }
  double EdgeAlterationsT(const CsrGraph& graph, NodeId target,
                          const UtilityVector& utilities) const override {
    return inner_->EdgeAlterationsT(graph, target, utilities);
  }

 private:
  std::unique_ptr<UtilityFunction> inner_;
};

// ------------------------------------------------------------ inputs

/// Draws request users: a uniform hot set, or Zipf over every node with
/// rank mapped to node through a seeded permutation.
class UserPicker {
 public:
  UserPicker(const Workload& workload, Rng& rng) {
    std::vector<NodeId> perm(kNodes);
    for (NodeId v = 0; v < kNodes; ++v) perm[v] = v;
    for (NodeId i = kNodes - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.NextBounded(i + 1)]);
    }
    if (workload.zipf_users) {
      nodes_ = std::move(perm);
      cdf_.resize(kNodes);
      double total = 0;
      for (NodeId r = 0; r < kNodes; ++r) {
        total += std::pow(static_cast<double>(r) + 1.0, -kZipfAlpha);
        cdf_[r] = total;
      }
      for (double& c : cdf_) c /= total;
    } else {
      nodes_.assign(perm.begin(), perm.begin() + workload.hot_users);
    }
  }

  NodeId Pick(Rng& rng) const {
    if (cdf_.empty()) return nodes_[rng.NextBounded(nodes_.size())];
    const double u = rng.NextDouble();
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        nodes_.size() - 1);
    return nodes_[rank];
  }

  /// The hot set, or the `count` most popular Zipf users.
  std::vector<NodeId> Head(size_t count) const {
    count = std::min(count, nodes_.size());
    return {nodes_.begin(), nodes_.begin() + count};
  }

 private:
  std::vector<NodeId> nodes_;
  std::vector<double> cdf_;
};

enum class OpKind : uint8_t { kServe, kList, kToggle };

struct Op {
  OpKind kind = OpKind::kServe;
  NodeId a = 0;
  NodeId b = 0;
};

struct Mix {
  double toggle_share = 0;
  double list_share = kListShare;
};

/// A toggle of a uniform pair. Pairs are split between clients by pair
/// key, so no two clients of a phase ever toggle the same pair and every
/// toggle applies.
Op NextToggle(unsigned client, unsigned clients, Rng& rng) {
  for (;;) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(kNodes));
    NodeId v = static_cast<NodeId>(rng.NextBounded(kNodes));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if ((static_cast<uint64_t>(u) * kNodes + v) % clients != client) continue;
    return Op{OpKind::kToggle, u, v};
  }
}

/// Next request of one client.
Op NextOp(const Mix& mix, const UserPicker& users, unsigned client,
          unsigned clients, Rng& rng) {
  if (mix.toggle_share > 0 && rng.NextDouble() < mix.toggle_share) {
    return NextToggle(client, clients, rng);
  }
  const NodeId user = users.Pick(rng);
  return Op{rng.NextDouble() < mix.list_share ? OpKind::kList : OpKind::kServe,
            user, 0};
}

// ------------------------------------------------------------ service

/// One set-up service. Members are destroyed service first, then graph,
/// then the durable logs it writes to.
struct Env {
  std::string dir;
  std::unique_ptr<WriteAheadLog> wal;
  std::unique_ptr<BudgetLedger> ledger;
  std::unique_ptr<DynamicGraph> graph;
  std::unique_ptr<RecommendationService> service;
};

ServiceOptions MakeOptions(const Workload& workload, uint64_t seed) {
  ServiceOptions options;
  options.release_epsilon = kEpsilon;
  options.per_user_budget = kBudget;
  options.cache_capacity = workload.cache_capacity;
  options.num_shards = kShards;
  options.seed = seed;
  return options;
}

struct Checker {
  bool ok = true;
  std::vector<std::string> failures;
  void Fail(const std::string& what) {
    ok = false;
    if (failures.size() < 20) failures.push_back(what);
  }
  void Expect(bool cond, const std::string& what) {
    if (!cond) Fail(what);
  }
};

/// Graph generation, service construction and cache warm-up: what
/// setup_s measures.
std::unique_ptr<Env> SetUp(const Workload& workload, uint64_t seed,
                           const std::string& dir, const UserPicker& users,
                           bool traced, Checker& checker) {
  auto env = std::make_unique<Env>();
  Rng graph_rng(DeriveSeed(kFixtureSeed, 1));
  const auto weights = privrec::PowerLawWeights(kNodes, kDegreeExponent);
  auto csr = privrec::ChungLu(weights, weights, kEdges, /*directed=*/false,
                              graph_rng);
  if (!csr.ok()) {
    checker.Fail("graph generation: " + csr.status().ToString());
    return nullptr;
  }
  env->graph = std::make_unique<DynamicGraph>(*csr);
  env->graph->SetJournalCapacity(4 * static_cast<size_t>(kNodes));
  ServiceOptions options = MakeOptions(workload, DeriveSeed(seed, 2));
  if (workload.durable) {
    env->dir = dir;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto wal = WriteAheadLog::Open(dir + "/wal");
    auto ledger = BudgetLedger::Open(dir + "/ledger");
    if (!wal.ok() || !ledger.ok()) {
      checker.Fail("opening durable logs in " + dir);
      return nullptr;
    }
    env->wal = std::move(*wal);
    env->ledger = std::move(*ledger);
    options.wal = env->wal.get();
    options.budget_ledger = env->ledger.get();
  }
  std::unique_ptr<UtilityFunction> utility =
      std::make_unique<privrec::CommonNeighborsUtility>();
  if (traced) utility = std::make_unique<TracedUtility>(std::move(utility));
  env->service = std::make_unique<RecommendationService>(
      env->graph.get(), std::move(utility), options);
  if (workload.durable) {
    // Genesis checkpoint: recovery needs one before the first write.
    const Status status = env->service->SaveCheckpoint(dir);
    checker.Expect(status.ok(), "genesis checkpoint: " + status.ToString());
  }
  // Warm-up goes through the budget-neutral audit path so the spend checks
  // cover exactly the measured traffic.
  Rng warm_rng(DeriveSeed(seed, 3));
  for (NodeId user : users.Head(workload.cache_capacity)) {
    auto pick = env->service->ServeForAudit(user, warm_rng);
    checker.Expect(pick.ok(), "warm-up serve: " + pick.status().ToString());
  }
  return env;
}

// ------------------------------------------------------------ phases

struct ClientLog {
  // Open-loop latencies, one vector per time window of the phase.
  std::vector<std::vector<double>> serve_us;
  std::vector<std::vector<double>> list_us;
  std::vector<std::vector<double>> mutate_us;
  // Generator lateness of the requests whose client sat idle at due time.
  std::vector<std::vector<double>> late_us;
  // Closed loop: successful serves completed in each time window.
  std::vector<uint64_t> served_in_window;
  std::vector<std::pair<NodeId, NodeId>> picks;  // (user, pick)
  std::vector<NodeId> lists;                     // user, then kListK picks
  std::vector<std::pair<NodeId, NodeId>> toggles;
  std::vector<uint32_t> charged = std::vector<uint32_t>(kNodes, 0);
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t unsent = 0;
  uint64_t served = 0;
  std::string first_error;
  TraceBuffer trace;
};

struct PhaseSpec {
  Mix mix;
  bool open_loop = true;
  double rate = 0;  // open loop only, all clients
  double seconds = 0;
  // Latencies and closed-loop rates are summarised per window of this
  // length, then the median over windows is reported.
  double window_s = 1.0;
  unsigned clients = 1;
  uint64_t seed = 0;
  bool trace = false;
  size_t span_reserve = 0;  // per client
};

struct PhaseResult {
  std::vector<ClientLog> logs;
  double elapsed_s = 0;
  ServiceStats before;
  ServiceStats after;
  uint64_t snapshot_builds = 0;
  uint64_t snapshot_patches = 0;
  uint64_t wal_records = 0;

  size_t num_windows = 1;
  double window_s = 1.0;
  double seconds = 0;

  uint64_t Served() const {
    uint64_t n = 0;
    for (const ClientLog& log : logs) n += log.served;
    return n;
  }
  std::vector<std::vector<double>> Windows(
      std::vector<std::vector<double>> ClientLog::*field) const {
    std::vector<std::vector<double>> windows(num_windows);
    for (const ClientLog& log : logs) {
      for (size_t w = 0; w < (log.*field).size(); ++w) {
        windows[w].insert(windows[w].end(), (log.*field)[w].begin(),
                          (log.*field)[w].end());
      }
    }
    return windows;
  }
  std::vector<double> Flatten(
      std::vector<std::vector<double>> ClientLog::*field) const {
    std::vector<double> all;
    for (const auto& window : Windows(field)) {
      all.insert(all.end(), window.begin(), window.end());
    }
    return all;
  }
  /// Closed loop: successful serves per second in each window. The last
  /// window runs to the end of the phase.
  std::vector<double> WindowRates() const {
    std::vector<double> rates(num_windows, 0);
    for (size_t w = 0; w < num_windows; ++w) {
      const double length =
          w + 1 < num_windows
              ? window_s
              : seconds - window_s * static_cast<double>(num_windows - 1);
      for (const ClientLog& log : logs) {
        if (w < log.served_in_window.size()) {
          rates[w] += static_cast<double>(log.served_in_window[w]) / length;
        }
      }
    }
    return rates;
  }
};

/// Every window of `field` over `phases`, in order.
std::vector<std::vector<double>> WindowsOf(
    const std::vector<PhaseResult>& phases,
    std::vector<std::vector<double>> ClientLog::*field) {
  std::vector<std::vector<double>> windows;
  for (const PhaseResult& phase : phases) {
    for (auto& window : phase.Windows(field)) {
      windows.push_back(std::move(window));
    }
  }
  return windows;
}

/// Open loop: summary of `field` over the kQuietShare of `phases`' windows
/// the host disturbed least.
Summary QuietSummary(const std::vector<PhaseResult>& phases,
                     std::vector<std::vector<double>> ClientLog::*field) {
  return MedianOfWindows(SelectWindows(
      WindowsOf(phases, field),
      QuietestWindows(WindowsOf(phases, &ClientLog::late_us), kQuietShare)));
}

/// Every sample of `field` over `phases`.
std::vector<double> Pooled(const std::vector<PhaseResult>& phases,
                           std::vector<std::vector<double>> ClientLog::*field) {
  std::vector<double> all;
  for (const PhaseResult& phase : phases) {
    const std::vector<double> samples = phase.Flatten(field);
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

/// A closed loop of `clients` that issue the workload's reads only: with
/// toggles in the loop the write rate follows the serve rate, and
/// churn_miss's capacity swung between 5k and 13k serves/s within one run.
PhaseSpec ClosedLoop(double seconds, unsigned clients, uint64_t seed,
                     bool trace, size_t span_reserve) {
  PhaseSpec spec;
  spec.window_s = 0.5;
  spec.mix = Mix{0.0, kListShare};
  spec.open_loop = false;
  spec.seconds = seconds;
  spec.clients = clients;
  spec.seed = seed;
  spec.trace = trace;
  spec.span_reserve = span_reserve;
  return spec;
}

/// Issues one request and logs its outcome.
void Execute(Env& env, const Op& op, ClientLog& log) {
  ++log.attempted;
  auto record_error = [&](const Status& status) {
    ++log.errors;
    if (log.first_error.empty()) log.first_error = status.ToString();
  };
  switch (op.kind) {
    case OpKind::kServe: {
      ScopedSpan span(kSpanServe);
      auto pick = env.service->ServeRecommendation(op.a);
      if (!pick.ok()) return record_error(pick.status());
      log.picks.emplace_back(op.a, *pick);
      ++log.charged[op.a];
      ++log.served;
      return;
    }
    case OpKind::kList: {
      ScopedSpan span(kSpanList);
      auto list = env.service->ServeList(op.a, kListK);
      if (!list.ok()) return record_error(list.status());
      log.lists.push_back(op.a);
      for (size_t i = 0; i < kListK; ++i) {
        log.lists.push_back(i < list->picks.size() ? list->picks[i].node
                                                   : privrec::kUnresolvedZeroNode);
      }
      ++log.charged[op.a];
      ++log.served;
      return;
    }
    case OpKind::kToggle: {
      ScopedSpan span(kSpanMutate);
      const Status status = env.graph->HasEdge(op.a, op.b)
                                ? env.service->RemoveEdge(op.a, op.b)
                                : env.service->AddEdge(op.a, op.b);
      if (!status.ok()) return record_error(status);
      log.toggles.emplace_back(op.a, op.b);
      return;
    }
  }
}

size_t WindowCount(const PhaseSpec& spec) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::floor(spec.seconds / spec.window_s + 1e-9)));
}

void RunClient(Env& env, const UserPicker& users, const PhaseSpec& spec,
               unsigned client, int64_t t0, ClientLog& log) {
  Rng rng(DeriveSeed(spec.seed, 100 + client));
  if (spec.trace) {
    log.trace.spans.reserve(spec.span_reserve);
    t_trace = &log.trace;
  }
  uint64_t request = static_cast<uint64_t>(client) << 40;
  const int64_t end_ns = t0 + static_cast<int64_t>(spec.seconds * 1e9);
  const int64_t window_ns = static_cast<int64_t>(spec.window_s * 1e9);
  const size_t num_windows = WindowCount(spec);
  auto window_of = [&](int64_t offset_ns) {
    return std::min<size_t>(static_cast<size_t>(offset_ns / window_ns),
                            num_windows - 1);
  };
  log.serve_us.resize(num_windows);
  log.list_us.resize(num_windows);
  log.mutate_us.resize(num_windows);
  log.late_us.resize(num_windows);
  log.served_in_window.resize(num_windows);
  // Logs are sized before the phase starts: growing a vector mid-phase
  // copies it and stalls the client for the length of the copy.
  std::vector<int64_t> due;
  if (spec.open_loop) {
    Rng schedule_rng(DeriveSeed(spec.seed, 200 + client));
    due = PoissonArrivals(spec.rate / spec.clients, spec.seconds, schedule_rng);
    std::vector<size_t> per_window(num_windows, 0);
    for (int64_t d : due) ++per_window[window_of(d)];
    for (size_t w = 0; w < num_windows; ++w) {
      log.serve_us[w].reserve(per_window[w]);
      log.list_us[w].reserve(per_window[w] / 4 + 16);
      log.mutate_us[w].reserve(
          static_cast<size_t>(per_window[w] * spec.mix.toggle_share * 2) + 16);
      log.late_us[w].reserve(per_window[w]);
    }
    log.picks.reserve(due.size());
    log.lists.reserve((kListK + 1) * (due.size() / 4 + 16));
  } else {
    const size_t guess =
        static_cast<size_t>(spec.seconds * kClosedLoopReservePerSecond);
    log.picks.reserve(guess);
    log.lists.reserve((kListK + 1) * (guess / 4));
  }
  log.toggles.reserve(static_cast<size_t>(
      static_cast<double>(std::max(due.size(), log.picks.capacity())) *
      spec.mix.toggle_share * 2));
  std::this_thread::sleep_until(Clock::time_point(
      std::chrono::nanoseconds(t0 - kStartSpinNs)));
  WaitUntilNs(t0);
  if (spec.open_loop) {
    // A backlog that outlives the phase by this much is abandoned; the
    // requests it never sent count as failed.
    const int64_t give_up_ns =
        end_ns + std::max<int64_t>(1'000'000'000, (end_ns - t0) / 4);
    int64_t previous_end = t0;
    for (size_t i = 0; i < due.size(); ++i) {
      const int64_t due_ns = t0 + due[i];
      const Op op = NextOp(spec.mix, users, client, spec.clients, rng);
      if (NowNs() > give_up_ns) {
        log.unsent += due.size() - i;
        break;
      }
      WaitUntilNs(due_ns);
      log.trace.request = ++request;
      const int64_t start = NowNs();
      Execute(env, op, log);
      const int64_t end = NowNs();
      const RequestTiming timing =
          TimeRequest(due_ns, start, end, previous_end);
      previous_end = end;
      const double latency_us = static_cast<double>(timing.latency_ns) * 1e-3;
      const size_t window = window_of(due[i]);
      switch (op.kind) {
        case OpKind::kServe:
          log.serve_us[window].push_back(latency_us);
          break;
        case OpKind::kList:
          log.list_us[window].push_back(latency_us);
          break;
        case OpKind::kToggle:
          log.mutate_us[window].push_back(latency_us);
          break;
      }
      if (timing.client_idle) {
        log.late_us[window].push_back(
            static_cast<double>(timing.generator_late_ns) * 1e-3);
      }
    }
  } else {
    while (NowNs() < end_ns) {
      const Op op = NextOp(spec.mix, users, client, spec.clients, rng);
      log.trace.request = ++request;
      const uint64_t served = log.served;
      Execute(env, op, log);
      const int64_t end = NowNs();
      if (end < end_ns && log.served > served) {
        ++log.served_in_window[window_of(end - t0)];
      }
    }
  }
  t_trace = nullptr;
}

PhaseResult RunPhase(Env& env, const UserPicker& users, const PhaseSpec& spec) {
  PhaseResult result;
  result.logs.resize(spec.clients);
  result.num_windows = WindowCount(spec);
  result.window_s = spec.window_s;
  result.seconds = spec.seconds;
  result.before = env.service->stats();
  const uint64_t builds0 = env.graph->snapshot_builds();
  const uint64_t patches0 = env.graph->snapshot_patches();
  const uint64_t wal0 = env.wal ? env.wal->next_seq() : 0;
  const int64_t t0 = NowNs() + 20'000'000;
  {
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < spec.clients; ++c) {
      threads.emplace_back(RunClient, std::ref(env), std::cref(users),
                           std::cref(spec), c, t0, std::ref(result.logs[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  result.elapsed_s = Seconds(NowNs() - t0);
  result.after = env.service->stats();
  result.snapshot_builds = env.graph->snapshot_builds() - builds0;
  result.snapshot_patches = env.graph->snapshot_patches() - patches0;
  result.wal_records = env.wal ? env.wal->next_seq() - wal0 : 0;
  return result;
}

/// `count` uniform edge toggles issued back to back by one client, each
/// timed on its own.
PhaseResult RunToggles(Env& env, size_t count, uint64_t seed) {
  PhaseResult result;
  result.logs.resize(1);
  ClientLog& log = result.logs[0];
  log.mutate_us.resize(1);
  log.mutate_us[0].reserve(count);
  log.toggles.reserve(count);
  Rng rng(seed);
  result.before = env.service->stats();
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < count; ++i) {
    const Op op = NextToggle(0, 1, rng);
    const int64_t start = NowNs();
    Execute(env, op, log);
    log.mutate_us[0].push_back(static_cast<double>(NowNs() - start) * 1e-3);
  }
  result.elapsed_s = Seconds(NowNs() - t0);
  result.after = env.service->stats();
  return result;
}

// ------------------------------------------------------------ checks

/// Ground truth for hit_read's releases: the graph never changes during
/// its read phases, so every pick can be checked against it exactly.
class StaticTruth {
 public:
  explicit StaticTruth(std::shared_ptr<const CsrGraph> graph)
      : graph_(std::move(graph)),
        sensitivity_(utility_.SensitivityBound(*graph_)) {}

  const CsrGraph& graph() const { return *graph_; }

  struct User {
    std::vector<NodeId> support;  // sorted nonzero-utility candidates
    double zero_prob = 0;
  };

  const User& Get(NodeId user) {
    auto it = users_.find(user);
    if (it != users_.end()) return it->second;
    const UtilityVector utilities = utility_.Compute(*graph_, user);
    User truth;
    for (const auto& entry : utilities.nonzero()) {
      truth.support.push_back(entry.node);
    }
    std::sort(truth.support.begin(), truth.support.end());
    const privrec::ExponentialMechanism mechanism(kEpsilon, sensitivity_);
    auto dist = mechanism.Distribution(utilities);
    if (dist.ok()) truth.zero_prob = dist->zero_block_prob;
    return users_.emplace(user, std::move(truth)).first->second;
  }

 private:
  std::shared_ptr<const CsrGraph> graph_;
  privrec::CommonNeighborsUtility utility_;
  double sensitivity_;
  std::unordered_map<NodeId, User> users_;
};

struct ZeroTally {
  double expected = 0;
  double variance = 0;
  uint64_t observed = 0;
  uint64_t draws = 0;
};

/// Checks every release of one phase: in range and not the user; with
/// `truth` (hit_read) also a non-neighbour, lists distinct, and single
/// picks tallied for the zero-block check.
void CheckReleases(const PhaseResult& phase, StaticTruth* truth,
                   ZeroTally& zero, Checker& checker) {
  for (const ClientLog& log : phase.logs) {
    if (log.errors > 0) {
      checker.Fail("request failed: " + log.first_error);
    }
    auto valid = [&](NodeId user, NodeId pick) {
      if (pick >= kNodes || pick == user) return false;
      return truth == nullptr || !truth->graph().HasEdge(user, pick);
    };
    for (auto [user, pick] : log.picks) {
      if (!valid(user, pick)) {
        checker.Fail("invalid pick " + std::to_string(pick) + " for user " +
                     std::to_string(user));
        continue;
      }
      if (truth == nullptr) continue;
      const StaticTruth::User& t = truth->Get(user);
      zero.expected += t.zero_prob;
      zero.variance += t.zero_prob * (1 - t.zero_prob);
      zero.observed +=
          std::binary_search(t.support.begin(), t.support.end(), pick) ? 0 : 1;
      ++zero.draws;
    }
    for (size_t i = 0; i + kListK < log.lists.size(); i += kListK + 1) {
      const NodeId user = log.lists[i];
      std::vector<NodeId> picks(log.lists.begin() + i + 1,
                                log.lists.begin() + i + 1 + kListK);
      for (NodeId pick : picks) {
        if (!valid(user, pick)) {
          checker.Fail("invalid list pick " + std::to_string(pick) +
                       " for user " + std::to_string(user));
        }
      }
      if (truth != nullptr) {
        std::sort(picks.begin(), picks.end());
        checker.Expect(std::adjacent_find(picks.begin(), picks.end()) ==
                           picks.end(),
                       "repeated list pick for user " + std::to_string(user));
      }
    }
  }
}

// ------------------------------------------------------------ replays

struct ReplayResult {
  std::vector<double> sampler_build_us;
  std::vector<double> draw_ns;
  std::vector<double> zero_resolve_us;
  uint64_t zero_draws = 0;
  uint64_t draws = 0;
  std::vector<double> topk_us;
  std::vector<double> snapshot_us;
};

// Keeps the replayed draws from being optimised away.
volatile size_t g_draw_sink = 0;

double ElapsedUs(int64_t start) {
  return static_cast<double>(NowNs() - start) * 1e-3;
}

/// The phase's requests, in client order: single-serve users, list users
/// and applied toggles.
struct PhaseInputs {
  std::vector<NodeId> serve_users;
  std::vector<NodeId> list_users;
  std::vector<std::pair<NodeId, NodeId>> toggles;

  explicit PhaseInputs(const PhaseResult& phase) {
    for (const ClientLog& log : phase.logs) {
      for (auto [user, pick] : log.picks) serve_users.push_back(user);
      for (size_t i = 0; i < log.lists.size(); i += kListK + 1) {
        list_users.push_back(log.lists[i]);
      }
      toggles.insert(toggles.end(), log.toggles.begin(), log.toggles.end());
    }
  }
};

/// Up to `want` entries spread evenly over `all`.
std::vector<NodeId> EvenSample(const std::vector<NodeId>& all, size_t want) {
  std::vector<NodeId> picked;
  if (all.empty()) return picked;
  const size_t step = std::max<size_t>(1, all.size() / want);
  for (size_t i = 0; i < all.size() && picked.size() < want; i += step) {
    picked.push_back(all[i]);
  }
  return picked;
}

/// Replays, on the same inputs, the calls the service makes directly into
/// core, random and graph during `phase`.
ReplayResult Replay(Env& env, const PhaseResult& phase,
                    const std::shared_ptr<const CsrGraph>& before_phase,
                    double budget_s, uint64_t seed) {
  ReplayResult out;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  Rng rng(DeriveSeed(seed, 7));
  const auto live = env.graph->VersionedSnapshot();
  const CsrGraph& graph = *live.graph;
  privrec::CommonNeighborsUtility utility;
  const double sensitivity = utility.SensitivityBound(graph);
  const privrec::ExponentialMechanism mechanism(kEpsilon, sensitivity);
  std::unordered_map<NodeId, UtilityVector> vectors;
  auto utilities_of = [&](NodeId user) -> const UtilityVector& {
    auto it = vectors.find(user);
    if (it == vectors.end()) {
      it = vectors.emplace(user, utility.Compute(graph, user)).first;
    }
    return it->second;
  };
  const PhaseInputs inputs(phase);

  // core + random: sampler build, alias draws, zero-block resolution.
  for (NodeId user : EvenSample(inputs.serve_users, kReplayRequests)) {
    if (NowNs() > deadline) break;
    const UtilityVector& utilities = utilities_of(user);
    int64_t start = NowNs();
    auto sampler = mechanism.MakeSampler(utilities);
    out.sampler_build_us.push_back(ElapsedUs(start));
    if (!sampler.ok()) continue;
    const privrec::Recommendation rec = sampler->Draw(rng);
    ++out.draws;
    if (rec.from_zero_block) {
      ++out.zero_draws;
      start = NowNs();
      const auto node = privrec::ResolveZeroUtilityNode(graph, utilities, rng);
      out.zero_resolve_us.push_back(ElapsedUs(start));
      g_draw_sink = node.ok() ? *node : 0;
    }
    size_t sum = 0;
    start = NowNs();
    for (size_t i = 0; i < kDrawBatch; ++i) sum += sampler->DrawIndex(rng);
    out.draw_ns.push_back(static_cast<double>(NowNs() - start) /
                          static_cast<double>(kDrawBatch));
    g_draw_sink = sum;
  }
  // core: peeling top-k for list requests.
  for (NodeId user : EvenSample(inputs.list_users, kReplayRequests)) {
    if (NowNs() > deadline) break;
    const UtilityVector& utilities = utilities_of(user);
    const int64_t start = NowNs();
    auto list = privrec::PeelingExponentialTopK(utilities, kListK, kEpsilon,
                                                sensitivity, rng);
    out.topk_us.push_back(ElapsedUs(start));
    g_draw_sink = list.ok() ? list->picks.size() : 0;
  }
  // graph: snapshot publication after each toggle, from the pre-phase
  // graph.
  if (!inputs.toggles.empty()) {
    DynamicGraph replay(*before_phase);
    replay.SetJournalCapacity(4 * static_cast<size_t>(kNodes));
    replay.VersionedSnapshot();
    for (size_t i = 0; i < inputs.toggles.size() && i < kReplayToggles; ++i) {
      if (NowNs() > deadline) break;
      const auto [u, v] = inputs.toggles[i];
      const Status status =
          replay.HasEdge(u, v) ? replay.RemoveEdge(u, v) : replay.AddEdge(u, v);
      if (!status.ok()) continue;
      const int64_t start = NowNs();
      replay.VersionedSnapshot();
      out.snapshot_us.push_back(ElapsedUs(start));
    }
  }
  return out;
}

// ------------------------------------------------------------ durability

/// Checks that every user's spend equals ε times their successful charged
/// serves, and that the service counted exactly those serves.
void CheckSpend(const RecommendationService& service,
                const std::vector<uint64_t>& charged, Checker& checker) {
  uint64_t total = 0;
  for (NodeId u = 0; u < kNodes; ++u) {
    total += charged[u];
    const double spent = kBudget - service.RemainingBudget(u);
    if (spent != static_cast<double>(charged[u]) * kEpsilon) {
      checker.Fail("user " + std::to_string(u) + " spent " +
                   FormatDouble(spent) + " over " + std::to_string(charged[u]) +
                   " charged serves");
    }
  }
  const ServiceStats stats = service.stats();
  checker.Expect(stats.served == total,
                 "stats().served " + std::to_string(stats.served) +
                     " != successful serves " + std::to_string(total));
}

struct DurableReport {
  std::vector<double> serve_us;
  std::vector<double> ledger_append_us;
  std::vector<double> wal_append_us;
  uint64_t ledger_appends = 0;
  uint64_t wal_records = 0;
  uint64_t wal_durable_lag = 0;
  std::vector<double> recover_s;
  std::vector<double> recover_graph_s;
  std::vector<double> ledger_open_s;
  // Traced closed loops of reads at 1 and at up to 4 clients.
  PhaseResult c1;
  PhaseResult c4;
};

/// Checkpoint, then restart from disk: SaveCheckpoint, RecoverGraph over
/// a reopened WAL, BudgetLedger::Open, and a new service importing the
/// recovered spend. Checks the recovered graph against the live snapshot
/// and the recovered spend against the in-memory spend.
void RecoverOnce(Env& env, const Workload& workload, DurableReport& report,
                 Checker& checker) {
  const auto live = env.graph->VersionedSnapshot();
  const int64_t t0 = NowNs();
  const Status saved = env.service->SaveCheckpoint(env.dir);
  checker.Expect(saved.ok(), "SaveCheckpoint: " + saved.ToString());
  const int64_t t1 = NowNs();
  auto wal = WriteAheadLog::Open(env.dir + "/wal");
  if (!wal.ok()) return checker.Fail("reopening WAL: " + wal.status().ToString());
  auto recovered = privrec::RecoverGraph(env.dir, **wal);
  if (!recovered.ok()) {
    return checker.Fail("RecoverGraph: " + recovered.status().ToString());
  }
  const int64_t t2 = NowNs();
  auto ledger = BudgetLedger::Open(env.dir + "/ledger");
  if (!ledger.ok()) {
    return checker.Fail("reopening ledger: " + ledger.status().ToString());
  }
  const std::unordered_map<NodeId, double> spent = (*ledger)->SpentByUser();
  const int64_t t3 = NowNs();
  {
    ServiceOptions options = MakeOptions(workload, 0);
    options.wal = wal->get();
    options.budget_ledger = ledger->get();
    RecommendationService restarted(
        recovered->get(), std::make_unique<privrec::CommonNeighborsUtility>(),
        options);
    restarted.ImportSpentBudgets(spent);
    report.recover_s.push_back(Seconds(NowNs() - t0));
  }
  report.recover_graph_s.push_back(Seconds(t2 - t1));
  report.ledger_open_s.push_back(Seconds(t3 - t2));
  checker.Expect((*recovered)->VersionedSnapshot().graph->Equals(*live.graph),
                 "recovered graph differs from the live snapshot");
  for (NodeId u = 0; u < kNodes; ++u) {
    const double in_memory = kBudget - env.service->RemainingBudget(u);
    if (in_memory <= 0) continue;
    auto it = spent.find(u);
    checker.Expect(it != spent.end() && it->second >= in_memory,
                   "recovered ledger spend below in-memory spend for user " +
                       std::to_string(u));
  }
}

/// The durable serve path: `base`'s traffic, open loop at kDurableRate, on
/// a fresh traced service with a WriteAheadLog (group_commit_records = 1)
/// and a BudgetLedger in a fresh directory, so every charged serve and
/// every toggle fsyncs; then closed loops of reads at 1 and at
/// `scaling_clients` clients, each `closed_seconds` long. Ends with the
/// same appends replayed into logs of their own, then checkpoint and
/// recovery.
DurableReport RunDurable(const Workload& base, uint64_t seed,
                         const std::string& scratch, const UserPicker& users,
                         unsigned clients, unsigned scaling_clients,
                         double seconds, double closed_seconds,
                         Checker& checker) {
  DurableReport report;
  Workload workload = base;
  workload.durable = true;
  auto env = SetUp(workload, seed, scratch + "/durable", users,
                   /*traced=*/true, checker);
  if (env == nullptr) return report;
  PhaseSpec spec;
  spec.mix = Mix{workload.toggle_share, kListShare};
  spec.rate = kDurableRate;
  spec.seconds = seconds;
  spec.clients = clients;
  spec.seed = DeriveSeed(seed, 20);
  const PhaseResult phase = RunPhase(*env, users, spec);
  const size_t reserve = static_cast<size_t>(
      closed_seconds * kClosedLoopReservePerSecond * 2);
  report.c1 = RunPhase(*env, users,
                       ClosedLoop(closed_seconds, 1, DeriveSeed(seed, 22),
                                  /*trace=*/true, reserve));
  report.c4 = RunPhase(*env, users,
                       ClosedLoop(closed_seconds, scaling_clients,
                                  DeriveSeed(seed, 23), /*trace=*/true,
                                  reserve));
  std::vector<uint64_t> charged(kNodes, 0);
  uint64_t charged_total = 0;
  const PhaseResult* const phases[] = {&phase, &report.c1, &report.c4};
  for (const PhaseResult* p : phases) {
    ZeroTally unused;
    CheckReleases(*p, nullptr, unused, checker);
    for (const ClientLog& log : p->logs) {
      for (NodeId u = 0; u < kNodes; ++u) charged[u] += log.charged[u];
      charged_total += log.served;
    }
  }
  CheckSpend(*env->service, charged, checker);
  report.serve_us = phase.Flatten(&ClientLog::serve_us);
  report.ledger_appends =
      report.c4.after.ledger_appends - phase.before.ledger_appends;
  checker.Expect(report.ledger_appends == charged_total,
                 "ledger_appends " + std::to_string(report.ledger_appends) +
                     " != charged serves " + std::to_string(charged_total));
  report.wal_records = phase.wal_records;
  report.wal_durable_lag = env->wal->next_seq() - 1 - env->wal->durable_seq();

  const PhaseInputs inputs(phase);
  const std::string dir = scratch + "/replay";
  std::filesystem::remove_all(dir);
  auto ledger = BudgetLedger::Open(dir + "/ledger");
  auto wal = WriteAheadLog::Open(dir + "/wal");
  if (ledger.ok() && wal.ok()) {
    for (NodeId user : EvenSample(inputs.serve_users, kReplayAppends)) {
      const int64_t start = NowNs();
      const Status status = (*ledger)->AppendCharge(user, kEpsilon);
      report.ledger_append_us.push_back(ElapsedUs(start));
      checker.Expect(status.ok(), "replayed ledger append: " + status.ToString());
    }
    for (size_t i = 0; i < inputs.toggles.size() && i < kReplayAppends; ++i) {
      const int64_t start = NowNs();
      const auto seq = (*wal)->Append(privrec::WalRecordKind::kAddEdge,
                                      inputs.toggles[i].first,
                                      inputs.toggles[i].second);
      report.wal_append_us.push_back(ElapsedUs(start));
      checker.Expect(seq.ok(), "replayed WAL append: " + seq.status().ToString());
    }
  } else {
    checker.Fail("opening replay logs in " + dir);
  }
  for (int rep = 0; rep < kRecoverRepeats; ++rep) {
    RecoverOnce(*env, workload, report, checker);
  }
  return report;
}

double Median(std::vector<double> values) {
  return Summarize(std::move(values)).p50;
}

// ------------------------------------------------------------ provenance

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext2/3/4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (key == "trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (key == "out-dir") {
      args.out_dir = value;
      have_out = !value.empty();
    } else if (key == "git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace && have_out;
}

/// Adds <name>_p50_us and, with `tail`, <name>_p90_us. The gated tail is
/// p90: on a shared 4-vCPU VM the p99 of one run configuration spread 1.2
/// to 1.7 times its median (quartile distance over 10 runs), p90 about
/// 0.1 to 0.3. Both runs also report whole-phase p99s, ungated.
void AddLatency(MetricSet& metrics, Checker& checker, const std::string& name,
                const Summary& s, bool tail) {
  checker.Expect(s.count > 0, "no samples for " + name);
  checker.Expect(metrics.Add(name + "_p50_us", s.p50, "us", s.count) &&
                     (!tail || metrics.Add(name + "_p90_us", s.p90, "us",
                                           s.count)),
                 "bad metric " + name);
}

void WriteSpans(const std::string& path, const std::vector<const PhaseResult*>& phases) {
  std::ofstream out(path);
  out << "phase,client,request,span,parent,name,start_ns,end_ns\n";
  for (size_t p = 0; p < phases.size(); ++p) {
    for (size_t c = 0; c < phases[p]->logs.size(); ++c) {
      const auto& spans = phases[p]->logs[c].trace.spans;
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << p << ',' << c << ',' << s.request << ',' << i << ','
            << s.parent << ',' << kSpanNames[s.name] << ',' << s.start_ns
            << ',' << s.end_ns << '\n';
      }
    }
  }
}

struct SpanStats {
  std::vector<double> serve_self_us;
  std::vector<double> compute_us;
  std::vector<double> patch_us;
  double filter_us = 0;
  uint64_t filter_in = 0;
  uint64_t filter_kept = 0;
};

SpanStats CollectSpans(const PhaseResult& phase) {
  SpanStats stats;
  for (const ClientLog& log : phase.logs) {
    const auto& spans = log.trace.spans;
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const double us =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-3;
      switch (spans[i].name) {
        case kSpanServe:
          stats.serve_self_us.push_back(static_cast<double>(self[i]) * 1e-3);
          break;
        case kSpanCompute:
          stats.compute_us.push_back(us);
          break;
        case kSpanPatch:
          stats.patch_us.push_back(us);
          break;
        case kSpanFilter:
          stats.filter_us += us;
          break;
        default:
          break;
      }
    }
    stats.filter_in += log.trace.filter_in;
    stats.filter_kept += log.trace.filter_kept;
  }
  return stats;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --out-dir=DIR [--git-sha=SHA]\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string scratch = args.out_dir + "/" + workload->name + "-" +
                              std::to_string(::getpid());
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned clients = std::min(kClients, nproc);
  const unsigned scaling_clients = std::min(kScalingClients, nproc);
  const double S = args.seconds;
  Checker checker;

  Rng population_rng(DeriveSeed(kFixtureSeed, 0));
  const UserPicker users(*workload, population_rng);

  // ---- set-up, repeated; the last one serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    env.reset();
    const int64_t start = NowNs();
    env = SetUp(*workload, args.seed, scratch + "/durable", users, args.trace,
                checker);
    setup_s.push_back(Seconds(NowNs() - start));
    if (env == nullptr) break;
  }
  if (env == nullptr) {
    for (const std::string& f : checker.failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    std::filesystem::remove_all(scratch);
    return 1;
  }
  const auto initial = env->graph->VersionedSnapshot();
  std::optional<StaticTruth> truth;
  if (workload->toggle_share == 0) truth.emplace(initial.graph);
  ZeroTally zero;
  std::vector<uint64_t> charged(kNodes, 0);
  uint64_t attempted = 0, errors = 0, unsent = 0;
  auto account = [&](const PhaseResult& phase) {
    CheckReleases(phase, truth ? &*truth : nullptr, zero, checker);
    for (const ClientLog& log : phase.logs) {
      attempted += log.attempted + log.unsent;
      errors += log.errors;
      unsent += log.unsent;
      for (NodeId u = 0; u < kNodes; ++u) charged[u] += log.charged[u];
    }
  };

  const Mix mix{workload->toggle_share, kListShare};
  auto open_loop = [&](double seconds, uint64_t stream, bool trace) {
    PhaseSpec spec;
    spec.mix = mix;
    spec.rate = workload->offered_rate;
    spec.seconds = seconds;
    spec.clients = clients;
    spec.seed = DeriveSeed(args.seed, stream);
    spec.trace = trace;
    spec.span_reserve =
        static_cast<size_t>(workload->offered_rate / clients * seconds * 1.5);
    return spec;
  };
  auto closed_loop = [&](double seconds, unsigned n, uint64_t stream,
                         bool trace, size_t span_reserve) {
    return ClosedLoop(seconds, n, DeriveSeed(args.seed, stream), trace,
                      span_reserve);
  };

  // Warm phase: same traffic, not measured, so caches and the journal
  // reach their steady state first.
  account(RunPhase(*env, users, open_loop(0.1 * S, 10, false)));

  MetricSet metrics;
  MetricSet ungated;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit, size_t n) {
    checker.Expect(metrics.Add(name, value, unit, n), "bad metric " + name);
  };
  std::string details;
  Summary late;

  if (!args.trace) {
    // hit_read has no writes, but the result line carries every end-to-end
    // metric: each round ends with a burst of toggles issued back to back
    // by one client to a side service over a copy of the graph, which no
    // one reads, churn_miss's toggle count in all. Toggles alone at
    // churn_miss's 200/s found cold caches (p50 spread 0.35 between runs);
    // beside hit_read's readers they waited out snapshot publications in
    // some runs (p50 3.5 to 100 us) and changed what hit_read measures.
    std::unique_ptr<Env> side;
    size_t toggles_per_round = 0;
    if (workload->toggle_share == 0) {
      side = std::make_unique<Env>();
      side->graph = std::make_unique<DynamicGraph>(*initial.graph);
      side->graph->SetJournalCapacity(4 * static_cast<size_t>(kNodes));
      side->service = std::make_unique<RecommendationService>(
          side->graph.get(),
          std::make_unique<privrec::CommonNeighborsUtility>(),
          MakeOptions(*workload, DeriveSeed(args.seed, 4)));
      const Workload& churn = *FindWorkload("churn_miss");
      toggles_per_round = static_cast<size_t>(std::ceil(
          churn.offered_rate * churn.toggle_share * kMutatePhaseShare * S /
          kRounds));
    }
    std::vector<PhaseResult> open, closed, toggles;
    for (int round = 0; round < kRounds; ++round) {
      open.push_back(RunPhase(
          *env, users, open_loop(0.55 * S / kRounds, 1000 + round, false)));
      account(open.back());
      closed.push_back(RunPhase(
          *env, users,
          closed_loop(0.25 * S / kRounds, kCapacityClients, 2000 + round,
                      false, 0)));
      account(closed.back());
      if (side) {
        toggles.push_back(RunToggles(*side, toggles_per_round,
                                     DeriveSeed(args.seed, 3000 + round)));
        account(toggles.back());
      }
    }
    std::vector<double> rates;
    uint64_t capacity_serves = 0;
    for (const PhaseResult& phase : closed) {
      const std::vector<double> r = phase.WindowRates();
      rates.insert(rates.end(), r.begin(), r.end());
      capacity_serves += phase.Served();
    }
    const std::vector<PhaseResult>& writes = side ? toggles : open;
    const Summary mutate =
        side ? Summarize(Pooled(toggles, &ClientLog::mutate_us))
             : QuietSummary(open, &ClientLog::mutate_us);
    late = Summarize(Pooled(open, &ClientLog::late_us));
    const Summary quiet_late = QuietSummary(open, &ClientLog::late_us);
    details += ", \"generator_late_us_p99_quiet_windows\": " +
               FormatDouble(quiet_late.p99);

    add("setup_s", Median(setup_s), "s", setup_s.size());
    AddLatency(metrics, checker, "serve",
               QuietSummary(open, &ClientLog::serve_us), true);
    AddLatency(metrics, checker, "list",
               QuietSummary(open, &ClientLog::list_us), true);
    // Toggles either take the writer lock at once (~4 us) or wait out a
    // snapshot publication (~100 us); their p90 sits on that boundary and
    // spread ~1x its median between runs, so only the median is gated.
    AddLatency(metrics, checker, "mutate", mutate, false);
    add("serves_per_s", Median(rates), "1/s", capacity_serves);
    add("ok_ratio",
        Ratio(static_cast<double>(attempted - errors - unsent),
              static_cast<double>(attempted)),
        "ratio", attempted);
    add("peak_rss_mb", PeakRssMb(), "MB", 1);

    // Whole-phase p99s over every window: the tail a stall that recurs in
    // fewer than half the windows moves. Printed, not gated: between
    // identical runs they spread 1.2 to 1.7 times their median.
    for (auto [name, samples] :
         {std::pair{"serve_pooled_p99_us", Pooled(open, &ClientLog::serve_us)},
          std::pair{"list_pooled_p99_us", Pooled(open, &ClientLog::list_us)},
          std::pair{"mutate_pooled_p99_us",
                    Pooled(writes, &ClientLog::mutate_us)}}) {
      const Summary s = Summarize(samples);
      checker.Expect(ungated.Add(name, s.p99, "us", s.count),
                     std::string("bad metric ") + name);
    }
  } else {
    const auto before_phase = env->graph->VersionedSnapshot().graph;
    const PhaseResult traced =
        RunPhase(*env, users, open_loop(0.3 * S, 11, true));
    account(traced);
    const PhaseResult c1 =
        RunPhase(*env, users, closed_loop(0.08 * S, 1, 12, false, 0));
    account(c1);
    const PhaseResult c4 = RunPhase(
        *env, users, closed_loop(0.08 * S, scaling_clients, 13, false, 0));
    account(c4);
    const double rate1 = static_cast<double>(c1.Served()) / c1.elapsed_s;
    const double rate4 = static_cast<double>(c4.Served()) / c4.elapsed_s;
    auto reserve_for = [&](const PhaseResult& p, unsigned n) {
      uint64_t ops = 0;
      for (const ClientLog& log : p.logs) ops += log.attempted;
      return static_cast<size_t>(static_cast<double>(ops) / n * 2.0) + 1024;
    };
    const PhaseResult t1 = RunPhase(
        *env, users, closed_loop(0.08 * S, 1, 14, true, reserve_for(c1, 1)));
    account(t1);
    const PhaseResult t4 = RunPhase(
        *env, users,
        closed_loop(0.08 * S, scaling_clients, 15, true,
                    reserve_for(c4, scaling_clients)));
    account(t4);
    const double traced_rate4 = static_cast<double>(t4.Served()) / t4.elapsed_s;
    const ReplayResult replay =
        Replay(*env, traced, before_phase, 0.1 * S, args.seed);
    DurableReport durable;
    if (workload->trace_durable) {
      durable = RunDurable(*workload, DeriveSeed(args.seed, 21), scratch, users,
                           clients, scaling_clients, 0.1 * S, 0.04 * S,
                           checker);
    }

    const SpanStats spans = CollectSpans(traced);
    const SpanStats spans1 = CollectSpans(t1);
    const SpanStats spans4 = CollectSpans(t4);
    const ServiceStats& a = traced.before;
    const ServiceStats& b = traced.after;
    const double served = static_cast<double>(b.served - a.served);
    const double kserve = served / 1000.0;
    uint64_t singles = 0;
    for (const ClientLog& log : traced.logs) singles += log.picks.size();
    late = Summarize(traced.Flatten(&ClientLog::late_us));

    auto add_pair = [&](const std::string& prefix, const std::string& unit,
                        const std::vector<double>& samples) {
      const Summary s = Summarize(samples);
      add(prefix + "_p50", s.p50, unit, s.count);
      add(prefix + "_p99", s.p99, unit, s.count);
    };
    auto delta = [&](uint64_t ServiceStats::*field) {
      return static_cast<double>(b.*field - a.*field);
    };
    add("core.zero_block_share",
        Ratio(static_cast<double>(replay.zero_draws),
              static_cast<double>(replay.draws)),
        "ratio", replay.draws);
    add_pair("core.zero_resolve_us", "us", replay.zero_resolve_us);
    add_pair("core.sampler_build_us", "us", replay.sampler_build_us);
    add_pair("core.topk_us", "us", replay.topk_us);
    {
      const Summary s = Summarize(replay.draw_ns);
      add("random.alias_draw_ns_p50", s.p50, "ns", s.count * kDrawBatch);
    }
    add_pair("serve.self_us", "us", spans.serve_self_us);
    {
      const Summary s1 = Summarize(spans1.serve_self_us);
      const Summary s4 = Summarize(spans4.serve_self_us);
      add("serve.self_us_p50_1c", s1.p50, "us", s1.count);
      add("serve.self_us_p99_1c", s1.p99, "us", s1.count);
      add("serve.self_us_p50_4c", s4.p50, "us", s4.count);
      add("serve.self_us_p99_4c", s4.p99, "us", s4.count);
    }
    add("serve.sampler_reuse_ratio",
        Ratio(delta(&ServiceStats::sampler_reuses),
              static_cast<double>(singles)),
        "ratio", singles);
    const double lookups =
        delta(&ServiceStats::cache_hits) + delta(&ServiceStats::cache_misses);
    add("serve.cache_hit_ratio",
        Ratio(delta(&ServiceStats::cache_hits), lookups), "ratio",
        static_cast<size_t>(lookups));
    add("serve.repair_kept_per_kserve",
        Ratio(delta(&ServiceStats::delta_kept), kserve), "count",
        static_cast<size_t>(served));
    add("serve.repair_patched_per_kserve",
        Ratio(delta(&ServiceStats::delta_patched), kserve), "count",
        static_cast<size_t>(served));
    add("serve.repair_recomputed_per_kserve",
        Ratio(delta(&ServiceStats::delta_recomputed), kserve), "count",
        static_cast<size_t>(served));
    const double repairs = delta(&ServiceStats::delta_patched) +
                           delta(&ServiceStats::delta_recomputed);
    add("serve.repair_us_mean",
        Ratio(delta(&ServiceStats::repair_ns) * 1e-3, repairs), "us",
        static_cast<size_t>(repairs));
    add("serve.journal_fallbacks", delta(&ServiceStats::journal_fallbacks),
        "count", 1);
    add("serve.doomed_evictions", delta(&ServiceStats::doomed_evictions),
        "count", 1);
    add("utility.compute_calls", static_cast<double>(spans.compute_us.size()),
        "count", 1);
    add_pair("utility.compute_us", "us", spans.compute_us);
    double busy_us = 0;
    for (double us : spans.compute_us) busy_us += us;
    add("utility.compute_busy_s", busy_us * 1e-6, "s", spans.compute_us.size());
    add("utility.patch_calls", static_cast<double>(spans.patch_us.size()),
        "count", 1);
    add_pair("utility.patch_us", "us", spans.patch_us);
    add("utility.filter_us_total", spans.filter_us, "us", 1);
    add("utility.filter_dropped_ratio",
        Ratio(static_cast<double>(spans.filter_in - spans.filter_kept),
              static_cast<double>(spans.filter_in)),
        "ratio", spans.filter_in);
    add_pair("graph.snapshot_us", "us", replay.snapshot_us);
    add("graph.snapshot_patch_ratio",
        Ratio(static_cast<double>(traced.snapshot_patches),
              static_cast<double>(traced.snapshot_patches +
                                  traced.snapshot_builds)),
        "ratio", traced.snapshot_patches + traced.snapshot_builds);
    add("graph.snapshot_builds", static_cast<double>(traced.snapshot_builds),
        "count", 1);
    add_pair("persist.durable_serve_us", "us", durable.serve_us);
    add_pair("persist.ledger_append_us", "us", durable.ledger_append_us);
    add("persist.ledger_appends", static_cast<double>(durable.ledger_appends),
        "count", 1);
    add_pair("persist.wal_append_us", "us", durable.wal_append_us);
    add("persist.wal_records", static_cast<double>(durable.wal_records),
        "count", 1);
    add("persist.wal_durable_lag", static_cast<double>(durable.wal_durable_lag),
        "count", 1);
    {
      const double d1 = Ratio(static_cast<double>(durable.c1.Served()),
                              durable.c1.elapsed_s);
      const double d4 = Ratio(static_cast<double>(durable.c4.Served()),
                              durable.c4.elapsed_s);
      add("persist.serves_per_s_1c", d1, "1/s", durable.c1.Served());
      add("persist.serves_per_s_4c", d4, "1/s", durable.c4.Served());
      add("persist.scaling_4c_over_1c", Ratio(d4, d1), "ratio", 2);
      const Summary s1 = Summarize(CollectSpans(durable.c1).serve_self_us);
      const Summary s4 = Summarize(CollectSpans(durable.c4).serve_self_us);
      add("persist.serve_self_us_p50_1c", s1.p50, "us", s1.count);
      add("persist.serve_self_us_p50_4c", s4.p50, "us", s4.count);
    }
    add("persist.recover_s", Median(durable.recover_s), "s",
        durable.recover_s.size());
    add("persist.recover_graph_s", Median(durable.recover_graph_s), "s",
        durable.recover_graph_s.size());
    add("persist.ledger_open_s", Median(durable.ledger_open_s), "s",
        durable.ledger_open_s.size());
    add("bench.serves_per_s_1c", rate1, "1/s", c1.Served());
    add("bench.serves_per_s_4c", rate4, "1/s", c4.Served());
    add("bench.scaling_4c_over_1c", Ratio(rate4, rate1), "ratio", 2);
    add("bench.gen_late_us_p99", late.p99, "us", late.count);
    for (auto [name, field] :
         {std::pair{"bench.serve_us_p99_traced", &ClientLog::serve_us},
          std::pair{"bench.list_us_p99_traced", &ClientLog::list_us},
          std::pair{"bench.mutate_us_p99_traced", &ClientLog::mutate_us}}) {
      const Summary s = Summarize(traced.Flatten(field));
      add(name, s.p99, "us", s.count);
    }
    add("bench.trace_overhead_ratio", Ratio(rate4 - traced_rate4, rate4),
        "ratio", t4.Served());
    WriteSpans(args.out_dir + "/trace-" + workload->name + ".csv",
               {&traced, &t1, &t4, &durable.c1, &durable.c4});
  }

  // ---- end-of-run checks.
  CheckSpend(*env->service, charged, checker);
  if (truth) {
    const double slack = 5.0 * std::sqrt(zero.variance) + 1.0;
    checker.Expect(
        zero.draws > 0 &&
            std::fabs(static_cast<double>(zero.observed) - zero.expected) <=
                slack,
        "zero-utility picks " + std::to_string(zero.observed) + " of " +
            std::to_string(zero.draws) + ", expected " +
            FormatDouble(zero.expected) + " +- " + FormatDouble(slack));
    details += ", \"zero_picks_observed\": " + std::to_string(zero.observed) +
               ", \"zero_picks_expected\": " + FormatDouble(zero.expected);
  }

  // ---- report.
  const std::string provenance =
      std::string("{") + "\"workload\": " + JsonString(workload->name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + FormatDouble(S) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"clients\": " + std::to_string(clients) +
      ", \"scaling_clients\": " + std::to_string(scaling_clients) +
      ", \"cpu\": " + JsonString(CpuModel()) +
      ", \"durable_fs\": " + JsonString(FilesystemType(scratch)) +
      ", \"build_type\": " + JsonString(SERVEBENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(Compiler()) +
      ", \"git_sha\": " + JsonString(args.git_sha) +
      ", \"graph\": {\"generator\": \"chung_lu\", \"nodes\": " +
      std::to_string(initial.graph->num_nodes()) +
      ", \"edges\": " + std::to_string(initial.graph->num_edges()) +
      ", \"max_degree\": " + std::to_string(initial.graph->MaxOutDegree()) +
      ", \"exponent\": " + FormatDouble(kDegreeExponent) + "}" +
      ", \"offered_rate_per_s\": " + FormatDouble(workload->offered_rate) +
      ", \"generator_late_us_p99\": " + FormatDouble(late.p99) +
      ", \"generator_late_samples\": " + std::to_string(late.count) + details +
      "}";
  std::printf("provenance %s\n", provenance.c_str());
  std::printf("%s", metrics.ToTable().c_str());
  if (ungated.size() > 0) {
    std::printf("ungated:\n%s", ungated.ToTable().c_str());
  }
  for (const std::string& f : checker.failures) {
    std::printf("check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              checker.ok ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(errors + unsent),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  env.reset();
  std::filesystem::remove_all(scratch);
  return checker.ok ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
