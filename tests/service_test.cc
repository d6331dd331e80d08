// Tests for the serving layer: budget enforcement, cache behavior under
// graph mutation, and node-DP audit integration.

#include <memory>
#include <vector>

#include "core/exponential_mechanism.h"
#include "eval/dp_auditor.h"
#include "gen/fixtures.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "random/rng.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

namespace privrec {
namespace {

DynamicGraph ServiceGraph() {
  Rng rng(5);
  auto weights = PowerLawWeights(500, 2.2);
  auto g = ChungLu(weights, weights, 2500, /*directed=*/false, rng);
  return DynamicGraph(*g);
}

ServiceOptions DefaultOptions() {
  ServiceOptions options;
  options.release_epsilon = 0.5;
  options.per_user_budget = 2.0;
  options.cache_capacity = 64;
  return options;
}

TEST(ServiceTest, ServesUntilBudgetExhausted) {
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(7);
  const NodeId user = 0;
  // Budget 2.0 at 0.5 per release = exactly 4 answers.
  for (int i = 0; i < 4; ++i) {
    auto rec = service.ServeRecommendation(user, rng);
    EXPECT_TRUE(rec.ok()) << "release " << i << ": "
                          << rec.status().ToString();
  }
  auto fifth = service.ServeRecommendation(user, rng);
  EXPECT_TRUE(fifth.status().IsFailedPrecondition());
  EXPECT_EQ(service.stats().served, 4u);
  EXPECT_EQ(service.stats().refused_budget, 1u);
  EXPECT_NEAR(service.RemainingBudget(user), 0.0, 1e-9);
}

TEST(ServiceTest, BudgetsAreProperlyPerUser) {
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(9);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  }
  EXPECT_FALSE(service.ServeRecommendation(0, rng).ok());
  // A different user is unaffected.
  EXPECT_TRUE(service.ServeRecommendation(1, rng).ok());
  EXPECT_NEAR(service.RemainingBudget(1), 1.5, 1e-9);
  EXPECT_NEAR(service.RemainingBudget(2), 2.0, 1e-9);  // never served
}

TEST(ServiceTest, CacheHitsOnRepeatQueries) {
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(11);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().cache_hits, 2u);
}

TEST(ServiceTest, MutationRepairsOnlyAffectedUsers) {
  // Delta-patched repair (the default): after a toggle incident to a
  // cached user, that user's next serve patches the entry in place (a
  // cache hit, O(Δ)); an unaffected cached user is kept wholesale.
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(13);
  // Warm the cache for two users.
  const NodeId user_a = 0;
  ASSERT_TRUE(service.ServeRecommendation(user_a, rng).ok());
  // Pick user_b far from user_a: not adjacent, no shared neighbor edit.
  NodeId user_b = 1;
  CsrGraph snap = graph.Snapshot();
  for (NodeId v = 1; v < snap.num_nodes(); ++v) {
    if (v != user_a && !snap.HasEdge(user_a, v)) {
      user_b = v;
      break;
    }
  }
  ASSERT_TRUE(service.ServeRecommendation(user_b, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, 2u);

  // Mutate an edge incident to user_a.
  NodeId endpoint = kUnresolvedZeroNode;
  for (NodeId w = 1; w < snap.num_nodes(); ++w) {
    if (w != user_a && w != user_b && !snap.HasEdge(user_a, w) &&
        !snap.HasEdge(user_b, w)) {
      endpoint = w;
      break;
    }
  }
  ASSERT_NE(endpoint, kUnresolvedZeroNode);
  ASSERT_TRUE(service.AddEdge(user_a, endpoint).ok());
  // Query a again: repaired via a single-delta patch, no recompute.
  const uint64_t misses_before = service.stats().cache_misses;
  ASSERT_TRUE(service.ServeRecommendation(user_a, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, misses_before);
  EXPECT_EQ(service.stats().delta_patched, 1u);
  // Query b (whose watched set the toggle avoided): kept wholesale.
  ASSERT_TRUE(service.ServeRecommendation(user_b, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, misses_before);
  EXPECT_EQ(service.stats().delta_kept, 1u);
  EXPECT_EQ(service.stats().cache_invalidations, 0u);
}

TEST(ServiceTest, BaselineModeRecomputesStaleEntries) {
  // With delta repair disabled, a version change costs every cached entry
  // a full recompute on its next visit — the pre-incremental baseline the
  // mutation bench compares against.
  DynamicGraph graph = ServiceGraph();
  ServiceOptions options = DefaultOptions();
  options.enable_delta_repair = false;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(13);
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  ASSERT_TRUE(service.AddEdge(0, 7).ok() || service.RemoveEdge(0, 7).ok());
  const uint64_t misses_before = service.stats().cache_misses;
  ASSERT_TRUE(service.ServeRecommendation(0, rng).ok());
  EXPECT_EQ(service.stats().cache_misses, misses_before + 1);
  EXPECT_EQ(service.stats().cache_invalidations, 1u);
  EXPECT_EQ(service.stats().delta_patched, 0u);
  EXPECT_EQ(service.stats().delta_kept, 0u);
}

TEST(ServiceTest, ServeListChargesOnceAndReturnsKPicks) {
  DynamicGraph graph = ServiceGraph();
  ServiceOptions options = DefaultOptions();
  options.per_user_budget = 1.0;
  options.release_epsilon = 1.0;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(17);
  auto list = service.ServeList(0, 3, rng);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->picks.size(), 3u);
  // Budget gone after one list.
  EXPECT_FALSE(service.ServeList(0, 3, rng).ok());
}

TEST(ServiceTest, RejectsUnknownUser) {
  DynamicGraph graph = ServiceGraph();
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), DefaultOptions());
  Rng rng(19);
  EXPECT_TRUE(service.ServeRecommendation(graph.num_nodes(), rng)
                  .status()
                  .IsInvalidArgument());
}

TEST(ServiceTest, CacheEvictionKeepsServing) {
  DynamicGraph graph = ServiceGraph();
  ServiceOptions options = DefaultOptions();
  options.cache_capacity = 4;
  options.per_user_budget = 100.0;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  Rng rng(23);
  for (NodeId user = 0; user < 20; ++user) {
    auto rec = service.ServeRecommendation(user, rng);
    EXPECT_TRUE(rec.ok()) << "user " << user;
  }
  EXPECT_EQ(service.stats().cache_misses, 20u);
}

TEST(ServiceTest, NoSnapshotRebuildOnUnmutatedGraph) {
  // Acceptance criterion of the batch-serving fast path: the service must
  // not construct a CsrGraph on cache hits, nor on cache misses against an
  // unmutated graph — every call shares the DynamicGraph's one cached
  // snapshot instance.
  DynamicGraph graph = ServiceGraph();
  ServiceOptions options = DefaultOptions();
  options.per_user_budget = 100.0;
  RecommendationService service(
      &graph, std::make_unique<CommonNeighborsUtility>(), options);
  auto snapshot = graph.SharedSnapshot();  // build #1, pinned by the test
  ASSERT_EQ(graph.snapshot_builds(), 1u);
  Rng rng(37);
  for (NodeId user = 0; user < 10; ++user) {   // 10 cache misses
    ASSERT_TRUE(service.ServeRecommendation(user, rng).ok());
    ASSERT_TRUE(service.ServeRecommendation(user, rng).ok());  // + a hit
  }
  ASSERT_TRUE(service.ServeList(3, 5, rng).ok());
  // Still the same single build; pointer identity across all serving.
  EXPECT_EQ(graph.snapshot_builds(), 1u);
  EXPECT_EQ(graph.SharedSnapshot().get(), snapshot.get());

  // A mutation invalidates once; subsequent serving materializes exactly
  // one new snapshot — and because the journal covers the one-delta
  // window, it is an O(Δ) patch of the previous CSR, not a rebuild.
  ASSERT_TRUE(service.AddEdge(0, graph.num_nodes() - 1).ok() ||
              service.RemoveEdge(0, graph.num_nodes() - 1).ok());
  ASSERT_TRUE(service.ServeRecommendation(5, rng).ok());
  ASSERT_TRUE(service.ServeRecommendation(6, rng).ok());
  EXPECT_EQ(graph.snapshot_builds(), 1u);
  EXPECT_EQ(graph.snapshot_patches(), 1u);
  EXPECT_NE(graph.SharedSnapshot().get(), snapshot.get());
}

// ------------------------------------------------- shared scratch bitmap

/// Common neighbours whose every Compute on the serving shard's workspace
/// is checked against a Compute on a fresh workspace. Zero-block
/// resolution marks its excluded set in that workspace's kernel bitmap; a
/// bit it left behind would make the shard's kernels drop a candidate.
class FreshCheckedCommonNeighbors final : public CommonNeighborsUtility {
 public:
  FreshCheckedCommonNeighbors(uint64_t* computes, uint64_t* mismatches)
      : computes_(computes), mismatches_(mismatches) {}

  using UtilityFunction::Compute;
  UtilityVector Compute(const CsrGraph& graph, NodeId target,
                        UtilityWorkspace& workspace) const override {
    UtilityVector shared =
        CommonNeighborsUtility::Compute(graph, target, workspace);
    UtilityWorkspace fresh;
    const UtilityVector expected =
        CommonNeighborsUtility::Compute(graph, target, fresh);
    ++*computes_;
    bool same = shared.num_candidates() == expected.num_candidates() &&
                shared.nonzero().size() == expected.nonzero().size();
    for (size_t i = 0; same && i < shared.nonzero().size(); ++i) {
      same = shared.nonzero()[i].node == expected.nonzero()[i].node &&
             shared.nonzero()[i].utility == expected.nonzero()[i].utility;
    }
    if (!same) ++*mismatches_;
    return shared;
  }

 private:
  uint64_t* computes_;
  uint64_t* mismatches_;
};

bool IsZeroUtilityPick(const CsrGraph& view, NodeId user, NodeId pick) {
  const UtilityVector utilities = CommonNeighborsUtility().Compute(view, user);
  for (const UtilityEntry& e : utilities.nonzero()) {
    if (e.node == pick) return false;
  }
  return true;
}

void ExpectBitmapRestsBetweenServes(PrivacyModel model) {
  // Uniform ids: the degree-capped projection keeps each node's smallest
  // neighbour ids, so a hub-first generator would fold every kNode
  // neighbourhood into the bitmap's first words.
  Rng gen_rng(41);
  auto g = ErdosRenyiGnm(600, 1500, /*directed=*/false, gen_rng);
  ASSERT_TRUE(g.ok());
  DynamicGraph graph(*g);
  ServiceOptions options;
  options.release_epsilon = 1.0;
  options.per_user_budget = 1e6;
  options.num_shards = 1;
  // One cached entry: every change of user is a miss, so each Compute
  // runs on the workspace the previous serve's resolution just used.
  options.cache_capacity = 1;
  options.privacy_model = model;
  options.degree_cap = 4;
  uint64_t computes = 0, mismatches = 0;
  RecommendationService service(
      &graph,
      std::make_unique<FreshCheckedCommonNeighbors>(&computes, &mismatches),
      options);
  std::vector<NodeId> users = {0, 1, 2, 3, 5, 8, 13, 21, 34, 55};
  Rng rng(43);
  uint64_t zero_picks = 0;
  auto drive = [&](int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (NodeId user : users) {
        const auto snap = graph.VersionedSnapshot();
        const CsrGraph& view = model == PrivacyModel::kNode && snap.projected
                                   ? *snap.projected
                                   : *snap.graph;
        auto pick = service.ServeRecommendation(user, rng);
        ASSERT_TRUE(pick.ok()) << pick.status().ToString();
        zero_picks += IsZeroUtilityPick(view, user, *pick);
        if (round % 4 == 0) {
          auto list = service.ServeList(user, 5, rng);
          ASSERT_TRUE(list.ok()) << list.status().ToString();
          for (const Recommendation& rec : list->picks) {
            zero_picks += IsZeroUtilityPick(view, user, rec.node);
          }
        }
      }
    }
  };
  drive(20);
  // Grow the id range past a bitmap word boundary and serve a new node
  // linked into the graph, so its zero block reaches the new ids.
  for (int i = 0; i < 70; ++i) graph.AddNode();
  const NodeId grown = graph.num_nodes() - 1;
  for (NodeId v : {NodeId{0}, NodeId{1}, NodeId{600}, NodeId{650}}) {
    ASSERT_TRUE(service.AddEdge(grown, v).ok());
  }
  users.push_back(grown);
  drive(20);
  EXPECT_GT(zero_picks, 200u) << "computes " << computes;
  EXPECT_GT(computes, 200u) << "zero picks " << zero_picks;
  EXPECT_EQ(mismatches, 0u);
}

TEST(ServiceTest, ZeroBlockResolutionLeavesTheKernelBitmapAtRest) {
  ExpectBitmapRestsBetweenServes(PrivacyModel::kEdge);
}

TEST(ServiceTest, NodeDpZeroBlockResolutionLeavesTheKernelBitmapAtRest) {
  // Under kNode the resolver excludes the PROJECTED view's neighbours.
  ExpectBitmapRestsBetweenServes(PrivacyModel::kNode);
}

// ---------------------------------------------------------- node-DP audit

TEST(NodeDpAuditTest, NodeLevelLeakExceedsEdgeLevelLeak) {
  // Appendix A: node rewiring is a far stronger adversary move than one
  // edge. The sampled node audit must therefore observe at least the edge
  // audit's worst ratio (and typically much more).
  CsrGraph g = MakeTwoTriangleFixture();
  CommonNeighborsUtility cn;
  ExponentialMechanism mech(1.0, cn.SensitivityBound(g));
  auto edge_audit = AuditEdgeDp(g, cn, mech, 0);
  ASSERT_TRUE(edge_audit.ok());
  Rng rng(29);
  auto node_audit = AuditNodeDpSampled(g, cn, mech, 0,
                                       /*rewirings_per_node=*/40, rng);
  ASSERT_TRUE(node_audit.ok());
  EXPECT_GT(node_audit->pairs_checked, 0u);
  EXPECT_GE(node_audit->max_abs_log_ratio,
            edge_audit->max_abs_log_ratio - 1e-9);
}

TEST(NodeDpAuditTest, RejectsBadTarget) {
  CsrGraph g = MakeTwoTriangleFixture();
  CommonNeighborsUtility cn;
  ExponentialMechanism mech(1.0, 2.0);
  Rng rng(31);
  EXPECT_TRUE(AuditNodeDpSampled(g, cn, mech, 99, 5, rng)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace privrec
