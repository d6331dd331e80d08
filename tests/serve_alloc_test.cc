// Allocation-regression tests for the charged serve path: this binary
// replaces the global operator new with a counting one and pins how many
// heap allocations a warm serve makes.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "core/exponential_mechanism.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "gtest/gtest.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace privrec {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

struct Fixture {
  std::unique_ptr<DynamicGraph> graph;
  std::unique_ptr<RecommendationService> service;
  /// The users with the smallest and the largest nonzero support among
  /// those whose releases land in the zero block at least a third of the
  /// time.
  NodeId small_user = 0;
  NodeId large_user = 0;
  size_t small_support = ~size_t{0};
  size_t large_support = 0;
};

constexpr double kEpsilon = 1.0;

Fixture MakeFixture() {
  // The serve benchmark's graph shape (Chung-Lu, exponent 2.2, average
  // degree 10) at half its size.
  Rng rng(3);
  auto weights = PowerLawWeights(4000, 2.2);
  auto g = ChungLu(weights, weights, 20000, /*directed=*/false, rng);
  PRIVREC_CHECK(g.ok());
  Fixture f;
  CommonNeighborsUtility cn;
  const ExponentialMechanism mechanism(kEpsilon, cn.SensitivityBound(*g));
  for (NodeId user = 0; user < g->num_nodes(); ++user) {
    const UtilityVector u = cn.Compute(*g, user);
    if (u.nonzero().empty() || u.num_zero() == 0) continue;
    auto dist = mechanism.Distribution(u);
    PRIVREC_CHECK(dist.ok());
    if (dist->zero_block_prob < 1.0 / 3) continue;
    if (u.nonzero().size() < f.small_support) {
      f.small_support = u.nonzero().size();
      f.small_user = user;
    }
    if (u.nonzero().size() > f.large_support) {
      f.large_support = u.nonzero().size();
      f.large_user = user;
    }
  }
  f.graph = std::make_unique<DynamicGraph>(*g);
  ServiceOptions options;
  options.release_epsilon = kEpsilon;
  options.per_user_budget = 1e9;
  options.num_shards = 1;
  f.service = std::make_unique<RecommendationService>(
      f.graph.get(), std::make_unique<CommonNeighborsUtility>(), options);
  return f;
}

TEST(ServeAllocTest, WarmCachedSingleServeAllocatesNothing) {
  Fixture f = MakeFixture();
  const NodeId user = f.large_user;
  // Warm-up: cache entry, frozen sampler, accountant and bitmap exist.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(f.service->ServeRecommendation(user).ok());
  }
  constexpr int kServes = 2000;
  std::vector<NodeId> picks;
  picks.reserve(kServes);
  bool all_ok = true;
  const uint64_t before = Allocations();
  for (int i = 0; i < kServes; ++i) {
    auto pick = f.service->ServeRecommendation(user);
    all_ok = all_ok && pick.ok();
    picks.push_back(pick.ok() ? *pick : kUnresolvedZeroNode);
  }
  const uint64_t allocations = Allocations() - before;
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u) << "over " << kServes << " serves";
  // Not vacuous: the measured serves include zero-block resolutions.
  const UtilityVector u = CommonNeighborsUtility().Compute(
      *f.graph->VersionedSnapshot().graph, user);
  std::unordered_set<NodeId> support;
  for (const UtilityEntry& e : u.nonzero()) support.insert(e.node);
  int zero_block = 0;
  for (NodeId pick : picks) zero_block += support.count(pick) == 0;
  EXPECT_GT(zero_block, kServes / 4) << "support " << u.nonzero().size();
}

TEST(ServeAllocTest, WarmListAllocationsDoNotGrowWithSupport) {
  Fixture f = MakeFixture();
  ASSERT_GT(f.large_support, 100 * f.small_support);
  constexpr int kLists = 200;
  auto count_list_allocations = [&](NodeId user) {
    for (int i = 0; i < 8; ++i) {
      PRIVREC_CHECK(f.service->ServeList(user, 5).ok());
    }
    const uint64_t before = Allocations();
    for (int i = 0; i < kLists; ++i) {
      PRIVREC_CHECK(f.service->ServeList(user, 5).ok());
    }
    return Allocations() - before;
  };
  const uint64_t small = count_list_allocations(f.small_user);
  const uint64_t large = count_list_allocations(f.large_user);
  // The peeling sampler is still rebuilt per list (a fixed number of
  // buffers), but zero-block resolution must not add per-support work.
  EXPECT_LE(large, small) << "support " << f.small_support << " vs "
                          << f.large_support;
}

}  // namespace
}  // namespace privrec
