// DP audited UNDER FAULTS (ctest labels `faults` + `audit`): the
// capstone of the fault-injection PR. ServiceAuditor::AuditPairUnderFaults
// installs one FaultPlan identically on both sides of a neighboring pair
// and certifies that every forced fallback route — journal compaction
// under a pinned window, snapshot/projection patch failure, repair
// abandonment, shard stalls, retry-absorbed admission failures — still
// releases at epsilon-hat <= epsilon. Degraded must never mean leaky: the
// fallbacks are exact recomputes, so an honest service's certified bound
// stays under the configured epsilon on every fault point, while the
// uncap-projection trip wire stays CAUGHT even with faults firing.

#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/logging.h"
#include "eval/service_auditor.h"
#include "gen/fixtures.h"
#include "gen/neighboring.h"
#include "gtest/gtest.h"
#include "random/rng.h"
#include "serve/fault_injection.h"
#include "serve/recommendation_service.h"
#include "utility/common_neighbors.h"
#include "utility/link_predictors.h"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PRIVREC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PRIVREC_TEST_SANITIZED 1
#endif
#endif
#ifndef PRIVREC_TEST_SANITIZED
#define PRIVREC_TEST_SANITIZED 0
#endif

namespace privrec {
namespace {

uint64_t FaultAuditTrials() {
  return PRIVREC_TEST_SANITIZED ? 400 : 1200;
}

NeighboringPair FixturePair() {
  CsrGraph g = MakeDirectedAuditFixture();
  auto pair = MakeEdgeTogglePair(g, /*target=*/0, 2, 4);
  PRIVREC_CHECK_OK(pair.status());
  return *pair;
}

ServiceAuditOptions FaultAuditAuditorOptions() {
  ServiceAuditOptions options;
  options.release_epsilon = 0.8;
  options.trials_per_side = FaultAuditTrials();
  options.confidence = 0.99;
  options.seed = 20260808;
  return options;
}

TEST(FaultAuditTest, HonestServiceStaysCertifiedOnEveryFaultPoint) {
  // One audit per fault point, each with a plan that forces THAT
  // fallback route throughout the trials. The mirrored toggles between
  // trials keep the mutation-armed points (compaction, patch failures,
  // repair failure) firing; epsilon-hat must stay certified <= epsilon on
  // all of them, and the stats hook must prove the faults actually fired.
  struct FaultCase {
    const char* name;
    FaultPoint point;
    uint32_t period;
    bool node_model;  // projection faults only exist under kNode
    uint32_t stall_micros;
  };
  const FaultCase cases[] = {
      {"journal_compaction", FaultPoint::kJournalCompaction, 3, false, 0},
      {"snapshot_patch_fail", FaultPoint::kSnapshotPatchFail, 1, false, 0},
      {"projection_patch_fail", FaultPoint::kProjectionPatchFail, 1, true, 0},
      {"repair_fail", FaultPoint::kRepairFail, 2, false, 0},
      {"shard_stall", FaultPoint::kShardStall, 1, false, 50},
  };
  for (const FaultCase& fault_case : cases) {
    ServiceAuditOptions options = FaultAuditAuditorOptions();
    std::function<std::unique_ptr<UtilityFunction>()> factory =
        [] { return std::make_unique<CommonNeighborsUtility>(); };
    if (fault_case.node_model) {
      options.privacy_model = PrivacyModel::kNode;
      options.degree_cap = 2;
      factory = [] { return std::make_unique<ResourceAllocationUtility>(); };
    }
    ServiceAuditor auditor(factory, options);
    FaultAuditOptions faults;
    faults.plan.Enable(fault_case.point, fault_case.period);
    faults.plan.rule(fault_case.point).stall_micros = fault_case.stall_micros;
    faults.mutations_between_trials = 1;
    ServiceStats stats;
    auto audit =
        auditor.AuditPairUnderFaults(FixturePair(), /*target=*/0, faults,
                                     &stats);
    ASSERT_TRUE(audit.ok())
        << fault_case.name << ": " << audit.status().ToString();
    ASSERT_EQ(audit->per_path.size(), 1u) << fault_case.name;
    const PathEpsilonEstimate& estimate = audit->per_path[0];
    EXPECT_EQ(estimate.path, "under_faults");
    EXPECT_EQ(estimate.trials_per_side, options.trials_per_side);
    // With probability >= confidence the honest stack leaks no more than
    // its configured epsilon even on the forced fallback route.
    EXPECT_LE(estimate.epsilon_lower_bound, options.release_epsilon)
        << fault_case.name
        << ": a forced fallback route leaks more than the charged epsilon";
    // The audit only certifies the route if the faults actually fired.
    EXPECT_GT(stats.injected_faults, 0u)
        << fault_case.name << ": the installed plan never fired";
    if (fault_case.point == FaultPoint::kJournalCompaction) {
      EXPECT_GT(stats.journal_fallbacks, 0u)
          << "compaction fired but never doomed a pinned window";
      EXPECT_GT(stats.stale_fallback_serves, 0u);
    }
    if (fault_case.point == FaultPoint::kRepairFail) {
      EXPECT_GT(stats.stale_fallback_serves, 0u)
          << "repair abandonment never forced the recompute fallback";
    }
  }
}

TEST(FaultAuditTest, RetryAbsorbedFailServeFaultsStayCertified) {
  // fail_serve rules surface injected kUnavailable at serve admission;
  // with a period-2 schedule and two retries every trial's first attempt
  // fails and the retry lands — the audit must complete, stay certified,
  // and the retry/fault tallies must prove the ladder ran end to end.
  ServiceAuditOptions options = FaultAuditAuditorOptions();
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  FaultAuditOptions faults;
  faults.plan.FailServe(FaultPoint::kSnapshotPatchFail, /*period=*/2);
  faults.mutations_between_trials = 1;
  faults.retry.max_retries = 2;
  faults.retry.backoff_micros = 1;
  ServiceStats stats;
  auto audit = auditor.AuditPairUnderFaults(FixturePair(), /*target=*/0,
                                            faults, &stats);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_LE(audit->per_path[0].epsilon_lower_bound, options.release_epsilon)
      << "the retry path leaks more than the charged epsilon";
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.injected_faults, 0u);
}

TEST(FaultAuditTest, UnabsorbedFailServeMakesTheAuditRefuse) {
  // A plan whose injected failures outlast the retry budget must make the
  // audit return the Unavailable error instead of a result: the auditor
  // refuses to certify a service that refused to serve.
  ServiceAuditOptions options = FaultAuditAuditorOptions();
  options.trials_per_side = 50;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  FaultAuditOptions faults;
  faults.plan.FailServe(FaultPoint::kRepairFail);  // every admission, forever
  faults.retry.max_retries = 0;
  auto audit = auditor.AuditPairUnderFaults(FixturePair(), /*target=*/0,
                                            faults);
  ASSERT_FALSE(audit.ok());
  EXPECT_TRUE(audit.status().IsUnavailable()) << audit.status().ToString();
}

TEST(FaultAuditTest, TinyJournalAndCompactionCompose) {
  // Undersized journal + injected compaction: both forced-fallback
  // producers at once, certified together (the production incident is
  // rarely one clean failure).
  ServiceAuditOptions options = FaultAuditAuditorOptions();
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  FaultAuditOptions faults;
  faults.plan.Enable(FaultPoint::kJournalCompaction, /*period=*/2);
  faults.plan.Enable(FaultPoint::kRepairFail, /*period=*/3);
  faults.mutations_between_trials = 2;
  faults.journal_capacity = 1;
  ServiceStats stats;
  auto audit = auditor.AuditPairUnderFaults(FixturePair(), /*target=*/0,
                                            faults, &stats);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  EXPECT_LE(audit->per_path[0].epsilon_lower_bound, options.release_epsilon);
  EXPECT_GT(stats.journal_fallbacks, 0u);
  EXPECT_GT(stats.stale_fallback_serves, 0u);
}

TEST(FaultAuditTest, ListShapeStaysCertifiedUnderFaults) {
  // The k-slot peeling release audited through the same fault schedule:
  // per-parity list reductions share one Bonferroni budget.
  ServiceAuditOptions options = FaultAuditAuditorOptions();
  options.shape = ServeAuditShape::kList;
  options.list_k = 2;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  FaultAuditOptions faults;
  faults.plan.Enable(FaultPoint::kRepairFail, /*period=*/2);
  faults.mutations_between_trials = 1;
  auto audit = auditor.AuditPairUnderFaults(FixturePair(), /*target=*/0,
                                            faults);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  const PathEpsilonEstimate& estimate = audit->per_path[0];
  EXPECT_LE(estimate.epsilon_lower_bound, options.release_epsilon);
  EXPECT_GE(estimate.bonferroni_cells, 6u);
}

TEST(FaultAuditTest, FixedSeedReproducesTheFaultAudit) {
  // Faults + mirrored toggles + retries are all deterministic, so two
  // runs at one seed must agree bitwise — the property every debugging
  // session under faults depends on.
  ServiceAuditOptions options = FaultAuditAuditorOptions();
  options.trials_per_side = 400;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  FaultAuditOptions faults;
  faults.plan.Enable(FaultPoint::kRepairFail, /*period=*/2);
  faults.plan.Enable(FaultPoint::kJournalCompaction, /*period=*/5);
  faults.mutations_between_trials = 1;
  auto first = auditor.AuditPairUnderFaults(FixturePair(), 0, faults);
  auto second = auditor.AuditPairUnderFaults(FixturePair(), 0, faults);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(first->per_path[0].epsilon_hat,
                   second->per_path[0].epsilon_hat);
  EXPECT_DOUBLE_EQ(first->per_path[0].epsilon_lower_bound,
                   second->per_path[0].epsilon_lower_bound);
}

TEST(FaultAuditTest, ZeroTrialsAreRefusedByEveryScenarioAudit) {
  // trials_per_side == 0 is only meaningful for AuditPair's adaptive
  // budget. The scenario audits run trials_per_side trials, so 0 must be
  // refused by all three instead of being padded into an audit of
  // trials nobody asked for.
  ServiceAuditOptions options = FaultAuditAuditorOptions();
  options.trials_per_side = 0;
  options.total_trial_budget = 100;
  ServiceAuditor auditor(
      [] { return std::make_unique<CommonNeighborsUtility>(); }, options);
  auto mutation = auditor.AuditPairUnderMutation(FixturePair(), 0,
                                                 MutationAuditOptions());
  ASSERT_FALSE(mutation.ok());
  EXPECT_TRUE(mutation.status().IsInvalidArgument())
      << mutation.status().ToString();
  auto faults =
      auditor.AuditPairUnderFaults(FixturePair(), 0, FaultAuditOptions());
  ASSERT_FALSE(faults.ok());
  EXPECT_TRUE(faults.status().IsInvalidArgument())
      << faults.status().ToString();
  RecoveryAuditOptions recovery;
  recovery.state_dir = ::testing::TempDir() + "/fault_audit_zero_trials";
  auto across = auditor.AuditAcrossRecovery(FixturePair(), 0, recovery);
  ASSERT_FALSE(across.ok());
  EXPECT_TRUE(across.status().IsInvalidArgument())
      << across.status().ToString();
}

TEST(FaultAuditTest, UncapTripWireStaysCaughtUnderFaults) {
  // The negative control: auditing under faults must not blunt the
  // audit. The uncap-projection trip wire (serve raw, calibrate capped)
  // has to stay a CERTIFIED violation even while repair faults and
  // compactions force the fallback routes.
  ServiceAuditOptions options = FaultAuditAuditorOptions();
  options.release_epsilon = 1.0;
  options.privacy_model = PrivacyModel::kNode;
  options.degree_cap = 1;
  options.uncap_projection = true;
  options.trials_per_side = PRIVREC_TEST_SANITIZED ? 600 : 2000;
  ServiceAuditor auditor(
      [] { return std::make_unique<ResourceAllocationUtility>(); }, options);
  FaultAuditOptions faults;
  faults.plan.Enable(FaultPoint::kRepairFail, /*period=*/2);
  faults.plan.Enable(FaultPoint::kJournalCompaction, /*period=*/5);
  faults.mutations_between_trials = 1;
  ServiceStats stats;
  auto audit = auditor.AuditPairUnderFaults(MakeNodeAuditRewiringPair(),
                                            /*target=*/0, faults, &stats);
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();
  const PathEpsilonEstimate& estimate = audit->per_path[0];
  EXPECT_GT(estimate.epsilon_hat, options.release_epsilon);
#if !PRIVREC_TEST_SANITIZED
  EXPECT_GT(estimate.epsilon_lower_bound, options.release_epsilon)
      << "uncapped projection escaped certification once faults were "
         "installed";
#endif
  EXPECT_GT(stats.injected_faults, 0u);
}

}  // namespace
}  // namespace privrec
