#include "eval/service_auditor.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
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

/// One identical mutation applied to both sides of a pair (the
/// post-mutation toggle and the common-slot toggles between trials).
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

/// The one place audit-side ServiceOptions are built: every scenario must
/// configure the audited services identically — privacy model, degree
/// cap, and the uncap_projection trip-wire included — or the audit would
/// measure a service nobody deploys.
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

/// DeriveSeed path ids of the scenario audits (0–3 are the ServeAuditPath
/// values). Sides 0/1 are the measurement streams; the under-mutation
/// audit's side 2 seeds the mirrored mutator's toggle/churn streams, and
/// the across-recovery streams span the crash boundary (the recovered
/// half continues where the pre-crash half stopped, identically on both
/// sides).
constexpr uint64_t kMutationPathId = 4;
constexpr uint64_t kFaultPathId = 5;
constexpr uint64_t kRecoveryPathId = 6;

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

/// A mirrored step (toggle, charged serve, checkpoint) may fail, but only
/// identically on both sides: divergent ok-ness means the sides left their
/// mirrored states, the one impossible state worth failing on.
Status CheckMirrored(const char* what, const Status& base,
                     const Status& neighbor) {
  if (base.ok() == neighbor.ok()) return Status::OK();
  return Status::Internal(std::string("mirrored ") + what + " diverged: '" +
                          base.message() + "' vs '" + neighbor.message() +
                          "'");
}

Status ValidatePair(const NeighboringPair& pair, NodeId target) {
  if (pair.base.num_nodes() != pair.neighbor.num_nodes() ||
      pair.base.directed() != pair.neighbor.directed()) {
    return Status::InvalidArgument(
        "pair sides disagree on node count or direction");
  }
  if (target >= pair.base.num_nodes()) {
    return Status::InvalidArgument("target out of range");
  }
  return Status::OK();
}

PathEpsilonEstimate ToPathEstimate(const std::string& path_name,
                                   uint64_t trials,
                                   const EpsilonCellEstimate& cells) {
  PathEpsilonEstimate estimate;
  estimate.path = path_name;
  estimate.trials_per_side = trials;
  estimate.epsilon_hat = cells.epsilon_hat;
  estimate.epsilon_lower_bound = cells.epsilon_lower_bound;
  // List cell ids carry (position | item) or a sequence hash; the low 32
  // bits are the item for marginal cells, which is the most useful
  // NodeId-sized projection for dashboards.
  estimate.worst_outcome = static_cast<NodeId>(cells.worst_cell);
  estimate.worst_z = cells.worst_z;
  estimate.bonferroni_cells = cells.bonferroni_cells;
  return estimate;
}

DpAuditResult AssembleResult(const NeighboringPair& pair,
                             std::vector<PathEpsilonEstimate> estimates) {
  DpAuditResult result;
  result.pairs_checked = 1;
  result.worst_edge_u = pair.u;
  result.worst_edge_v = pair.v;
  for (PathEpsilonEstimate& estimate : estimates) {
    result.max_abs_log_ratio =
        std::max(result.max_abs_log_ratio, estimate.epsilon_hat);
    result.per_path.push_back(std::move(estimate));
  }
  return result;
}

/// What the trial loop does before each trial.
enum class TrialHook {
  /// Nothing: every trial hits the warm cached entry (cache_hit,
  /// multi_shard).
  kNone,
  /// A fresh, unwarmed service per trial (cold).
  kFreshService,
  /// One mirrored common-slot toggle before the first trial
  /// (post_mutation): invalidation, the Δf ratchet, sampler re-freeze.
  kPostMutation,
  /// MirroredMutator::RunPhase at the start of every round
  /// (under_mutation). RunPhase joins its workers, so the round's trials
  /// run against a settled, deterministic graph state.
  kMutatorRounds,
  /// `mutations_between_trials` mirrored common-slot toggles before every
  /// trial (under_faults): the fault points that only arm under mutation
  /// keep firing throughout the audit.
  kParityToggles,
  /// kParityToggles plus, before trial trials/2, a mid-audit checkpoint
  /// attempt, a simulated process death and recovery of both sides
  /// (across_recovery).
  kCrashRecover,
};

/// How trial outcomes are keyed. A keyed single outcome lands in cell
/// (phase+1)<<32 | outcome, a keyed list in its phase's own reduction.
/// The phase is public schedule, and within a phase the two sides sit in
/// identical-except-pair states, so every keyed cell of an honest service
/// is e^ε-bounded. Pooling phases instead would average the per-state
/// ratios — a mis-calibrated service whose leak peaks in some graph states
/// would hide behind the states where it happens not to leak.
enum class PhaseKey {
  kNone,
  /// The mutator round. Rounds run equal trial counts: that is what makes
  /// the pooled counts a sound mixture.
  kRound,
  /// The common slot's toggle parity: the slot cycles the graph state with
  /// period 2, and at equal parity the two sides are neighbors.
  kParity,
};

/// One audited serve path or traffic shape: everything the trial loop
/// needs beyond ServiceAuditOptions.
struct AuditScenario {
  /// DpAuditResult::per_path name.
  std::string name;
  /// DeriveSeed path id of the two measurement streams.
  uint64_t path_id = 0;
  size_t num_shards = 1;
  TrialHook hook = TrialHook::kNone;
  PhaseKey phase_key = PhaseKey::kNone;
  /// kRound: equal-length rounds the trials split into.
  uint64_t rounds = 1;
  /// Fewest trials per side the schedule can run: one per round, or one
  /// on each side of the crash.
  uint64_t min_trials = 1;
  /// Trials per side the scenario runs (RunScenario fills it; AuditPair's
  /// paths run in adaptive slices and leave it 0).
  uint64_t trials = 0;
  /// Edge-delta journal capacity of both sides' graphs (0 = default).
  size_t journal_capacity = 0;
  /// Installed IDENTICALLY on both sides' injectors after warm-up; null
  /// runs the services without an injector.
  const FaultPlan* plan = nullptr;
  RetryPolicy retry;
  uint64_t mutations_between_trials = 0;
  const MutationAuditOptions* mutation = nullptr;  // kMutatorRounds
  const RecoveryAuditOptions* recovery = nullptr;  // kCrashRecover
};

AuditScenario PathScenario(ServeAuditPath path,
                           const ServiceAuditOptions& options) {
  AuditScenario scenario;
  scenario.name = ServeAuditPathName(path);
  scenario.path_id = static_cast<uint64_t>(path);
  if (path == ServeAuditPath::kMultiShard) {
    scenario.num_shards = options.multi_shard_count;
  }
  if (path == ServeAuditPath::kCold) scenario.hook = TrialHook::kFreshService;
  if (path == ServeAuditPath::kPostMutation) {
    scenario.hook = TrialHook::kPostMutation;
  }
  return scenario;
}

/// The under-faults and across-recovery scenarios: two shards, a mirrored
/// plan and retry policy, common-slot toggles keyed by parity.
template <typename FaultOptions>
AuditScenario ParityScenario(std::string name, uint64_t path_id,
                             TrialHook hook, const FaultOptions& faults) {
  AuditScenario scenario;
  scenario.name = std::move(name);
  scenario.path_id = path_id;
  scenario.num_shards = 2;
  scenario.hook = hook;
  scenario.phase_key = PhaseKey::kParity;
  scenario.journal_capacity = faults.journal_capacity;
  scenario.plan = &faults.plan;
  scenario.retry = faults.retry;
  scenario.mutations_between_trials = faults.mutations_between_trials;
  return scenario;
}

/// The one two-sided trial loop: stands up both sides of a neighboring
/// pair, warms them, and drives both through the scenario's schedule,
/// recording every trial into one recorder and estimating from it. The
/// trials are callable in slices so the adaptive allocator can keep
/// spending on the path whose intervals are widest — RNG streams and
/// service state persist across slices, so (seed → transcript) stays a
/// pure function no matter how the budget lands.
class TrialLoop {
 public:
  TrialLoop(const ServiceAuditor::UtilityFactory& factory,
            const ServiceAuditOptions& options, const NeighboringPair& pair,
            NodeId target, AuditScenario scenario)
      : factory_(factory),
        options_(options),
        pair_(pair),
        target_(target),
        scenario_(std::move(scenario)) {}

  Status Init() {
    const bool parity_toggles = scenario_.hook == TrialHook::kParityToggles ||
                                scenario_.hook == TrialHook::kCrashRecover;
    if (scenario_.hook == TrialHook::kPostMutation ||
        (parity_toggles && scenario_.mutations_between_trials > 0)) {
      toggle_ = ChooseCommonToggle(pair_, target_);
      if (!toggle_.has_value()) {
        return Status::FailedPrecondition(
            "no common edge slot available for the " + scenario_.name +
            " toggles");
      }
      present_ = toggle_->present;
      toggles_alive_ = true;
    }
    for (int side = 0; side < 2; ++side) {
      Side& state = sides_[side];
      state.rng = Rng(DeriveSeed(options_.seed, scenario_.path_id,
                                 static_cast<uint64_t>(side)));
      if (scenario_.recovery == nullptr) continue;
      // Durable state, wiped on entry so a fixed seed reproduces the audit
      // byte for byte.
      state.dir =
          scenario_.recovery->state_dir + "/side" + std::to_string(side);
      std::error_code ec;
      std::filesystem::remove_all(state.dir, ec);
      std::filesystem::create_directories(state.dir, ec);
      if (ec) {
        return Status::IOError("cannot create audit state dir '" + state.dir +
                               "'");
      }
    }
    for (int side = 0; side < 2; ++side) {
      Side& state = sides_[side];
      // Each side owns a fresh dynamic graph: hooks mutate it, and state
      // shared across paths would make the audit depend on path order.
      state.graph = std::make_unique<DynamicGraph>(side == 0 ? pair_.base
                                                             : pair_.neighbor);
      if (scenario_.journal_capacity > 0) {
        state.graph->SetJournalCapacity(scenario_.journal_capacity);
      }
      if (scenario_.recovery != nullptr) {
        WalOptions wal_options;
        wal_options.fault_injector = &state.injector;
        PRIVREC_ASSIGN_OR_RETURN(
            state.wal, WriteAheadLog::Open(state.dir + "/wal", wal_options));
        LedgerOptions ledger_options;
        ledger_options.fault_injector = &state.injector;
        PRIVREC_ASSIGN_OR_RETURN(
            state.ledger,
            BudgetLedger::Open(state.dir + "/ledger", ledger_options));
      }
      if (scenario_.hook == TrialHook::kFreshService) continue;
      BuildService(state);
      if (scenario_.recovery != nullptr) {
        // Initial checkpoint BEFORE the plan is armed: recovery always has
        // an authoritative manifest to start from, whatever the plan
        // breaks.
        PRIVREC_RETURN_NOT_OK(
            state.service->SaveCheckpoint(CheckpointDir(state)));
      }
      // Warm the cache (and the plan is armed only after this) so the
      // sampled trials sit on the cached-entry path under audit.
      PRIVREC_RETURN_NOT_OK(Warmup(state));
    }
    if (scenario_.plan != nullptr) {
      for (Side& state : sides_) state.injector.Install(*scenario_.plan);
    }
    if (scenario_.recovery != nullptr) {
      // Charged pre-crash traffic: the serves the durable ledger must
      // survive. A refusal is budget-neutral, so only mirrored ok-ness is
      // required.
      for (uint64_t i = 0; i < scenario_.recovery->charged_serves_per_side;
           ++i) {
        Status charged[2];
        for (int side = 0; side < 2; ++side) {
          charged[side] = sides_[side]
                              .service->ServeRecommendation(target_,
                                                            sides_[side].rng)
                              .status();
        }
        PRIVREC_RETURN_NOT_OK(
            CheckMirrored("charged serves", charged[0], charged[1]));
      }
      for (Side& state : sides_) {
        state.pre_crash_charged =
            PerUserBudget() - state.service->RemainingBudget(target_);
      }
    }
    if (scenario_.hook == TrialHook::kMutatorRounds) {
      const MutationAuditOptions& mutation = *scenario_.mutation;
      MirroredMutatorOptions mutator_options;
      mutator_options.num_threads = mutation.mutator_threads;
      mutator_options.toggles_per_thread =
          mutation.toggles_per_thread_per_round;
      mutator_options.churn_serves_per_thread =
          mutation.churn_serves_per_thread_per_round;
      mutator_options.seed = DeriveSeed(options_.seed, scenario_.path_id, 2);
      mutator_ = std::make_unique<MirroredMutator>(
          sides_[0].service.get(), sides_[1].service.get(), pair_.base,
          target_, pair_.u, pair_.v, mutator_options);
    }
    return Status::OK();
  }

  Status RunTrials(uint64_t n) {
    for (uint64_t i = 0; i < n; ++i, ++trials_done_) {
      PRIVREC_RETURN_NOT_OK(BeforeTrial(trials_done_));
      const uint64_t phase = PhaseOf(trials_done_);
      for (Side& state : sides_) {
        PRIVREC_RETURN_NOT_OK(RecordTrial(state, phase));
      }
    }
    return Status::OK();
  }

  /// One estimator for every scenario. List phases share one Bonferroni
  /// budget: first total the cells every phase contributes, then
  /// re-estimate each phase at that shared correction and keep the worst
  /// (a single phase is exactly the plain list estimate).
  PathEpsilonEstimate Estimate(double confidence) const {
    const size_t override_cells = options_.bonferroni_cells_override;
    if (options_.shape == ServeAuditShape::kSingle) {
      return ToPathEstimate(
          scenario_.name, trials_done_,
          EstimateEpsilonFromOutcomeCells(sides_[0].cells, sides_[1].cells,
                                          trials_done_, confidence,
                                          override_cells,
                                          /*include_complements=*/false));
    }
    size_t total_cells = override_cells;
    if (total_cells == 0) {
      for (const auto& [phase, base] : sides_[0].reductions) {
        total_cells += EstimateEpsilonFromListReductions(
                           base, sides_[1].reductions.at(phase), confidence)
                           .bonferroni_cells;
      }
    }
    EpsilonCellEstimate worst;
    for (const auto& [phase, base] : sides_[0].reductions) {
      const EpsilonCellEstimate cells = EstimateEpsilonFromListReductions(
          base, sides_[1].reductions.at(phase), confidence, total_cells);
      if (cells.epsilon_hat > worst.epsilon_hat) {
        worst.epsilon_hat = cells.epsilon_hat;
        worst.worst_cell = cells.worst_cell;
      }
      worst.epsilon_lower_bound =
          std::max(worst.epsilon_lower_bound, cells.epsilon_lower_bound);
      worst.worst_z = std::max(worst.worst_z, cells.worst_z);
    }
    worst.bonferroni_cells = total_cells;
    return ToPathEstimate(scenario_.name, trials_done_, worst);
  }

  /// Summed stats of every service the loop ran, pre-crash ones included.
  ServiceStats stats() const {
    ServiceStats total = pre_crash_stats_;
    for (const Side& state : sides_) {
      if (state.service != nullptr) total += state.service->stats();
    }
    return total;
  }

  /// The determinism contract made observable: mirrored plans driven by
  /// mirrored call sequences must have fired identically.
  void CheckMirroredFires() const {
    PRIVREC_CHECK_EQ(sides_[0].injector.total_fires(),
                     sides_[1].injector.total_fires());
  }

 private:
  /// Declaration order is teardown order in reverse: services reference
  /// graphs, graphs reference WALs, all of them reference the injector.
  struct Side {
    FaultInjector injector;
    std::string dir;  // durable state (across_recovery only)
    std::unique_ptr<WriteAheadLog> wal;
    std::unique_ptr<BudgetLedger> ledger;
    std::unique_ptr<DynamicGraph> graph;
    std::unique_ptr<RecommendationService> service;
    Rng rng{0};
    double pre_crash_charged = 0;
    OutcomeCellCounts cells;
    std::map<uint64_t, ListOutcomeReduction> reductions;  // by phase
  };

  static std::string CheckpointDir(const Side& state) {
    return state.dir + "/ckpt";
  }

  /// Headroom for the charged pre-crash traffic: the audit serves
  /// themselves stay budget-neutral, but the charged serves must fit.
  double PerUserBudget() const {
    return options_.release_epsilon *
           static_cast<double>(scenario_.recovery->charged_serves_per_side +
                               1);
  }

  void BuildService(Side& state) {
    ServiceOptions service_options =
        MakeAuditServiceOptions(options_, scenario_.num_shards);
    service_options.retry = scenario_.retry;
    if (scenario_.plan != nullptr) {
      service_options.fault_injector = &state.injector;
    }
    if (scenario_.recovery != nullptr) {
      service_options.per_user_budget = PerUserBudget();
      service_options.wal = state.wal.get();
      service_options.budget_ledger = state.ledger.get();
    }
    // Destroy before building: a cold trial's service never coexists with
    // its predecessor.
    state.service.reset();
    state.service = std::make_unique<RecommendationService>(
        state.graph.get(), factory_(), service_options);
  }

  /// One discarded serve of the configured shape (it is itself the cold
  /// path).
  Status Warmup(Side& state) {
    if (options_.shape == ServeAuditShape::kSingle) {
      return state.service->ServeForAudit(target_, state.rng).status();
    }
    return state.service
        ->ServeListForAudit(target_, options_.list_k, state.rng)
        .status();
  }

  Status BeforeTrial(uint64_t t) {
    switch (scenario_.hook) {
      case TrialHook::kNone:
        return Status::OK();
      case TrialHook::kFreshService:
        for (Side& state : sides_) BuildService(state);
        return Status::OK();
      case TrialHook::kPostMutation:
        return t == 0 ? MirroredToggle() : Status::OK();
      case TrialHook::kMutatorRounds:
        if (t % RoundLength() == 0) mutator_->RunPhase();
        return Status::OK();
      case TrialHook::kCrashRecover:
        if (t == scenario_.trials / 2) {
          PRIVREC_RETURN_NOT_OK(CrashAndRecover());
        }
        [[fallthrough]];
      case TrialHook::kParityToggles:
        for (uint64_t m = 0;
             toggles_alive_ && m < scenario_.mutations_between_trials; ++m) {
          PRIVREC_RETURN_NOT_OK(MirroredToggle());
        }
        return Status::OK();
    }
    return Status::OK();
  }

  uint64_t RoundLength() const { return scenario_.trials / scenario_.rounds; }

  uint64_t PhaseOf(uint64_t t) const {
    switch (scenario_.phase_key) {
      case PhaseKey::kNone:
        return 0;
      case PhaseKey::kRound:
        return t / RoundLength();
      case PhaseKey::kParity:
        return toggle_.has_value() && present_ != toggle_->present ? 1 : 0;
    }
    return 0;
  }

  /// One serve trial of the configured shape, recorded under `phase`.
  Status RecordTrial(Side& state, uint64_t phase) {
    if (options_.shape == ServeAuditShape::kSingle) {
      PRIVREC_ASSIGN_OR_RETURN(
          NodeId outcome, state.service->ServeForAudit(target_, state.rng));
      const uint64_t cell = static_cast<uint64_t>(outcome);
      ++state.cells[scenario_.phase_key == PhaseKey::kNone
                        ? cell
                        : ((phase + 1) << 32) | cell];
      return Status::OK();
    }
    PRIVREC_ASSIGN_OR_RETURN(
        TopKResult list,
        state.service->ServeListForAudit(target_, options_.list_k, state.rng));
    std::vector<uint32_t> items;
    items.reserve(list.picks.size());
    for (const Recommendation& pick : list.picks) {
      items.push_back(static_cast<uint32_t>(pick.node));
    }
    state.reductions[phase].AddList(items);
    return Status::OK();
  }

  /// One identical toggle of the common slot on both sides.
  Status MirroredToggle() {
    Status toggled[2];
    for (int side = 0; side < 2; ++side) {
      RecommendationService& service = *sides_[side].service;
      toggled[side] = present_ ? service.RemoveEdge(toggle_->a, toggle_->b)
                               : service.AddEdge(toggle_->a, toggle_->b);
    }
    PRIVREC_RETURN_NOT_OK(CheckMirrored("toggles", toggled[0], toggled[1]));
    if (!toggled[0].ok()) {
      if (scenario_.hook != TrialHook::kCrashRecover) return toggled[0];
      // A torn WAL rejects mutations until recovery opens a fresh one; the
      // schedule freezes SYMMETRICALLY (equal plans fire equally), keeping
      // the parity cells sound.
      toggles_alive_ = false;
      return Status::OK();
    }
    present_ = !present_;
    return Status::OK();
  }

  Status CrashAndRecover() {
    // Mid-audit checkpoint attempt, faults still armed: under
    // kCheckpointCrash this dies before the manifest commit (on both sides
    // identically) and the initial checkpoint stays authoritative.
    Status saved[2];
    for (int side = 0; side < 2; ++side) {
      saved[side] =
          sides_[side].service->SaveCheckpoint(CheckpointDir(sides_[side]));
    }
    PRIVREC_RETURN_NOT_OK(CheckMirrored("checkpoints", saved[0], saved[1]));

    // ---- The crash. ----
    CheckMirroredFires();
    pre_crash_stats_ = stats();
    for (Side& state : sides_) {
      state.wal->SimulateCrash();
      state.ledger->SimulateCrash();
    }
    // Teardown order mirrors ownership: services reference graphs, graphs
    // reference WALs.
    for (Side& state : sides_) state.service.reset();
    for (Side& state : sides_) state.graph.reset();
    for (Side& state : sides_) {
      state.wal.reset();
      state.ledger.reset();
    }
    // Post-recovery runs clean; the fire counts above are already folded
    // into pre_crash_stats_.
    for (Side& state : sides_) state.injector.Clear();

    // ---- Recovery: WAL replay past the authoritative checkpoint,
    // accountants reseeded from the recovered ledger. ----
    for (int side = 0; side < 2; ++side) {
      Side& state = sides_[side];
      PRIVREC_ASSIGN_OR_RETURN(state.wal,
                               WriteAheadLog::Open(state.dir + "/wal"));
      RecoveryReport report;
      PRIVREC_ASSIGN_OR_RETURN(
          state.graph, RecoverGraph(CheckpointDir(state), *state.wal, &report));
      if (scenario_.journal_capacity > 0) {
        state.graph->SetJournalCapacity(scenario_.journal_capacity);
      }
      PRIVREC_ASSIGN_OR_RETURN(state.ledger,
                               BudgetLedger::Open(state.dir + "/ledger"));
      const std::unordered_map<NodeId, double> recovered_spend =
          state.ledger->SpentByUser();
      auto it = recovered_spend.find(target_);
      const double recovered = it == recovered_spend.end() ? 0.0 : it->second;
      if (recovered + 1e-9 < state.pre_crash_charged) {
        // The one unrecoverable state: durable spend below what was
        // charged in memory means a charge was lost (torn ledger append).
        // Refusing is the only sound posture — certifying would launder
        // the loss.
        return Status::FailedPrecondition(
            "budget ledger unrecoverable on side " + std::to_string(side) +
            ": recovered spend " + std::to_string(recovered) +
            " < pre-crash charged " + std::to_string(state.pre_crash_charged) +
            " — refusing to certify across this recovery");
      }
      BuildService(state);
      state.service->ImportSpentBudgets(recovered_spend);
      PRIVREC_RETURN_NOT_OK(Warmup(state));
    }
    // Re-derive the parity anchor from the RECOVERED graphs: recovery is
    // exact, so both sides must agree — and agree with the pre-crash
    // schedule.
    if (toggle_.has_value()) {
      bool recovered_present[2];
      for (int side = 0; side < 2; ++side) {
        recovered_present[side] =
            sides_[side].graph->VersionedSnapshot().graph->HasEdge(
                toggle_->a, toggle_->b);
      }
      if (recovered_present[0] != recovered_present[1]) {
        return Status::Internal(
            "recovered sides disagree on the common toggle slot");
      }
      if (recovered_present[0] != present_) {
        return Status::Internal(
            "recovered graph state disagrees with the pre-crash toggle "
            "schedule");
      }
      toggles_alive_ = true;  // fresh WAL: toggles flow again
    }
    return Status::OK();
  }

  const ServiceAuditor::UtilityFactory& factory_;
  const ServiceAuditOptions& options_;
  const NeighboringPair& pair_;
  NodeId target_;
  AuditScenario scenario_;
  std::optional<CommonToggle> toggle_;
  bool present_ = false;
  bool toggles_alive_ = false;
  Side sides_[2];
  std::unique_ptr<MirroredMutator> mutator_;  // kMutatorRounds
  ServiceStats pre_crash_stats_;
  uint64_t trials_done_ = 0;
};

/// What every scenario audit runs: one loop over
/// options.trials_per_side trials, one estimate.
Result<DpAuditResult> RunScenario(const ServiceAuditor::UtilityFactory& factory,
                                  const ServiceAuditOptions& options,
                                  const NeighboringPair& pair, NodeId target,
                                  AuditScenario scenario,
                                  ServiceStats* stats_out) {
  PRIVREC_RETURN_NOT_OK(ValidatePair(pair, target));
  // One trial-count rule: a schedule needs a trial in every phase it must
  // fill (each round; each side of the crash). Fewer is refused, never
  // padded into an audit of trials nobody asked for.
  if (options.trials_per_side < scenario.min_trials) {
    return Status::InvalidArgument(
        "trials_per_side must be at least " +
        std::to_string(scenario.min_trials) + " for the " + scenario.name +
        " audit");
  }
  const uint64_t trials =
      options.trials_per_side / scenario.rounds * scenario.rounds;
  scenario.trials = trials;
  TrialLoop loop(factory, options, pair, target, std::move(scenario));
  PRIVREC_RETURN_NOT_OK(loop.Init());
  PRIVREC_RETURN_NOT_OK(loop.RunTrials(trials));
  loop.CheckMirroredFires();
  if (stats_out != nullptr) *stats_out = loop.stats();
  return AssembleResult(pair, {loop.Estimate(options.confidence)});
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
  return ToPathEstimate(
      path_name, trials,
      EstimateEpsilonFromOutcomeCells(base_cells, neighbor_cells, trials,
                                      confidence, bonferroni_override,
                                      /*include_complements=*/false));
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
  PRIVREC_RETURN_NOT_OK(ValidatePair(pair, target));
  const uint64_t rounds = std::max<uint64_t>(1, options_.adaptive_rounds);
  if (options_.total_trial_budget > 0) {
    // Round 1 splits its slice uniformly; a slice smaller than the path
    // count starves some paths for the whole audit (later rounds steer by
    // gaps those paths never got to report), leaving rows that read as
    // ε̂ = 0 with no evidence behind them.
    const uint64_t first_slice =
        options_.total_trial_budget / rounds +
        (options_.total_trial_budget % rounds > 0 ? 1 : 0);
    if (first_slice < options_.paths.size()) {
      return Status::InvalidArgument(
          "total_trial_budget " + std::to_string(options_.total_trial_budget) +
          " over " + std::to_string(rounds) +
          " adaptive rounds leaves a first-round slice smaller than the " +
          std::to_string(options_.paths.size()) + " audited paths");
    }
  }
  std::vector<std::unique_ptr<TrialLoop>> loops;
  loops.reserve(options_.paths.size());
  for (ServeAuditPath path : options_.paths) {
    loops.push_back(std::make_unique<TrialLoop>(
        utility_factory_, options_, pair, target,
        PathScenario(path, options_)));
    PRIVREC_RETURN_NOT_OK(loops.back()->Init());
  }

  if (options_.total_trial_budget == 0) {
    // Uniform allocation: every path gets trials_per_side, matching the
    // pre-adaptive audit transcript exactly.
    for (auto& loop : loops) {
      PRIVREC_RETURN_NOT_OK(loop->RunTrials(options_.trials_per_side));
    }
  } else {
    // Adaptive allocation: spend the fixed total budget round by round,
    // steering each round's slice toward the paths whose certification
    // gap (ε̂ − certified bound) is widest. The gap IS the interval
    // width the CP box leaves unresolved, so trials land where they
    // shrink uncertainty fastest; round 1 has no estimates yet and
    // splits uniformly. Total spend is exactly the budget (apportionment
    // is exact), and determinism holds because each loop's streams
    // persist across rounds.
    const uint64_t budget = options_.total_trial_budget;
    for (uint64_t round = 0; round < rounds; ++round) {
      const uint64_t slice =
          budget / rounds + (round < budget % rounds ? 1 : 0);
      if (slice == 0) continue;
      std::vector<double> widths(loops.size(), 1.0);
      if (round > 0) {
        for (size_t i = 0; i < loops.size(); ++i) {
          const PathEpsilonEstimate estimate = loops[i]->Estimate(confidence);
          widths[i] = estimate.epsilon_hat - estimate.epsilon_lower_bound;
        }
      }
      const std::vector<uint64_t> alloc = Apportion(slice, widths);
      for (size_t i = 0; i < loops.size(); ++i) {
        if (alloc[i] > 0) PRIVREC_RETURN_NOT_OK(loops[i]->RunTrials(alloc[i]));
      }
    }
  }

  std::vector<PathEpsilonEstimate> estimates;
  for (auto& loop : loops) estimates.push_back(loop->Estimate(confidence));
  return AssembleResult(pair, std::move(estimates));
}

Result<DpAuditResult> ServiceAuditor::AuditPairUnderMutation(
    const NeighboringPair& pair, NodeId target,
    const MutationAuditOptions& mutation, ServiceStats* stats_out) const {
  AuditScenario scenario;
  scenario.name = "under_mutation";
  scenario.path_id = kMutationPathId;
  // Two shards: the audited target and the churn users stripe across
  // shards, so repair, snapshot re-pinning, and sensitivity memos all run
  // under real shard concurrency — while keeping per-shard state small
  // enough that every mutation round actually touches it.
  scenario.num_shards = 2;
  scenario.hook = TrialHook::kMutatorRounds;
  scenario.phase_key = PhaseKey::kRound;
  scenario.rounds = std::max<uint64_t>(1, mutation.rounds);
  scenario.min_trials = scenario.rounds;
  scenario.journal_capacity = mutation.journal_capacity;
  scenario.mutation = &mutation;
  return RunScenario(utility_factory_, options_, pair, target,
                     std::move(scenario), stats_out);
}

Result<DpAuditResult> ServiceAuditor::AuditPairUnderFaults(
    const NeighboringPair& pair, NodeId target,
    const FaultAuditOptions& faults, ServiceStats* stats_out) const {
  return RunScenario(utility_factory_, options_, pair, target,
                     ParityScenario("under_faults", kFaultPathId,
                                    TrialHook::kParityToggles, faults),
                     stats_out);
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
  AuditScenario scenario =
      ParityScenario("across_recovery", kRecoveryPathId,
                     TrialHook::kCrashRecover, recovery);
  // At least one trial on each side of the crash boundary — the boundary
  // IS the path under audit.
  scenario.min_trials = 2;
  scenario.recovery = &recovery;
  return RunScenario(utility_factory_, options_, pair, target,
                     std::move(scenario), stats_out);
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
