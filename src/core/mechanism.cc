#include "core/mechanism.h"

#include <algorithm>
#include <bit>

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

/// The r-th (0-based) id in [0, num_nodes) whose bit is clear;
/// kUnresolvedZeroNode when fewer than r + 1 bits are clear.
NodeId SelectClearBit(const uint64_t* bits, NodeId num_nodes, uint64_t r) {
  const size_t words = (static_cast<size_t>(num_nodes) + 63) / 64;
  for (size_t w = 0; w < words; ++w) {
    const NodeId base = static_cast<NodeId>(w * 64);
    uint64_t clear = ~bits[w];
    if (num_nodes - base < 64) {
      clear &= (uint64_t{1} << (num_nodes - base)) - 1;
    }
    const auto count = static_cast<uint64_t>(std::popcount(clear));
    if (r < count) {
      for (; r > 0; --r) clear &= clear - 1;
      return base + static_cast<NodeId>(std::countr_zero(clear));
    }
    r -= count;
  }
  return kUnresolvedZeroNode;
}

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

Status ResolveZeroPicks(const CsrGraph& graph, const UtilityVector& utilities,
                        std::span<Recommendation> picks, Rng& rng,
                        std::vector<uint64_t>& excluded_bits) {
  if (std::none_of(picks.begin(), picks.end(), [](const Recommendation& p) {
        return p.from_zero_block;
      })) {
    return Status::OK();
  }
  if (utilities.num_zero() == 0) {
    return Status::FailedPrecondition("no zero-utility candidates");
  }
  const NodeId num_nodes = graph.num_nodes();
  const size_t words = (static_cast<size_t>(num_nodes) + 63) / 64;
  if (excluded_bits.size() < words) excluded_bits.resize(words, 0);
  uint64_t* const bits = excluded_bits.data();
  auto is_excluded = [bits](NodeId v) {
    return (bits[v >> 6] >> (v & 63)) & 1;
  };
  // Distinct ids marked so far; num_nodes - excluded is the eligible count.
  uint64_t excluded = 0;
  auto exclude = [&](NodeId v) {
    const uint64_t mask = uint64_t{1} << (v & 63);
    excluded += (bits[v >> 6] & mask) == 0;
    bits[v >> 6] |= mask;
  };
  const NodeId target = utilities.target();
  exclude(target);
  for (NodeId v : graph.OutNeighbors(target)) exclude(v);
  for (const UtilityEntry& e : utilities.nonzero()) exclude(e.node);

  Status status = Status::OK();
  for (Recommendation& pick : picks) {
    if (!pick.from_zero_block) continue;
    NodeId resolved = kUnresolvedZeroNode;
    // Rejection over uniform node draws conditioned on eligibility is
    // uniform over the remaining zero block. Zero-utility candidates are a
    // constant fraction of V in all realistic inputs, so it terminates
    // fast; the cap bounds pathological graphs, where a uniform rank-select
    // over the eligible ids takes over.
    for (int attempt = 0; attempt < 256 && resolved == kUnresolvedZeroNode;
         ++attempt) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
      if (!is_excluded(v)) resolved = v;
    }
    if (resolved == kUnresolvedZeroNode && excluded < num_nodes) {
      resolved = SelectClearBit(bits, num_nodes,
                                rng.NextBounded(num_nodes - excluded));
    }
    if (resolved == kUnresolvedZeroNode) {
      status = Status::Internal("zero-utility candidate bookkeeping mismatch");
      break;
    }
    pick.node = resolved;
    exclude(resolved);
  }

  // Back to the all-zero rest state. Every set bit belongs to one of the
  // ids marked above and the bitmap was all-zero on entry, so zeroing
  // their whole words clears exactly what this call set.
  bits[target >> 6] = 0;
  for (NodeId v : graph.OutNeighbors(target)) bits[v >> 6] = 0;
  for (const UtilityEntry& e : utilities.nonzero()) bits[e.node >> 6] = 0;
  for (const Recommendation& pick : picks) {
    if (pick.node != kUnresolvedZeroNode) bits[pick.node >> 6] = 0;
  }
  return status;
}

Result<NodeId> ResolveZeroUtilityNode(const CsrGraph& graph,
                                      const UtilityVector& utilities,
                                      Rng& rng) {
  Recommendation pick{kUnresolvedZeroNode, 0.0, true};
  std::vector<uint64_t> excluded_bits;
  PRIVREC_RETURN_NOT_OK(ResolveZeroPicks(graph, utilities,
                                         std::span<Recommendation>(&pick, 1),
                                         rng, excluded_bits));
  return pick.node;
}

}  // namespace privrec
