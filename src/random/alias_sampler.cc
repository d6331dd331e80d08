#include "random/alias_sampler.h"

#include <numeric>

#include "common/logging.h"

namespace privrec {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  PRIVREC_CHECK(!weights.empty()) << "AliasSampler needs at least one weight";
  const size_t n = weights.size();
  double total = 0;
  for (double w : weights) {
    PRIVREC_CHECK_GE(w, 0.0) << "negative weight";
    total += w;
  }
  pmf_.resize(n);
  if (total <= 0) {
    // Degenerate input: fall back to uniform.
    for (auto& p : pmf_) p = 1.0 / static_cast<double>(n);
  } else {
    for (size_t i = 0; i < n; ++i) pmf_[i] = weights[i] / total;
  }

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  // Worklists sized up front: a build costs a fixed number of
  // allocations, whatever the number of weights.
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = pmf_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are numerically == 1.
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;
}

size_t AliasSampler::Sample(Rng& rng) const {
  size_t bucket = static_cast<size_t>(rng.NextBounded(prob_.size()));
  return rng.NextDouble() < prob_[bucket] ? bucket : alias_[bucket];
}

double AliasSampler::Probability(size_t i) const {
  PRIVREC_CHECK_LT(i, pmf_.size());
  return pmf_[i];
}

}  // namespace privrec
