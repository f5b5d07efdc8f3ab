#include "arbiter/arbiter.hpp"

#include <algorithm>
#include <numeric>

namespace cuttlefish::arbiter {

const char* to_string(SharePolicy policy) {
  switch (policy) {
    case SharePolicy::kEqualShare: return "equal";
    case SharePolicy::kDemandWeighted: return "demand";
  }
  return "?";
}

std::optional<SharePolicy> share_policy_from_string(const std::string& text) {
  if (text == "equal" || text == "equal-share" || text == "fair") {
    return SharePolicy::kEqualShare;
  }
  if (text == "demand" || text == "demand-weighted" ||
      text == "proportional") {
    return SharePolicy::kDemandWeighted;
  }
  return std::nullopt;
}

namespace {

/// Max-min fair water-filling. Repeatedly grant every unsatisfied tenant
/// an equal share of the remaining budget; tenants demanding less than
/// that share are satisfied exactly and leave the pool, raising the share
/// for the rest. Terminates in at most n rounds; order-equivariant
/// because rounds depend only on the multiset of demands.
void equal_share(double budget_w, std::span<const double> demands_w,
                 double* grants, std::vector<size_t>& open) {
  open.clear();
  for (size_t i = 0; i < demands_w.size(); ++i) {
    grants[i] = 0.0;
    if (demands_w[i] > 0.0) open.push_back(i);
  }
  double remaining = budget_w;
  while (!open.empty() && remaining > 0.0) {
    const double share = remaining / static_cast<double>(open.size());
    bool satisfied_any = false;
    for (size_t k = 0; k < open.size();) {
      const size_t i = open[k];
      if (demands_w[i] <= share) {
        grants[i] = demands_w[i];
        remaining -= demands_w[i];
        open[k] = open.back();
        open.pop_back();
        satisfied_any = true;
      } else {
        ++k;
      }
    }
    if (!satisfied_any) {
      // Everyone left wants more than the fair share: split evenly.
      for (const size_t i : open) grants[i] = share;
      remaining = 0.0;
      break;
    }
  }
}

/// Only reached over-subscribed, so `total` > budget_w > 0.
void demand_weighted(double budget_w, double total,
                     std::span<const double> demands_w, double* grants) {
  const double scale = budget_w / total;
  for (size_t i = 0; i < demands_w.size(); ++i) {
    grants[i] = demands_w[i] * scale;
  }
}

}  // namespace

void allocate(SharePolicy policy, double budget_w,
              std::span<const double> demands_w,
              std::vector<double>* grants_w, std::vector<size_t>* open) {
  const double total =
      std::accumulate(demands_w.begin(), demands_w.end(), 0.0);
  grants_w->resize(demands_w.size());
  double* grants = grants_w->data();
  // Uncapped plane, or enough budget for everyone: grants echo demands.
  if (budget_w <= 0.0 || total <= budget_w) {
    std::copy(demands_w.begin(), demands_w.end(), grants);
    return;
  }
  switch (policy) {
    case SharePolicy::kEqualShare:
      equal_share(budget_w, demands_w, grants, *open);
      return;
    case SharePolicy::kDemandWeighted:
      demand_weighted(budget_w, total, demands_w, grants);
      return;
  }
  std::copy(demands_w.begin(), demands_w.end(), grants);
}

std::vector<double> allocate(SharePolicy policy, double budget_w,
                             const std::vector<double>& demands_w) {
  std::vector<double> grants;
  std::vector<size_t> open;
  allocate(policy, budget_w, demands_w, &grants, &open);
  return grants;
}

}  // namespace cuttlefish::arbiter
