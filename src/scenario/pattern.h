// Tunnel-pattern projection of failure scenarios.
//
// For one s-d pair k with tunnels T_k, the scheduling LP (Sec 3.3) only sees
// a scenario z through which of the pair's tunnels are up (v^z_t). We
// therefore project the scenario distribution onto "patterns": bitmasks over
// T_k where bit t set means tunnel t is available. There are at most
// 2^|T_k| <= 16 patterns, independent of |E|.
//
// Two distributions are provided:
//  * exact_patterns  — the true pattern distribution (equivalent to the
//    unpruned 2^|E| scenario set).
//  * pruned_patterns — the distribution restricted to the paper's pruned set
//    "at most y concurrent link failures" (Fig 3); the pruned residual is
//    treated as unqualified, exactly matching the paper's aggregation rule.
//
// Neither loops over all 2^|U| down sets of the tunnels' link union U. The
// exact form is one recurrence over the links of U: each link e, failing
// with probability p_e, keeps a pattern's mass with probability 1 - p_e and
// moves it to the pattern without e's tunnels with probability p_e, in
// O(|U| * 2^|T|). The pruned form visits only the down sets of at most y
// union links, weighted by a Poisson-binomial count of the failures outside
// U, in O(|U| * C(|U|, <= y)), and sums them in the order the full loop
// did, so the scheduling LP's coefficients keep their bits. Both are exact
// for a union of any size; see DESIGN.md Sec 5.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/tunnels.h"
#include "topology/graph.h"

namespace bate {

using PatternMask = std::uint32_t;  // bit t set => tunnel t up

/// The widest tunnel list a pattern distribution covers (2^20 patterns). A
/// demand whose pairs carry more tunnels together cannot be scheduled.
inline constexpr int kMaxPatternTunnels = 20;

struct PatternDistribution {
  int tunnel_count = 0;
  /// prob[S] = P(pattern S [and <= y total failures for the pruned form]).
  /// Size 2^tunnel_count. Sums to 1 (exact) or <= 1 (pruned).
  std::vector<double> prob;

  double residual() const;
  /// Probability-weighted availability of a concrete allocation: the sum of
  /// prob[S] over patterns S where the up tunnels carry at least `demand`.
  double availability(std::span<const double> alloc, double demand) const;
};

/// Sorted union of all link ids used by the tunnels.
std::vector<LinkId> tunnel_link_union(std::span<const Tunnel> tunnels);

/// Exact pattern distribution. Throws std::invalid_argument for more than
/// kMaxPatternTunnels tunnels.
PatternDistribution exact_patterns(const Topology& topo,
                                   std::span<const Tunnel> tunnels);

/// Pattern distribution over the pruned scenario set (<= max_failures
/// concurrent link failures across the whole network); exact_patterns once
/// max_failures reaches the link count. Same tunnel bound.
PatternDistribution pruned_patterns(const Topology& topo,
                                    std::span<const Tunnel> tunnels,
                                    int max_failures);

}  // namespace bate
