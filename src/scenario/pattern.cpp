#include "scenario/pattern.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "scenario/scenario.h"

namespace bate {

double PatternDistribution::residual() const {
  double total = 0.0;
  for (double p : prob) total += p;
  return std::max(0.0, 1.0 - total);
}

double PatternDistribution::availability(std::span<const double> alloc,
                                         double demand) const {
  if (static_cast<int>(alloc.size()) != tunnel_count) {
    throw std::invalid_argument("availability: alloc size mismatch");
  }
  double avail = 0.0;
  const auto patterns = static_cast<PatternMask>(prob.size());
  for (PatternMask s = 0; s < patterns; ++s) {
    double carried = 0.0;
    for (int t = 0; t < tunnel_count; ++t) {
      if ((s >> t) & 1u) carried += alloc[static_cast<std::size_t>(t)];
    }
    // Small tolerance so that exact-demand allocations qualify.
    if (carried + 1e-9 >= demand) avail += prob[s];
  }
  return avail;
}

std::vector<LinkId> tunnel_link_union(std::span<const Tunnel> tunnels) {
  std::vector<LinkId> links;
  for (const Tunnel& t : tunnels) {
    links.insert(links.end(), t.links.begin(), t.links.end());
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return links;
}

namespace {

/// One link of the tunnels' union: its failure probability and the mask of
/// the tunnels that cross it.
struct UnionLink {
  LinkId id;
  double fail;
  PatternMask uses;
};

/// The union links in ascending id order. Throws past kMaxPatternTunnels.
std::vector<UnionLink> union_links(const Topology& topo,
                                   std::span<const Tunnel> tunnels,
                                   const char* caller) {
  if (tunnels.size() > static_cast<std::size_t>(kMaxPatternTunnels)) {
    throw std::invalid_argument(std::string(caller) + ": too many tunnels");
  }
  std::vector<UnionLink> links;
  for (LinkId id : tunnel_link_union(tunnels)) {
    PatternMask uses = 0;
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      if (tunnels[t].uses(id)) uses |= PatternMask{1} << t;
    }
    links.push_back({id, topo.link(id).failure_prob, uses});
  }
  return links;
}

/// A distribution over `tunnels` with no mass yet.
PatternDistribution no_mass(std::span<const Tunnel> tunnels) {
  PatternDistribution dist;
  dist.tunnel_count = static_cast<int>(tunnels.size());
  dist.prob.assign(std::size_t{1} << tunnels.size(), 0.0);
  return dist;
}

}  // namespace

PatternDistribution exact_patterns(const Topology& topo,
                                   std::span<const Tunnel> tunnels) {
  const auto links = union_links(topo, tunnels, "exact_patterns");
  PatternDistribution dist = no_mass(tunnels);
  dist.prob.back() = 1.0;  // every tunnel up
  // Link by link: mass at a pattern with some of the link's tunnels up
  // stays with probability 1 - p and loses them with probability p. The
  // target pattern has none of them up, so it is never a source of this
  // link's pass, and its own mass stays whole: the update runs in place.
  for (const UnionLink& l : links) {
    for (std::size_t s = 0; s < dist.prob.size(); ++s) {
      const double v = dist.prob[s];
      if ((s & l.uses) == 0 || v == 0.0) continue;
      dist.prob[s] = (1.0 - l.fail) * v;
      dist.prob[s & ~std::size_t{l.uses}] += l.fail * v;
    }
  }
  return dist;
}

PatternDistribution pruned_patterns(const Topology& topo,
                                    std::span<const Tunnel> tunnels,
                                    int max_failures) {
  if (max_failures < 0) {
    throw std::invalid_argument("pruned_patterns: max_failures must be >= 0");
  }
  if (max_failures >= topo.link_count()) return exact_patterns(topo, tunnels);
  const auto links = union_links(topo, tunnels, "pruned_patterns");

  // P(at most k failures among links outside the union), k = 0..y.
  std::vector<char> skip(static_cast<std::size_t>(topo.link_count()), 0);
  for (const UnionLink& l : links) skip[static_cast<std::size_t>(l.id)] = 1;
  auto outside = failure_count_distribution(topo, max_failures, skip);
  for (std::size_t k = 1; k < outside.size(); ++k) outside[k] += outside[k - 1];

  // Each down set D of at most y union links weighs prod_U (p or 1 - p), in
  // link order, times P(at most y - |D| failures outside). The sets are
  // added in ascending order of D's bitmask over the union: the operations,
  // in order, of a loop over all 2^|U| masks that skips the larger sets, so
  // the sums match it bit for bit. A count-layered recurrence is cheaper
  // but moves them by an ulp or two, and the scheduling LP has ties that
  // such changes resolve differently (DESIGN.md Sec 5).
  PatternDistribution dist = no_mass(tunnels);
  const auto all_up = static_cast<PatternMask>(dist.prob.size() - 1);
  std::vector<char> down(links.size(), 0);
  const auto add = [&](int failed) {
    double p = 1.0;
    PatternMask lost = 0;
    for (std::size_t i = 0; i < links.size(); ++i) {
      p *= down[i] ? links[i].fail : 1.0 - links[i].fail;
      if (down[i]) lost |= links[i].uses;
    }
    p *= outside[static_cast<std::size_t>(max_failures - failed)];
    dist.prob[all_up & ~lost] += p;
  };
  // Adds the current set, then each extension by one link m below `limit`
  // followed by its own extensions below m: ascending bitmask order.
  const auto walk = [&](const auto& self, std::size_t limit,
                        int failed) -> void {
    add(failed);
    if (failed == max_failures) return;
    for (std::size_t m = 0; m < limit; ++m) {
      down[m] = 1;
      self(self, m, failed + 1);
      down[m] = 0;
    }
  };
  walk(walk, links.size(), 0);
  return dist;
}

}  // namespace bate
