// Ablation (DESIGN.md Sec 5): the tunnel-pattern projection. Compares, with
// google-benchmark, three ways to obtain the per-pair pattern
// probabilities the scheduling LP needs:
//   * DP          — BATE's closed-form Poisson-binomial projection,
//   * Enumerate   — explicit scenario enumeration (the paper's pipeline),
//   * Exact       — 2^|union| exact distribution (the unpruned reference).
// All three agree on the probabilities (asserted at startup); the DP makes
// the cost independent of |E| choose y.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "routing/tunnels.h"
#include "scenario/pattern.h"
#include "scenario/scenario.h"
#include "topology/catalog.h"

using namespace bate;

namespace {

struct Fixture {
  Topology topo = b4();
  TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);

  Fixture() {
    // Cross-check DP vs enumeration once, on one pair at y=2.
    const auto& tunnels = catalog.tunnels(0);
    const auto dp = pruned_patterns(topo, tunnels, 2);
    PatternDistribution brute;
    brute.tunnel_count = dp.tunnel_count;
    brute.prob.assign(dp.prob.size(), 0.0);
    for_each_scenario(topo, 2,
                      [&](std::span<const LinkId> failed, double p) {
                        Scenario z{{failed.begin(), failed.end()}, p};
                        PatternMask s = 0;
                        for (std::size_t t = 0; t < tunnels.size(); ++t) {
                          if (z.tunnel_up(tunnels[t])) s |= 1u << t;
                        }
                        brute.prob[s] += p;
                      });
    for (std::size_t s = 0; s < dp.prob.size(); ++s) {
      if (std::abs(dp.prob[s] - brute.prob[s]) > 1e-9) {
        std::fprintf(stderr, "projection mismatch at pattern %zu\n", s);
        std::abort();
      }
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_ProjectionDp(benchmark::State& state) {
  Fixture& f = fixture();
  const int y = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int k = 0; k < f.catalog.pair_count(); ++k) {
      benchmark::DoNotOptimize(
          pruned_patterns(f.topo, f.catalog.tunnels(k), y));
    }
  }
}

void BM_ProjectionEnumerate(benchmark::State& state) {
  Fixture& f = fixture();
  const int y = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int k = 0; k < f.catalog.pair_count(); ++k) {
      const auto& tunnels = f.catalog.tunnels(k);
      PatternDistribution dist;
      dist.tunnel_count = static_cast<int>(tunnels.size());
      dist.prob.assign(1ull << tunnels.size(), 0.0);
      for_each_scenario(f.topo, y,
                        [&](std::span<const LinkId> failed, double p) {
                          Scenario z{{failed.begin(), failed.end()}, p};
                          PatternMask s = 0;
                          for (std::size_t t = 0; t < tunnels.size(); ++t) {
                            if (z.tunnel_up(tunnels[t])) s |= 1u << t;
                          }
                          dist.prob[s] += p;
                        });
      benchmark::DoNotOptimize(dist);
    }
  }
}

void BM_ProjectionExact(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    for (int k = 0; k < f.catalog.pair_count(); ++k) {
      benchmark::DoNotOptimize(
          exact_patterns(f.topo, f.catalog.tunnels(k)));
    }
  }
}

BENCHMARK(BM_ProjectionDp)->DenseRange(1, 3)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProjectionEnumerate)
    ->DenseRange(1, 3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProjectionExact)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
