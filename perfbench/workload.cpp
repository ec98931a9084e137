#include "workload.h"

#include <algorithm>
#include <cmath>

#include "workload/sla.h"

namespace perfbench {

using bate::Demand;

OpenLoopShape steady_shape() {
  // About 60 demands live at 10 arrivals/s. Every event runs a full round,
  // and at this rate the controller stays under 20% busy, so queueing
  // behind other rounds is a small share of the latency.
  return OpenLoopShape{10.0, 1, 6.0, 10.0, 50.0};
}

OpenLoopShape contended_shape() {
  // 2-3x larger demands in bursts of 8, about 60 offered live: near
  // testbed6's admission limit (about 20% rejected). Short lifetimes give
  // each run many independent admission states.
  return OpenLoopShape{4.0, 8, 1.875, 30.0, 150.0};
}

namespace {

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(std::llround(seconds * 1e9));
}

/// `n` stratified draws of a distribution given by its quantile function:
/// one uniform draw inside each of n equal-probability strata, in seeded
/// random order. Each value is distributed as the target; the sample as a
/// whole matches it far more closely than n independent draws, which keeps
/// the offered load (arrival count, total lifetime, bandwidth and target
/// mix) nearly the same from seed to seed.
template <typename Quantile>
std::vector<double> stratified(std::size_t n, bate::Rng& rng, Quantile q) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = q((static_cast<double>(i) + rng.uniform(0.0, 1.0)) /
               static_cast<double>(n));
  }
  std::shuffle(out.begin(), out.end(), rng.engine());
  return out;
}

std::vector<double> stratified_exponential(std::size_t n, double mean,
                                           bate::Rng& rng) {
  return stratified(n, rng, [mean](double u) { return -mean * std::log1p(-u); });
}

/// `n` paper testbed demands (Sec 5.1): uniform bandwidth, uniform pair,
/// Table-1 availability targets in equal shares.
std::vector<Demand> paper_demands(std::size_t n, bate::DemandId first_id,
                                  const OpenLoopShape& shape,
                                  const bate::TunnelCatalog& catalog,
                                  bate::Rng& rng) {
  const auto& targets = bate::b4_targets();  // Table 1
  const double lo = shape.bw_min_mbps;
  const double hi = shape.bw_max_mbps;
  const std::vector<double> mbps =
      stratified(n, rng, [lo, hi](double u) { return lo + u * (hi - lo); });
  const auto pairs = static_cast<double>(catalog.pair_count());
  const std::vector<double> pair =
      stratified(n, rng, [pairs](double u) { return std::floor(u * pairs); });
  const auto classes = static_cast<double>(targets.size());
  const std::vector<double> target =
      stratified(n, rng, [classes](double u) { return std::floor(u * classes); });
  std::vector<Demand> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Demand& d = out[i];
    d.id = first_id + static_cast<bate::DemandId>(i);
    d.pairs = {{static_cast<int>(pair[i]), mbps[i]}};
    d.availability_target =
        targets[static_cast<std::size_t>(target[i])].availability;
    d.charge = mbps[i];  // unit price per Mbps (Sec 5.1)
    d.refund_fraction = 0.25;
  }
  return out;
}

}  // namespace

OpenLoopPlan make_open_loop(const OpenLoopShape& shape,
                            const bate::TunnelCatalog& catalog,
                            std::uint64_t seed, double seconds) {
  // The demand list, with each demand's lifetime, comes from one fixed
  // stream, so every seed offers the same demands and the seed draws when
  // they arrive. The scheduling LP's cost depends on which demands are live
  // together; drawing them per seed moved CPU per event by 14% between
  // seeds, three times what repeating one seed does.
  constexpr std::uint64_t kDemandStream = 0x5eed;
  bate::Rng demand_rng(kDemandStream);
  bate::Rng rng(seed);
  OpenLoopPlan plan;
  // M/M/inf in steady state: about mean_live() demands are live, each with
  // an exponential remaining lifetime (memorylessness).
  const auto initial = static_cast<std::size_t>(std::llround(shape.mean_live()));
  const std::vector<Demand> first =
      paper_demands(initial, 1, shape, catalog, demand_rng);
  const std::vector<double> first_life =
      stratified_exponential(initial, shape.mean_lifetime_s, demand_rng);
  for (std::size_t i = 0; i < initial; ++i) {
    plan.initial.push_back(Arrival{0, to_ns(first_life[i]), 0, first[i]});
  }
  // Poisson bursts: exponential gaps, stratified over the expected count.
  const auto bursts =
      static_cast<std::size_t>(std::llround(shape.bursts_per_s * seconds));
  const std::vector<double> gaps =
      stratified_exponential(bursts, 1.0 / shape.bursts_per_s, rng);
  const std::size_t count = bursts * static_cast<std::size_t>(shape.burst_size);
  const std::vector<Demand> demands = paper_demands(
      count, static_cast<bate::DemandId>(initial) + 1, shape, catalog, demand_rng);
  const std::vector<double> life =
      stratified_exponential(count, shape.mean_lifetime_s, demand_rng);
  const std::int64_t end_ns = to_ns(seconds);
  double t = 0.0;
  std::size_t k = 0;
  for (std::size_t b = 0; b < bursts; ++b) {
    t += gaps[b];
    const std::int64_t due = to_ns(t);
    if (due >= end_ns) break;
    for (int i = 0; i < shape.burst_size; ++i, ++k) {
      plan.arrivals.push_back(
          Arrival{due, to_ns(life[k]), static_cast<int>(b) + 1, demands[k]});
    }
  }
  return plan;
}

std::vector<Demand> flap_preload(const bate::TunnelCatalog& catalog) {
  const auto& targets = bate::b4_targets();
  std::vector<Demand> out;
  constexpr int kCount = 200;
  for (int i = 0; i < kCount; ++i) {
    Demand d;
    d.id = i + 1;
    const double mbps = 2.0 + static_cast<double>(i % 5);
    d.pairs = {{i % catalog.pair_count(), mbps}};
    d.availability_target = targets[static_cast<std::size_t>(i) % targets.size()]
                                .availability;
    d.charge = mbps;
    d.refund_fraction = 0.25;
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<LinkEvent> flap_cycle(std::span<const bate::LinkId> loaded,
                                  bate::Rng& rng) {
  std::vector<bate::LinkId> singles(loaded.begin(), loaded.end());
  std::shuffle(singles.begin(), singles.end(), rng.engine());
  std::vector<std::size_t> pair_starts(loaded.size());
  for (std::size_t i = 0; i < pair_starts.size(); ++i) pair_starts[i] = i;
  std::shuffle(pair_starts.begin(), pair_starts.end(), rng.engine());

  std::vector<LinkEvent> out;
  for (const bate::LinkId l : singles) {
    out.push_back({l, false});
    out.push_back({l, true});
  }
  if (loaded.size() >= 2) {
    for (const std::size_t i : pair_starts) {
      const bate::LinkId a = loaded[i];
      const bate::LinkId b = loaded[(i + 1) % loaded.size()];
      out.push_back({a, false});
      out.push_back({b, false});
      out.push_back({b, true});
      out.push_back({a, true});
    }
  }
  return out;
}

}  // namespace perfbench
