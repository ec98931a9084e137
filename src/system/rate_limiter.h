// Token-bucket rate limiting for the system layer (Sec 4).
//
//  * BandwidthEnforcer — the broker "limits the actual traffic rate in each
//    tunnel in case something is wrong on the end hosts": one TokenBucket
//    per (demand, tunnel), tokens refill at the enforced rate, a
//    transmission consumes its size; bursts up to the bucket depth are
//    absorbed, sustained overdrive is clipped.
//  * RequestRateLimiter — per-tenant control-plane limiting at the
//    admission ingress: one token per SubmitDemand, over-rate requests are
//    shed with a retry_after hint (DESIGN.md Sec 10 "Admission pipeline").
//  * Brokers also bucket their own link-status reports so a flapping agent
//    cannot flood the controller with replan work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "workload/demand.h"

namespace bate {

class TokenBucket {
 public:
  /// rate: tokens (== megabits) added per second; burst: bucket depth.
  TokenBucket(double rate_mbps, double burst_mb)
      : rate_(rate_mbps), burst_(burst_mb), tokens_(burst_mb) {
    if (rate_mbps < 0.0 || burst_mb <= 0.0) {
      throw std::invalid_argument("TokenBucket: rate/burst");
    }
  }

  /// Advances time and refills.
  void advance(double seconds) {
    if (seconds < 0.0) throw std::invalid_argument("TokenBucket: time");
    tokens_ = std::min(burst_, tokens_ + rate_ * seconds);
  }

  /// Tries to send `megabits`; returns true (and consumes) if they fit.
  bool try_consume(double megabits) {
    if (megabits <= tokens_) {
      tokens_ -= megabits;
      return true;
    }
    return false;
  }

  /// Sends as much of `megabits` as the bucket allows; returns the admitted
  /// amount (partial shaping, what a policer's byte counter sees).
  double consume_up_to(double megabits) {
    const double admitted = std::min(megabits, tokens_);
    tokens_ -= admitted;
    return admitted;
  }

  void set_rate(double rate_mbps) {
    if (rate_mbps < 0.0) throw std::invalid_argument("TokenBucket: rate");
    rate_ = rate_mbps;
  }
  double rate() const { return rate_; }
  double tokens() const { return tokens_; }

 private:
  double rate_;
  double burst_;
  double tokens_;
};

/// Per-tenant request-rate limiter for the admission ingress (one token per
/// SubmitDemand). One TokenBucket per tenant, refilled lazily from the
/// caller-supplied clock, so the limiter itself is clockless and
/// deterministic under test. Single-threaded by design: the controller
/// calls it from the event-loop thread only.
class RequestRateLimiter {
 public:
  /// rate: requests/second granted to each tenant; burst: bucket depth
  /// (<= 0 defaults to max(rate, 1), i.e. roughly one second of headroom).
  explicit RequestRateLimiter(double rate_per_sec, double burst = 0.0)
      : rate_(rate_per_sec),
        burst_(burst > 0.0 ? burst : std::max(rate_per_sec, 1.0)) {
    if (rate_per_sec <= 0.0) {
      throw std::invalid_argument("RequestRateLimiter: rate");
    }
  }

  /// Charges one request to `tenant` at time `now_us` (monotonic). Returns
  /// 0 when the request may proceed, else the suggested backoff in
  /// milliseconds until a token will have refilled.
  double acquire(int tenant, std::int64_t now_us) {
    auto [it, fresh] =
        tenants_.try_emplace(tenant, State{TokenBucket(rate_, burst_), now_us});
    State& s = it->second;
    if (!fresh && now_us > s.last_us) {
      s.bucket.advance(static_cast<double>(now_us - s.last_us) * 1e-6);
      s.last_us = now_us;
    }
    if (s.bucket.try_consume(1.0)) return 0.0;
    return (1.0 - s.bucket.tokens()) / rate_ * 1e3;
  }

  double rate() const { return rate_; }
  double burst() const { return burst_; }
  std::size_t tenant_count() const { return tenants_.size(); }

 private:
  struct State {
    TokenBucket bucket;
    std::int64_t last_us;
  };
  double rate_;
  double burst_;
  std::map<int, State> tenants_;
};

/// The enforcer table a broker drives from AllocationUpdate messages: one
/// bucket per (demand, pair, tunnel).
class BandwidthEnforcer {
 public:
  /// Burst window in seconds of the enforced rate (bucket depth).
  explicit BandwidthEnforcer(double burst_seconds = 0.1)
      : burst_seconds_(burst_seconds) {}

  /// Installs/updates the per-tunnel rates for a (demand, pair). A tunnel
  /// whose rate is unchanged keeps its bucket and tokens, so re-sending the
  /// same table hands no tunnel a fresh burst; a new or changed rate starts
  /// a full bucket.
  void update(DemandId demand, int pair, const std::vector<double>& rates) {
    auto& buckets = table_[{demand, pair}];
    if (buckets.size() > rates.size()) {
      buckets.erase(buckets.begin() + static_cast<std::ptrdiff_t>(rates.size()),
                    buckets.end());
    }
    for (std::size_t t = 0; t < rates.size(); ++t) {
      if (t == buckets.size()) {
        buckets.push_back(bucket(rates[t]));
      } else if (buckets[t].rate() != rates[t]) {
        buckets[t] = bucket(rates[t]);
      }
    }
  }

  void remove(DemandId demand, int pair) { table_.erase({demand, pair}); }

  /// The enforced per-tunnel rates of a (demand, pair); empty when unknown.
  std::vector<double> rates(DemandId demand, int pair) const {
    std::vector<double> out;
    if (const auto it = table_.find({demand, pair}); it != table_.end()) {
      out.reserve(it->second.size());
      for (const TokenBucket& b : it->second) out.push_back(b.rate());
    }
    return out;
  }

  /// Advances every bucket by `seconds`.
  void advance(double seconds) {
    for (auto& [key, buckets] : table_) {
      for (TokenBucket& b : buckets) b.advance(seconds);
    }
  }

  /// Shapes an offered burst on one tunnel; returns the admitted megabits.
  /// Unknown rows are dropped entirely (no rule => no service).
  double shape(DemandId demand, int pair, std::size_t tunnel,
               double megabits) {
    const auto it = table_.find({demand, pair});
    if (it == table_.end() || tunnel >= it->second.size()) return 0.0;
    return it->second[tunnel].consume_up_to(megabits);
  }

  std::size_t row_count() const { return table_.size(); }

 private:
  TokenBucket bucket(double rate) const {
    return TokenBucket(rate, std::max(rate * burst_seconds_, 1e-3));
  }

  double burst_seconds_;
  std::map<std::pair<DemandId, int>, std::vector<TokenBucket>> table_;
};

}  // namespace bate
