// Tests for the token-bucket rate limiters (Sec 4): the broker's bandwidth
// enforcer and the controller's per-tenant request limiter at the admission
// ingress (DESIGN.md Sec 10).
#include <gtest/gtest.h>

#include <cstdint>

#include "system/rate_limiter.h"

namespace bate {
namespace {

TEST(TokenBucket, StartsFullAndRefills) {
  TokenBucket bucket(100.0, 10.0);
  EXPECT_DOUBLE_EQ(bucket.tokens(), 10.0);
  EXPECT_TRUE(bucket.try_consume(10.0));
  EXPECT_FALSE(bucket.try_consume(0.1));
  bucket.advance(0.05);  // 100 Mbps * 0.05 s = 5 Mb
  EXPECT_NEAR(bucket.tokens(), 5.0, 1e-12);
  EXPECT_TRUE(bucket.try_consume(5.0));
}

TEST(TokenBucket, RefillCapsAtBurst) {
  TokenBucket bucket(100.0, 10.0);
  bucket.advance(100.0);
  EXPECT_DOUBLE_EQ(bucket.tokens(), 10.0);
}

TEST(TokenBucket, SustainedRateIsClipped) {
  // Offer 200 Mbps against a 100 Mbps bucket for 10 seconds: admitted
  // volume must approach 100 Mbps * 10 s (+ the initial burst).
  TokenBucket bucket(100.0, 10.0);
  double admitted = 0.0;
  for (int tick = 0; tick < 100; ++tick) {
    bucket.advance(0.1);
    admitted += bucket.consume_up_to(20.0);  // 200 Mbps in 0.1 s slices
  }
  // Each 0.1 s tick refills at most 10 Mb (burst-capped), so the admitted
  // volume equals the enforced rate x time; the initial burst is absorbed
  // into the first tick's cap.
  EXPECT_NEAR(admitted, 100.0 * 10.0, 1.0);
}

TEST(TokenBucket, PartialShaping) {
  TokenBucket bucket(10.0, 2.0);
  EXPECT_DOUBLE_EQ(bucket.consume_up_to(5.0), 2.0);
  EXPECT_DOUBLE_EQ(bucket.consume_up_to(5.0), 0.0);
}

TEST(TokenBucket, RejectsBadArguments) {
  EXPECT_THROW(TokenBucket(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(1.0, 0.0), std::invalid_argument);
  TokenBucket bucket(1.0, 1.0);
  EXPECT_THROW(bucket.advance(-1.0), std::invalid_argument);
  EXPECT_THROW(bucket.set_rate(-2.0), std::invalid_argument);
}

TEST(RequestRateLimiter, BurstThenBackoffHint) {
  RequestRateLimiter limiter(10.0, 2.0);
  std::int64_t now = 1'000'000;
  EXPECT_DOUBLE_EQ(limiter.acquire(1, now), 0.0);
  EXPECT_DOUBLE_EQ(limiter.acquire(1, now), 0.0);
  // Bucket empty: one token at 10/s is 100 ms away.
  const double retry_ms = limiter.acquire(1, now);
  EXPECT_NEAR(retry_ms, 100.0, 1e-9);
  // Once the hinted backoff elapses the tenant is served again.
  now += static_cast<std::int64_t>(retry_ms * 1e3) + 1;
  EXPECT_DOUBLE_EQ(limiter.acquire(1, now), 0.0);
}

TEST(RequestRateLimiter, TenantsAreIsolated) {
  RequestRateLimiter limiter(1.0);  // burst defaults to max(rate, 1) = 1
  EXPECT_DOUBLE_EQ(limiter.acquire(1, 0), 0.0);
  EXPECT_GT(limiter.acquire(1, 0), 0.0);
  // A fresh tenant starts with its own full bucket, untouched by tenant 1's
  // exhaustion.
  EXPECT_DOUBLE_EQ(limiter.acquire(2, 0), 0.0);
  EXPECT_EQ(limiter.tenant_count(), 2u);
}

TEST(RequestRateLimiter, SustainedRateIsEnforced) {
  // One request per millisecond for a second against 100/s with a one-token
  // bucket: roughly the rate is granted (ten 0.1-token refills sum to just
  // under 1.0 in floating point, so a grant cycle can run one tick long —
  // the limiter clips a little early, never over).
  RequestRateLimiter limiter(100.0, 1.0);
  std::int64_t now = 0;
  int granted = 0;
  for (int i = 0; i < 1000; ++i) {
    if (limiter.acquire(7, now) == 0.0) ++granted;
    now += 1000;
  }
  EXPECT_GE(granted, 90);
  EXPECT_LE(granted, 101);
}

TEST(RequestRateLimiter, ClockMovingBackwardIsTolerated) {
  RequestRateLimiter limiter(10.0, 1.0);
  EXPECT_DOUBLE_EQ(limiter.acquire(1, 1'000'000), 0.0);
  // now < last seen: no refill, no crash — the bucket just stays drained.
  EXPECT_GT(limiter.acquire(1, 500'000), 0.0);
}

TEST(RequestRateLimiter, RejectsBadRate) {
  EXPECT_THROW(RequestRateLimiter(0.0), std::invalid_argument);
  EXPECT_THROW(RequestRateLimiter(-3.0, 1.0), std::invalid_argument);
}

TEST(BandwidthEnforcer, InstallsAndShapesPerTunnel) {
  BandwidthEnforcer enforcer(1.0);  // 1 s burst window
  enforcer.update(7, 2, {100.0, 50.0, 0.0});
  EXPECT_EQ(enforcer.row_count(), 1u);

  // Tunnel 0 admits up to its burst (100 Mb), tunnel 2 admits nothing.
  EXPECT_NEAR(enforcer.shape(7, 2, 0, 250.0), 100.0, 1e-9);
  EXPECT_NEAR(enforcer.shape(7, 2, 2, 10.0), 0.001, 1e-9);  // floor depth
  // Unknown rows drop everything.
  EXPECT_DOUBLE_EQ(enforcer.shape(9, 9, 0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(enforcer.shape(7, 2, 5, 10.0), 0.0);
}

TEST(BandwidthEnforcer, UpdateReplacesRates) {
  BandwidthEnforcer enforcer(1.0);
  enforcer.update(1, 0, {10.0});
  EXPECT_NEAR(enforcer.shape(1, 0, 0, 100.0), 10.0, 1e-9);
  enforcer.update(1, 0, {40.0});
  EXPECT_NEAR(enforcer.shape(1, 0, 0, 100.0), 40.0, 1e-9);
  enforcer.remove(1, 0);
  EXPECT_DOUBLE_EQ(enforcer.shape(1, 0, 0, 100.0), 0.0);
}

TEST(BandwidthEnforcer, IdenticalUpdateKeepsTokens) {
  // A rebroadcast of the same rates must not refill a drained bucket: at
  // one broadcast per 20 ms that refill would let a tunnel pass several
  // times its enforced rate.
  BandwidthEnforcer enforcer(0.1);
  enforcer.update(1, 0, {100.0, 50.0});
  EXPECT_NEAR(enforcer.shape(1, 0, 0, 1000.0), 10.0, 1e-9);
  enforcer.update(1, 0, {100.0, 50.0});
  EXPECT_DOUBLE_EQ(enforcer.shape(1, 0, 0, 1000.0), 0.0);
  // The untouched tunnel still holds its full burst.
  EXPECT_NEAR(enforcer.shape(1, 0, 1, 1000.0), 5.0, 1e-9);
  EXPECT_EQ(enforcer.rates(1, 0), (std::vector<double>{100.0, 50.0}));
}

TEST(BandwidthEnforcer, AdvanceRefillsEveryRow) {
  BandwidthEnforcer enforcer(0.1);
  enforcer.update(1, 0, {100.0});
  enforcer.update(2, 1, {200.0});
  EXPECT_NEAR(enforcer.shape(1, 0, 0, 1000.0), 10.0, 1e-9);   // burst
  EXPECT_NEAR(enforcer.shape(2, 1, 0, 1000.0), 20.0, 1e-9);
  enforcer.advance(0.05);
  EXPECT_NEAR(enforcer.shape(1, 0, 0, 1000.0), 5.0, 1e-9);
  EXPECT_NEAR(enforcer.shape(2, 1, 0, 1000.0), 10.0, 1e-9);
}

}  // namespace
}  // namespace bate
