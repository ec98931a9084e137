// Integration tests for the controller/broker system (Sec 4) over real
// loopback TCP: protocol round-trips, end-to-end demand submission with
// allocation broadcast, withdrawal, and failure reporting with backup
// activation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <variant>
#include <vector>

#include "net/framing.h"
#include "net/socket.h"
#include "obs/trace.h"
#include "system/broker.h"
#include "system/client.h"
#include "system/controller.h"
#include "system/protocol.h"
#include "topology/catalog.h"
#include "util/rng.h"

namespace bate {
namespace {

Demand make_demand(DemandId id, int pair, double mbps, double beta) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  d.availability_target = beta;
  d.charge = mbps;
  d.refund_fraction = 0.1;
  d.duration_minutes = 10.0;
  return d;
}

// Deadlines are deliberately generous: under parallel ctest with sanitizers
// the controller's scheduling round can stall for seconds at a time, and a
// wait that exits early on a passing condition costs nothing.
constexpr int kWaitMs = 30000;

bool wait_for(const std::function<bool()>& cond, int ms = kWaitMs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

/// Event-driven variant for conditions over broker state: re-evaluates
/// `cond` after each allocation update the broker receives (no fixed poll
/// interval, no missed-update race: the update count is sampled before the
/// condition, so an update landing in between wakes the next wait at once).
bool wait_for_broker(const Broker& broker, const std::function<bool()>& cond,
                     int ms = kWaitMs) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  for (;;) {
    const int seen = broker.updates_received();
    if (cond()) return true;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return cond();
    broker.wait_updates_past(seen, static_cast<int>(left.count()));
  }
}

TEST(Protocol, RoundTripsEveryMessageType) {
  Demand d = make_demand(7, 2, 123.5, 0.999);
  d.pairs.push_back({4, 55.0});
  d.arrival_minute = 3.25;

  const Message msgs[] = {
      HelloMsg{"broker", 3},
      SubmitDemandMsg{d, 42},
      AdmissionReplyMsg{42, 7, AdmissionStatus::kAdmitted, 0.0},
      AllocationUpdateMsg{7, 2, {10.0, 20.5, 0.0}, true},
      WithdrawDemandMsg{9},
      LinkStatusMsg{5, false},
      StatsRequestMsg{"json"},
      StatsReplyMsg{"prometheus", "# TYPE x counter\nx 1\n"},
      SloRequestMsg{"json", "ledger"},
      SloReplyMsg{"json", "{\"ledger\":{}}"},
  };
  for (const Message& msg : msgs) {
    const auto payload = encode_message(msg);
    const Message back = decode_message(payload);
    EXPECT_EQ(back.index(), msg.index());
  }

  const Message reply = decode_message(
      encode_message(StatsReplyMsg{"json", "{\"counters\":{}}"}));
  const auto& sr = std::get<StatsReplyMsg>(reply);
  EXPECT_EQ(sr.format, "json");
  EXPECT_EQ(sr.body, "{\"counters\":{}}");

  const Message back =
      decode_message(encode_message(SubmitDemandMsg{d, 9001}));
  const auto& sd = std::get<SubmitDemandMsg>(back);
  EXPECT_EQ(sd.request_id, 9001u);
  EXPECT_EQ(sd.demand.id, 7);
  ASSERT_EQ(sd.demand.pairs.size(), 2u);
  EXPECT_DOUBLE_EQ(sd.demand.pairs[0].mbps, 123.5);
  EXPECT_DOUBLE_EQ(sd.demand.availability_target, 0.999);
  EXPECT_DOUBLE_EQ(sd.demand.arrival_minute, 3.25);

  const Message shed = decode_message(encode_message(
      AdmissionReplyMsg{11, -1, AdmissionStatus::kShed, 12.5}));
  const auto& ar = std::get<AdmissionReplyMsg>(shed);
  EXPECT_EQ(ar.request_id, 11u);
  EXPECT_EQ(ar.id, -1);
  EXPECT_EQ(ar.status, AdmissionStatus::kShed);
  EXPECT_FALSE(ar.admitted());
  EXPECT_DOUBLE_EQ(ar.retry_after_ms, 12.5);

  const Message slo_req =
      decode_message(encode_message(SloRequestMsg{"json", "series"}));
  const auto& sq = std::get<SloRequestMsg>(slo_req);
  EXPECT_EQ(sq.format, "json");
  EXPECT_EQ(sq.selector, "series");
  const Message slo_rep = decode_message(
      encode_message(SloReplyMsg{"json", "{\"demands\":[{\"id\":7}]}"}));
  const auto& sp = std::get<SloReplyMsg>(slo_rep);
  EXPECT_EQ(sp.format, "json");
  EXPECT_EQ(sp.body, "{\"demands\":[{\"id\":7}]}");
}

TEST(Protocol, RejectsGarbage) {
  const std::uint8_t garbage[] = {0xFF, 0x01, 0x02};
  EXPECT_THROW(decode_message(garbage), std::invalid_argument);
  EXPECT_THROW(decode_message({}), std::out_of_range);
}

TEST(Protocol, AllocationUpdateBytesArePinned) {
  // The wire format, byte for byte: type, id, pair, rate count, rates as
  // little-endian IEEE doubles, backup flag.
  const std::vector<double> rates = {10.0, 0.5};
  std::vector<std::uint8_t> want = {4, 7, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0};
  for (const double r : rates) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &r, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      want.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
  want.push_back(1);
  EXPECT_EQ(encode_message(AllocationUpdateMsg{7, 2, rates, true}), want);
  std::vector<std::uint8_t> appended = {0xEE};
  append_allocation_update(appended, 7, 2, rates, true);
  want.insert(want.begin(), 0xEE);
  EXPECT_EQ(appended, want);
}

TEST(Protocol, AllocationRowsMatchPerRowEncoding) {
  // add_allocation_rows writes every payload in place behind its header;
  // the stream must equal the per-message path row by row.
  std::size_t table_rows = 0;
  std::size_t removal_rows = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    Rng rng(seed);
    std::vector<Demand> demands;
    std::vector<Allocation> table;
    const int n = rng.uniform_int(0, 12);
    for (int i = 0; i < n; ++i) {
      Demand d = make_demand(100 + i, 0, 10.0, 0.9);
      d.pairs.clear();
      Allocation alloc;
      const int pairs = rng.uniform_int(1, 3);
      for (int p = 0; p < pairs; ++p) {
        d.pairs.push_back({rng.uniform_int(0, 29), 10.0});
        std::vector<double> rates(
            static_cast<std::size_t>(rng.uniform_int(1, 5)));
        for (double& r : rates) {
          r = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 500.0);
        }
        alloc.push_back(std::move(rates));
      }
      demands.push_back(std::move(d));
      table.push_back(std::move(alloc));
    }
    std::vector<Demand> removed;
    for (int i = rng.uniform_int(0, 3); i > 0; --i) {
      Demand d = make_demand(900 + i, rng.uniform_int(0, 29), 5.0, 0.9);
      if (rng.bernoulli(0.5)) d.pairs.push_back({rng.uniform_int(0, 29), 5.0});
      removed.push_back(std::move(d));
    }
    for (const Demand& d : demands) table_rows += d.pairs.size();
    for (const Demand& d : removed) removal_rows += d.pairs.size();
    for (const bool backup : {false, true}) {
      for (const FrameContext ctx : {FrameContext{}, FrameContext{seed, 77}}) {
        std::vector<std::uint8_t> want;
        std::size_t rows = 0;
        const auto append = [&](const AllocationUpdateMsg& m) {
          const auto framed = encode_frame(encode_message(m), ctx);
          want.insert(want.end(), framed.begin(), framed.end());
          ++rows;
        };
        for (std::size_t i = 0; i < demands.size(); ++i) {
          for (std::size_t p = 0; p < demands[i].pairs.size(); ++p) {
            append({demands[i].id, demands[i].pairs[p].pair, table[i][p],
                    backup});
          }
        }
        for (const Demand& d : removed) {
          for (const PairDemand& pd : d.pairs) {
            append({d.id, pd.pair, {}, backup});
          }
        }
        FrameBatch batch;
        add_allocation_rows(batch, demands, table, removed, backup, ctx);
        EXPECT_EQ(batch.bytes(), want)
            << "seed " << seed << " backup " << backup << " traced "
            << ctx.valid();
        EXPECT_EQ(batch.frame_count(), rows);
      }
    }
  }
  // The seeds cover both kinds of row.
  EXPECT_GT(table_rows, 0u);
  EXPECT_GT(removal_rows, 0u);
}

struct SystemFixture : ::testing::Test {
  Topology topo = testbed6();
  TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);
  std::unique_ptr<Controller> controller;

  void SetUp() override {
    controller = std::make_unique<Controller>(topo, catalog,
                                              SchedulerConfig{},
                                              AdmissionStrategy::kBate);
    controller->start();
  }
  void TearDown() override { controller->stop(); }
};

TEST_F(SystemFixture, SubmitAdmitAndEnforce) {
  Broker broker(0, controller->port());
  broker.start();

  UserClient user(controller->port());
  const Demand d = make_demand(1, 0, 200.0, 0.99);
  EXPECT_TRUE(user.submit(d));

  // The broker must receive the allocation for (demand 1, pair 0) summing
  // to the demanded 200 Mbps.
  EXPECT_TRUE(wait_for_broker(broker, [&] {
    return std::abs(broker.enforced_total(1, 0) - 200.0) < 1.0;
  })) << "enforced " << broker.enforced_total(1, 0);

  // The broker can observe the update (and wake this thread) before the
  // controller thread books it into stats, so the counter gets its own wait.
  EXPECT_TRUE(
      wait_for([&] { return controller->stats().allocation_updates_sent > 0; }));
  const auto stats = controller->stats();
  EXPECT_EQ(stats.demands_offered, 1);
  EXPECT_EQ(stats.demands_admitted, 1);
  broker.stop();
}

TEST_F(SystemFixture, RejectsOversizedDemand) {
  UserClient user(controller->port());
  EXPECT_FALSE(user.submit(make_demand(2, 0, 50000.0, 0.9)));
  const auto stats = controller->stats();
  EXPECT_EQ(stats.demands_admitted, 0);
}

TEST_F(SystemFixture, WithdrawFreesCapacity) {
  Broker b0(0, controller->port());
  Broker b1(1, controller->port());
  b0.start();
  b1.start();
  UserClient user(controller->port());
  // Saturate the DC1 egress.
  EXPECT_TRUE(user.submit(make_demand(1, 0, 900.0, 0.0)));
  EXPECT_TRUE(user.submit(make_demand(2, 1, 900.0, 0.0)));
  EXPECT_TRUE(user.submit(make_demand(3, 2, 900.0, 0.0)));
  EXPECT_FALSE(user.submit(make_demand(4, 0, 900.0, 0.0)));
  for (const Broker* b : {&b0, &b1}) {
    ASSERT_TRUE(wait_for_broker(
        *b, [&] { return b->enforced_total(1, 0) > 0.0; }))
        << "broker " << b->dc();
  }
  // Withdraw one: every broker stops enforcing it.
  user.withdraw(1);
  for (const Broker* b : {&b0, &b1}) {
    EXPECT_TRUE(wait_for_broker(
        *b, [&] { return b->enforced_rates(1, 0).empty(); }))
        << "broker " << b->dc() << " still enforces "
        << b->enforced_total(1, 0);
  }
  // The freed capacity admits a retry.
  EXPECT_TRUE(wait_for([&] {
    UserClient probe(controller->port());
    return probe.submit(make_demand(5, 0, 900.0, 0.0));
  }));
  b0.stop();
  b1.stop();
}

TEST_F(SystemFixture, WithdrawOfUnknownIdSendsNothing) {
  Broker broker(0, controller->port());
  broker.start();
  UserClient user(controller->port());
  ASSERT_TRUE(user.submit(make_demand(1, 0, 100.0, 0.9)));
  user.stats();  // ordered after the submit's broadcast on this connection
  ASSERT_TRUE(wait_for([&] {
    return broker.updates_received() ==
           controller->stats().allocation_updates_sent;
  }));
  const int sent = controller->stats().allocation_updates_sent;
  ASSERT_GT(sent, 0);

  // Neither admitted nor queued: no scheduling round, no broadcast.
  user.withdraw(999);
  user.stats();
  EXPECT_EQ(controller->stats().allocation_updates_sent, sent);
  EXPECT_GT(broker.enforced_total(1, 0), 0.0);
  broker.stop();
}

TEST_F(SystemFixture, LinkFailureActivatesBackup) {
  Broker broker(0, controller->port());
  broker.start();
  UserClient user(controller->port());

  ASSERT_TRUE(user.submit(make_demand(1, 0, 300.0, 0.99)));
  ASSERT_TRUE(wait_for_broker(
      broker, [&] { return broker.enforced_total(1, 0) > 0.0; }));

  // Find a link the allocation uses and report it down.
  const auto rates = broker.enforced_rates(1, 0);
  const auto& tunnels = catalog.tunnels(0);
  LinkId used = -1;
  for (std::size_t t = 0; t < rates.size(); ++t) {
    if (rates[t] > 1.0) {
      used = tunnels[t].links.front();
      break;
    }
  }
  ASSERT_NE(used, -1);

  broker.report_link(used, false);
  EXPECT_TRUE(wait_for_broker(broker, [&] { return broker.backup_active(); }));
  const auto stats = controller->stats();
  EXPECT_EQ(stats.link_failures_handled, 1);

  // Repair: normal allocations are re-broadcast.
  broker.report_link(used, true);
  EXPECT_TRUE(
      wait_for_broker(broker, [&] { return !broker.backup_active(); }));
  broker.stop();
}

TEST_F(SystemFixture, EnforcerShapesToUpdatedRates) {
  Broker broker(0, controller->port());
  broker.start();
  UserClient user(controller->port());
  ASSERT_TRUE(user.submit(make_demand(1, 0, 200.0, 0.99)));
  ASSERT_TRUE(wait_for_broker(
      broker, [&] { return broker.enforced_total(1, 0) > 150.0; }));

  // Find the loaded tunnel and hammer it: the admitted volume over one
  // second must approximate the enforced rate.
  const auto rates = broker.enforced_rates(1, 0);
  std::size_t tunnel = 0;
  for (std::size_t t = 0; t < rates.size(); ++t) {
    if (rates[t] > 1.0) tunnel = t;
  }
  double admitted = 0.0;
  for (int tick = 0; tick < 10; ++tick) {
    broker.advance_enforcer(0.1);
    admitted += broker.shape(1, 0, tunnel, 1000.0);
  }
  EXPECT_NEAR(admitted, rates[tunnel], rates[tunnel] * 0.25);
  // Unknown rows drop everything.
  EXPECT_DOUBLE_EQ(broker.shape(42, 0, 0, 10.0), 0.0);
  broker.stop();
}

TEST_F(SystemFixture, RebroadcastGrantsNoFreshBurst) {
  Broker broker(0, controller->port());
  broker.start();
  UserClient user(controller->port());
  ASSERT_TRUE(user.submit(make_demand(1, 0, 200.0, 0.99)));
  ASSERT_TRUE(wait_for_broker(
      broker, [&] { return broker.enforced_total(1, 0) > 150.0; }));

  const auto rates = broker.enforced_rates(1, 0);
  const auto& tunnels = catalog.tunnels(0);
  std::size_t tunnel = 0;
  std::set<LinkId> used;
  for (std::size_t t = 0; t < rates.size() && t < tunnels.size(); ++t) {
    if (rates[t] > 1.0) tunnel = t;
    if (rates[t] > 0.0) {
      used.insert(tunnels[t].links.begin(), tunnels[t].links.end());
    }
  }
  // Reports on a link no loaded tunnel crosses re-send the same row
  // (flagged backup while it is down) and move no rate.
  LinkId idle = -1;
  for (LinkId e = 0; e < topo.link_count() && idle < 0; ++e) {
    if (used.count(e) == 0) idle = e;
  }
  ASSERT_GE(idle, 0);

  // The sender offers more than the rate all the time, so it also sends
  // right after each broadcast lands: a broadcast that refilled the bucket
  // would pass a second burst per tick.
  double admitted = 0.0;
  for (int tick = 0; tick < 10; ++tick) {
    broker.advance_enforcer(0.1);
    admitted += broker.shape(1, 0, tunnel, 1000.0);
    const int seen = broker.updates_received();
    broker.report_link(idle, /*up=*/tick % 2 != 0);
    ASSERT_TRUE(wait_for_broker(
        broker, [&] { return broker.updates_received() > seen; }));
    ASSERT_EQ(broker.enforced_rates(1, 0), rates);
    admitted += broker.shape(1, 0, tunnel, 1000.0);
  }
  EXPECT_NEAR(admitted, rates[tunnel], rates[tunnel] * 0.25);
  broker.stop();
}

TEST_F(SystemFixture, StatsRequestReturnsRegistrySnapshot) {
  // Scrape over TCP while a broker is connected: the reply must carry the
  // solver, scheduler, and net-layer metrics populated by the admitted
  // demand's scheduling round.
  Broker broker(0, controller->port());
  broker.start();
  UserClient user(controller->port());
  ASSERT_TRUE(user.submit(make_demand(1, 0, 200.0, 0.99)));
  ASSERT_TRUE(wait_for_broker(
      broker, [&] { return broker.enforced_total(1, 0) > 0.0; }));

  const std::string prom = user.stats();
  EXPECT_NE(prom.find("bate_solver_solves_total"), std::string::npos) << prom;
  EXPECT_NE(prom.find("bate_scheduler_rounds_total"), std::string::npos);
  EXPECT_NE(prom.find("bate_controller_frames_in_total"), std::string::npos);
  EXPECT_NE(prom.find("bate_controller_demands_offered_total"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE bate_solver_solve_us histogram"),
            std::string::npos);
  // Admission-pipeline metrics (DESIGN.md Sec 10) ride the same scrape.
  EXPECT_NE(prom.find("bate_admission_shed_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE bate_admission_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE bate_admission_batch_size histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE bate_admission_reply_latency_us histogram"),
            std::string::npos);

  const std::string json = user.stats("json");
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("bate_scheduler_rounds_total"), std::string::npos);
  broker.stop();
}

TEST_F(SystemFixture, SurvivesMalformedPeers) {
  // A peer that speaks garbage must not take the controller down.
  {
    Socket rogue = connect_tcp(controller->port());
    const std::uint8_t junk[] = {0xFF, 0xFE, 0x01, 0x02, 0x03};
    rogue.write_all(encode_frame(junk));
    // Unframed noise too.
    const std::uint8_t noise[] = {0x00, 0x01};
    rogue.write_all(noise);
  }  // rogue disconnects
  {
    // A length word beyond kMaxFrameBytes leaves no frame boundary to
    // resume at: the controller drops the peer (its side reads EOF).
    Socket rogue = connect_tcp(controller->port());
    const std::uint8_t oversized[] = {0x00, 0x00, 0x00, 0x40};
    rogue.write_all(oversized);
    rogue.set_nonblocking(true);
    std::array<std::uint8_t, 16> buf{};
    EXPECT_TRUE(wait_for([&] {
      try {
        return rogue.read_some(buf) == 0;
      } catch (const std::system_error&) {
        return true;  // reset: dropped as well
      }
    }));
  }
  // Demands admission cannot serve are rejected at ingress: an unknown
  // pair, a NaN bandwidth, beta above 1, no pairs, and more tunnels than
  // one joint pattern distribution covers.
  std::vector<Demand> invalid = {
      make_demand(11, catalog.pair_count(), 100.0, 0.9),
      make_demand(12, 0, std::nan(""), 0.9), make_demand(13, 0, 100.0, 1.5),
      make_demand(14, 0, 100.0, 0.9), make_demand(15, 0, 10.0, 0.9)};
  invalid[3].pairs.clear();
  std::size_t tunnels = catalog.tunnels(0).size();
  for (int k = 1; tunnels <= std::size_t{kMaxPatternTunnels}; ++k) {
    invalid[4].pairs.push_back({k, 10.0});
    tunnels += catalog.tunnels(k).size();
  }
  UserClient user(controller->port());
  for (const Demand& d : invalid) {
    user.submit_async(d);
    const UserClient::Reply reply = user.wait_reply();
    EXPECT_EQ(reply.id, d.id);
    EXPECT_EQ(reply.status, AdmissionStatus::kRejected);
  }
  EXPECT_EQ(controller->stats().demands_invalid, 5);
  // Regular service continues.
  EXPECT_TRUE(user.submit(make_demand(1, 0, 100.0, 0.95)));
}

TEST(SystemBroker, OversizedFrameEndsTheReceiveLoopNotTheProcess) {
  // A raw listener plays the controller.
  TcpListener listener(0);
  Broker broker(0, listener.port());
  broker.start();
  std::optional<Socket> conn = listener.accept();
  ASSERT_TRUE(conn.has_value());
  const auto update = [](DemandId id) {
    return encode_frame(
        encode_message(AllocationUpdateMsg{id, 0, {10.0, 0.0}, false}));
  };
  conn->write_all(update(1));
  EXPECT_TRUE(wait_for_broker(
      broker, [&] { return broker.enforced_total(1, 0) > 0.0; }));
  std::vector<std::uint8_t> bytes = {0x00, 0x00, 0x00, 0x40};
  const auto after = update(2);
  bytes.insert(bytes.end(), after.begin(), after.end());
  conn->write_all(bytes);
  // Nothing behind the bad length word is applied; stop() still joins.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(broker.enforced_total(2, 0), 0.0);
  EXPECT_GT(broker.enforced_total(1, 0), 0.0);
  broker.stop();
}

TEST_F(SystemFixture, DropsLinkReportsOutsideTheTopology) {
  // A peer's link id indexes the controller's per-link tables.
  Broker broker(0, controller->port());
  broker.start();
  broker.report_link(-1, false);
  broker.report_link(topo.link_count(), false);
  UserClient user(controller->port());
  EXPECT_TRUE(user.submit(make_demand(1, 0, 100.0, 0.95)));
  EXPECT_TRUE(wait_for_broker(
      broker, [&] { return broker.enforced_total(1, 0) > 0.0; }));
  EXPECT_FALSE(broker.backup_active());
  EXPECT_EQ(controller->stats().link_failures_handled, 0);
  broker.stop();
}

TEST_F(SystemFixture, PipelinedSubmitManyIndexesVerdicts) {
  // Many in-flight requests on one connection: every verdict must land at
  // the slot of the demand that caused it, regardless of how the controller
  // groups the queue into batches.
  UserClient user(controller->port(), /*tenant=*/7);
  std::vector<Demand> demands;
  for (int i = 0; i < 48; ++i) {
    demands.push_back(make_demand(i + 1, i % catalog.pair_count(), 1.0, 0.0));
  }
  const auto replies = user.submit_many(demands, /*window=*/16);
  ASSERT_EQ(replies.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_EQ(replies[i].id, demands[i].id);
    EXPECT_NE(replies[i].request_id, 0u);
    EXPECT_TRUE(replies[i].admitted()) << "demand " << demands[i].id;
  }
  EXPECT_TRUE(
      wait_for([&] { return controller->stats().demands_offered == 48; }));
  EXPECT_EQ(controller->stats().demands_admitted, 48);
}

TEST_F(SystemFixture, OutOfOrderReplyConsumption) {
  UserClient user(controller->port());
  const std::uint64_t r1 = user.submit_async(make_demand(1, 0, 50.0, 0.9));
  const std::uint64_t r2 = user.submit_async(make_demand(2, 1, 50.0, 0.9));
  // Consume in reverse submission order: wait_reply_for must buffer the
  // stray r1 reply while hunting for r2, then hand it back afterwards.
  const UserClient::Reply second = user.wait_reply_for(r2);
  const UserClient::Reply first = user.wait_reply_for(r1);
  EXPECT_EQ(second.request_id, r2);
  EXPECT_EQ(second.id, 2);
  EXPECT_TRUE(second.admitted());
  EXPECT_EQ(first.request_id, r1);
  EXPECT_EQ(first.id, 1);
  EXPECT_TRUE(first.admitted());
}

/// Reads framed messages off a raw socket until `n` admission replies have
/// arrived (helper for hand-rolled protocol exchanges).
std::vector<AdmissionReplyMsg> read_replies(Socket& sock, std::size_t n) {
  std::vector<AdmissionReplyMsg> out;
  FrameReader reader;
  std::array<std::uint8_t, 4096> buf{};
  while (out.size() < n) {
    if (auto frame = reader.next()) {
      const Message msg = decode_message(*frame);
      if (const auto* reply = std::get_if<AdmissionReplyMsg>(&msg)) {
        out.push_back(*reply);
      }
      continue;
    }
    const long r = sock.read_some(buf);
    if (r == 0) break;
    if (r > 0) reader.feed({buf.data(), static_cast<std::size_t>(r)});
  }
  return out;
}

TEST_F(SystemFixture, DuplicateRequestIdGetsOneVerdict) {
  Socket raw = connect_tcp(controller->port());
  raw.write_all(encode_frame(encode_message(HelloMsg{"user", 9})));
  // Two submits sharing request_id 77 in one segment, so both decode in the
  // same readable callback: the second must bounce as kDuplicate while the
  // first is still queued.
  FrameBatch batch;
  batch.add(encode_message(SubmitDemandMsg{make_demand(1, 0, 10.0, 0.0), 77}));
  batch.add(encode_message(SubmitDemandMsg{make_demand(2, 1, 10.0, 0.0), 77}));
  raw.write_all(batch.bytes());

  const auto replies = read_replies(raw, 2);
  ASSERT_EQ(replies.size(), 2u);
  int duplicates = 0;
  int admitted = 0;
  for (const auto& r : replies) {
    EXPECT_EQ(r.request_id, 77u);
    if (r.status == AdmissionStatus::kDuplicate) {
      ++duplicates;
      EXPECT_EQ(r.id, 2);
    } else if (r.status == AdmissionStatus::kAdmitted) {
      ++admitted;
      EXPECT_EQ(r.id, 1);
    }
  }
  EXPECT_EQ(duplicates, 1);
  EXPECT_EQ(admitted, 1);
}

TEST_F(SystemFixture, QueueOverflowShedsWithRetryHint) {
  // A 2-deep queue against a 256-frame pipelined burst: whatever one epoll
  // round delivers beyond the cap must bounce as kShed carrying a positive
  // retry hint — and the shed verdicts must reach the right slots while
  // their queued neighbours still get admitted.
  ControllerConfig cfg;
  cfg.max_queue = 2;
  Controller small(topo, catalog, SchedulerConfig{}, AdmissionStrategy::kBate,
                   cfg);
  small.start();
  int shed = 0;
  int admitted = 0;
  // A burst can in principle dribble in 2 frames per drain; retry with a
  // fresh burst until one overflows (the first virtually always does).
  for (int round = 0; round < 5 && shed == 0; ++round) {
    std::vector<Demand> burst;
    for (int i = 0; i < 256; ++i) {
      burst.push_back(make_demand(round * 1000 + i + 1,
                                  i % catalog.pair_count(), 0.01, 0.0));
    }
    UserClient user(small.port(), /*tenant=*/1);
    for (const auto& r : user.submit_many(burst, /*window=*/256)) {
      if (r.status == AdmissionStatus::kShed) {
        ++shed;
        EXPECT_GT(r.retry_after_ms, 0.0);
      } else if (r.admitted()) {
        ++admitted;
      }
    }
  }
  EXPECT_GT(shed, 0) << "no burst overflowed a 2-deep queue";
  EXPECT_GT(admitted, 0);
  EXPECT_EQ(small.stats().demands_shed, shed);
  small.stop();
}

TEST_F(SystemFixture, TenantRateLimitSheds) {
  // 0.1 req/s with burst 2: of a 10-request burst exactly the burst depth
  // passes (the next token is 10 wall-clock seconds away, beyond any test
  // timing wobble) and the rest shed with the limiter's backoff hint.
  ControllerConfig cfg;
  cfg.tenant_rate_per_sec = 0.1;
  cfg.tenant_burst = 2.0;
  Controller limited(topo, catalog, SchedulerConfig{}, AdmissionStrategy::kBate,
                     cfg);
  limited.start();
  UserClient user(limited.port(), /*tenant=*/5);
  std::vector<Demand> burst;
  for (int i = 0; i < 10; ++i) {
    burst.push_back(make_demand(i + 1, i % catalog.pair_count(), 0.01, 0.0));
  }
  int shed = 0;
  int admitted = 0;
  for (const auto& r : user.submit_many(burst)) {
    if (r.status == AdmissionStatus::kShed) {
      ++shed;
      EXPECT_GT(r.retry_after_ms, 0.0);
    } else if (r.admitted()) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(shed, 8);
  limited.stop();
}

TEST_F(SystemFixture, BrokerReportRateLimitClipsFlapping) {
  Broker broker(0, controller->port(), /*report_rate_per_sec=*/5.0,
                /*report_burst=*/2.0);
  broker.start();
  for (int i = 0; i < 50; ++i) broker.report_link(0, i % 2 == 0);
  EXPECT_GT(broker.reports_dropped(), 0);
  // The clipped flap storm must not wedge the control channel.
  UserClient user(controller->port());
  EXPECT_TRUE(user.submit(make_demand(1, 0, 50.0, 0.9)));
  broker.stop();
}

TEST_F(SystemFixture, MultipleBrokersReceiveUpdates) {
  Broker b1(0, controller->port());
  Broker b2(3, controller->port());
  b1.start();
  b2.start();
  UserClient user(controller->port());
  ASSERT_TRUE(user.submit(make_demand(1, 5, 150.0, 0.95)));
  EXPECT_TRUE(wait_for_broker(
      b1, [&] { return b1.enforced_total(1, 5) > 100.0; }));
  EXPECT_TRUE(wait_for_broker(
      b2, [&] { return b2.enforced_total(1, 5) > 100.0; }));
  b1.stop();
  b2.stop();
}

// Brokers must never enforce a positive rate on a tunnel that crosses a link
// currently reported down, however failures overlap and whatever else
// happens meanwhile. The probe: six 150 Mbps, beta 0.99 demands on
// testbed6, two brokers, broker 0 reporting the links.
class SystemFailureProbe : public ::testing::Test {
 protected:
  Topology topo = testbed6();
  TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);
  std::unique_ptr<Controller> controller;
  std::vector<std::unique_ptr<Broker>> brokers;
  std::unique_ptr<UserClient> user;
  std::vector<Demand> live;
  std::set<LinkId> down;
  /// Every event that left a rate across a down link, with its count.
  std::string violations;

  void start(bool reschedule_after_batch) {
    ControllerConfig cfg;
    cfg.reschedule_after_batch = reschedule_after_batch;
    controller = std::make_unique<Controller>(
        topo, catalog, SchedulerConfig{}, AdmissionStrategy::kBate, cfg);
    controller->start();
    add_broker(0);
    add_broker(3);
    user = std::make_unique<UserClient>(controller->port());
    for (int i = 0; i < 6; ++i) admit(make_demand(i + 1, i, 150.0, 0.99));
  }
  void TearDown() override {
    for (auto& b : brokers) b->stop();
    if (controller) controller->stop();
  }

  void add_broker(int dc) {
    brokers.push_back(std::make_unique<Broker>(dc, controller->port()));
    brokers.back()->start();
  }
  void admit(const Demand& d) {
    ASSERT_TRUE(user->submit(d));
    live.push_back(d);
    settle();
  }
  void withdraw(DemandId id) {
    user->withdraw(id);
    std::erase_if(live, [&](const Demand& d) { return d.id == id; });
    settle();
  }
  /// Broker 0 reports `link`; both brokers get one row per live pair.
  void report(LinkId link, bool up) {
    std::vector<int> base;
    for (const auto& b : brokers) base.push_back(b->updates_received());
    brokers[0]->report_link(link, up);
    for (std::size_t i = 0; i < brokers.size(); ++i) {
      const Broker& b = *brokers[i];
      ASSERT_TRUE(wait_for_broker(b, [&] {
        return b.updates_received() >=
               base[i] + static_cast<int>(live.size());
      }));
    }
    if (up) {
      down.erase(link);
    } else {
      down.insert(link);
    }
    settle();
  }
  /// Returns once the controller handled everything the user sent and
  /// every broker applied every update the controller sent.
  void settle() {
    user->stats();
    ASSERT_TRUE(wait_for([&] {
      int received = 0;
      for (const auto& b : brokers) received += b->updates_received();
      return received == controller->stats().allocation_updates_sent;
    }));
  }

  /// Links any live demand's enforced rates cross at broker 0.
  std::vector<LinkId> loaded_links() const {
    std::set<LinkId> links;
    for (const Demand& d : live) {
      const auto rates = brokers[0]->enforced_rates(d.id, d.pairs[0].pair);
      const auto& tunnels = catalog.tunnels(d.pairs[0].pair);
      for (std::size_t t = 0; t < rates.size() && t < tunnels.size(); ++t) {
        if (rates[t] > 1e-9) {
          links.insert(tunnels[t].links.begin(), tunnels[t].links.end());
        }
      }
    }
    return {links.begin(), links.end()};
  }
  /// Records positive rates any broker enforces across a down link.
  void check(const std::string& event) {
    int n = 0;
    for (const auto& b : brokers) {
      for (const Demand& d : live) {
        const auto rates = b->enforced_rates(d.id, d.pairs[0].pair);
        const auto& tunnels = catalog.tunnels(d.pairs[0].pair);
        for (std::size_t t = 0; t < rates.size() && t < tunnels.size(); ++t) {
          const bool crosses = std::any_of(
              down.begin(), down.end(),
              [&](LinkId e) { return tunnels[t].uses(e); });
          if (crosses && rates[t] > 1e-9) ++n;
        }
      }
    }
    if (n > 0) violations += event + ": " + std::to_string(n) + "\n";
  }
};

TEST_F(SystemFailureProbe, OverlappingFailuresEnforceNothingAcrossDownLinks) {
  start(/*reschedule_after_batch=*/true);
  const std::vector<LinkId> loaded = loaded_links();
  ASSERT_GE(loaded.size(), 2u);
  for (const LinkId a : loaded) {
    for (const LinkId b : loaded) {
      if (a == b) continue;
      const std::string pair =
          std::to_string(a) + "," + std::to_string(b) + ": ";
      report(a, false);
      check(pair + "A down");
      report(b, false);
      check(pair + "B down");
      report(b, true);
      check(pair + "B up");
      report(a, true);
      check(pair + "A up");
    }
  }
  EXPECT_TRUE(violations.empty()) << violations;
}

// Admission (with and without a reschedule after the batch), withdraw and a
// broker joining, each during a single-link failure.
class SystemFailureChurn : public SystemFailureProbe,
                           public ::testing::WithParamInterface<bool> {};

TEST_P(SystemFailureChurn, EnforcesNothingAcrossTheDownLink) {
  start(/*reschedule_after_batch=*/GetParam());
  for (const LinkId a : loaded_links()) {
    const std::string link = std::to_string(a) + ": ";
    report(a, false);
    check(link + "down");
    admit(make_demand(100 + a, 6, 10.0, 0.99));
    check(link + "admit");
    withdraw(100 + a);
    check(link + "withdraw");
    add_broker(5);
    ASSERT_TRUE(wait_for_broker(*brokers.back(), [&] {
      return brokers.back()->updates_received() ==
             static_cast<int>(live.size());
    }));
    settle();
    check(link + "broker join");
    report(a, true);
  }
  EXPECT_TRUE(violations.empty()) << violations;
}

std::string churn_config(const ::testing::TestParamInfo<bool>& param) {
  return param.param ? "RescheduleAfterBatch" : "DeltaBroadcast";
}

INSTANTIATE_TEST_SUITE_P(Config, SystemFailureChurn, ::testing::Bool(),
                         churn_config);

/// Minimal view of one exported trace event, scraped out of the Chrome
/// trace JSON (the only cross-ring export the Tracer offers).
struct ParsedSpan {
  std::string name;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
};

std::vector<ParsedSpan> parse_spans(const std::string& json) {
  std::vector<ParsedSpan> out;
  const std::string name_key = "{\"name\":\"";
  const std::string args_key = "\"args\":{\"trace\":";
  std::size_t pos = 0;
  while ((pos = json.find(name_key, pos)) != std::string::npos) {
    ParsedSpan ev;
    const std::size_t name_begin = pos + name_key.size();
    const std::size_t name_end = json.find('"', name_begin);
    if (name_end == std::string::npos) break;
    ev.name = json.substr(name_begin, name_end - name_begin);
    const std::size_t next = json.find(name_key, pos + 1);
    const std::size_t args = json.find(args_key, pos);
    if (args != std::string::npos &&
        (next == std::string::npos || args < next)) {
      unsigned long long trace = 0;
      unsigned long long span = 0;
      unsigned long long parent = 0;
      if (std::sscanf(json.c_str() + args,
                      "\"args\":{\"trace\":%llu,\"span\":%llu,\"parent\":%llu",
                      &trace, &span, &parent) == 3) {
        ev.trace = trace;
        ev.span = span;
        ev.parent = parent;
      }
    }
    out.push_back(std::move(ev));
    pos = name_end;
  }
  return out;
}

const ParsedSpan* find_span(const std::vector<ParsedSpan>& spans,
                            const std::string& name, std::uint64_t trace) {
  for (const ParsedSpan& s : spans) {
    if (s.name == name && s.trace == trace) return &s;
  }
  return nullptr;
}

TEST_F(SystemFixture, TraceSpansChainAcrossAllSixStages) {
  // One SubmitDemand must render as ONE trace across client submit ->
  // controller queue wait -> batch admission -> admission offer ->
  // scheduling round -> broadcast -> broker apply, stitched through the
  // frame-header trace context (DESIGN.md Sec 9.6). No backup plan is
  // computed ahead: recovery runs only when a link report leaves a loaded
  // link down.
  obs::Tracer::global().clear();
  Broker broker(1, controller->port());
  broker.start();
  UserClient user(controller->port());
  ASSERT_TRUE(user.submit(make_demand(1, 0, 150.0, 0.99)));
  ASSERT_TRUE(wait_for_broker(
      broker, [&] { return broker.enforced_total(1, 0) > 0.0; }));

  // The root client.submit span lives in THIS thread's ring.
  std::uint64_t trace_id = 0;
  std::uint64_t submit_span = 0;
  for (const auto& e : obs::Tracer::global().thread_ring().events()) {
    if (std::string(e.name) == "client.submit") {
      trace_id = e.trace_id;
      submit_span = e.span_id;
      EXPECT_EQ(e.parent_id, 0u) << "client.submit must root the trace";
    }
  }
  ASSERT_NE(trace_id, 0u);
  ASSERT_NE(submit_span, 0u);

  // The controller/broker-side spans close on their own threads; wait for
  // the full chain to appear in the global export.
  std::vector<ParsedSpan> spans;
  const char* kStages[] = {"controller.queue_wait",
                           "controller.batch_admission",
                           "admission.offer_batch",
                           "scheduler.schedule",
                           "controller.broadcast",
                           "broker.apply"};
  ASSERT_TRUE(wait_for([&] {
    spans = parse_spans(obs::Tracer::global().chrome_json());
    for (const char* stage : kStages) {
      if (find_span(spans, stage, trace_id) == nullptr) return false;
    }
    return true;
  })) << obs::Tracer::global().chrome_json();

  const ParsedSpan* queue_wait =
      find_span(spans, "controller.queue_wait", trace_id);
  const ParsedSpan* batch =
      find_span(spans, "controller.batch_admission", trace_id);
  const ParsedSpan* offer = find_span(spans, "admission.offer_batch", trace_id);
  const ParsedSpan* schedule =
      find_span(spans, "scheduler.schedule", trace_id);
  const ParsedSpan* broadcast =
      find_span(spans, "controller.broadcast", trace_id);
  const ParsedSpan* apply = find_span(spans, "broker.apply", trace_id);
  ASSERT_TRUE(queue_wait && batch && offer && schedule && broadcast && apply);
  EXPECT_EQ(find_span(spans, "recovery.precompute", trace_id), nullptr);

  // Parentage: submit -> queue_wait -> batch_admission -> offer_batch;
  // broadcast hangs off the batch span and the broker's apply span parents
  // under the broadcast context that rode the allocation frames.
  EXPECT_EQ(queue_wait->parent, submit_span);
  EXPECT_EQ(batch->parent, queue_wait->span);
  EXPECT_EQ(offer->parent, batch->span);
  EXPECT_EQ(broadcast->parent, batch->span);
  EXPECT_EQ(apply->parent, broadcast->span);
  // The scheduling round runs inside the batch (directly, or from the
  // post-batch reschedule), so it must chain under one of those two spans.
  EXPECT_TRUE(schedule->parent == batch->span ||
              schedule->parent == offer->span)
      << "scheduler.schedule parent " << schedule->parent;
  broker.stop();
}

/// Extracts the first top-level "availability" number from a ledger row
/// ("min_availability" never matches: the key is quoted in full).
double availability_of(const std::string& slo_json) {
  const std::string key = "\"availability\":";
  const std::size_t pos = slo_json.find(key);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(slo_json.c_str() + pos + key.size(), nullptr);
}

TEST_F(SystemFixture, SloLedgerTracksLinkFlapOverRpc) {
  Broker broker(0, controller->port());
  broker.start();
  UserClient user(controller->port());
  ASSERT_TRUE(user.submit(make_demand(1, 0, 300.0, 0.99)));
  ASSERT_TRUE(wait_for_broker(
      broker, [&] { return broker.enforced_total(1, 0) > 0.0; }));

  // Freshly admitted and allocated: a full error budget.
  std::string payload = user.slo("ledger");
  EXPECT_NE(payload.find("\"id\":1"), std::string::npos) << payload;
  EXPECT_NE(payload.find("\"state\":\"allocated\""), std::string::npos);
  EXPECT_DOUBLE_EQ(availability_of(payload), 1.0);

  // Kill every link any tunnel of pair 0 crosses: the backup planner has
  // nowhere to route, so the demand MUST degrade (a single-link failure is
  // healed by the backup plan and never eats budget).
  std::set<LinkId> links;
  for (const Tunnel& t : catalog.tunnels(0)) {
    links.insert(t.links.begin(), t.links.end());
  }
  ASSERT_GE(links.size(), 2u);
  for (const LinkId l : links) broker.report_link(l, false);
  ASSERT_TRUE(wait_for([&] {
    return user.slo("ledger").find("\"state\":\"degraded\"") !=
           std::string::npos;
  }));

  // Repair: the demand recovers with a dented availability in (0, 1).
  for (const LinkId l : links) broker.report_link(l, true);
  ASSERT_TRUE(wait_for([&] {
    payload = user.slo("ledger");
    return payload.find("\"state\":\"recovered\"") != std::string::npos;
  }));
  const double avail = availability_of(payload);
  EXPECT_GT(avail, 0.0);
  EXPECT_LT(avail, 1.0);
  EXPECT_NE(payload.find("\"budget_burn\":"), std::string::npos);

  // Withdraw freezes the row but keeps it for post-mortem snapshots.
  user.withdraw(1);
  ASSERT_TRUE(wait_for([&] {
    return user.slo("ledger").find("\"state\":\"withdrawn\"") !=
           std::string::npos;
  }));

  // The combined payload carries both sections for the dashboard.
  const std::string combined = user.slo();
  EXPECT_NE(combined.find("\"ledger\":"), std::string::npos);
  EXPECT_NE(combined.find("\"series\":"), std::string::npos);
  EXPECT_NE(combined.find("\"tenants\":"), std::string::npos);
  broker.stop();
}

}  // namespace
}  // namespace bate
