#include "live.h"

#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <map>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>

#include "checks.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "topology/catalog.h"

namespace perfbench {

using bate::Demand;
using bate::DemandId;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Broker poll period while anything is pending.
constexpr int kPollUs = 50;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Waits until `fd` is readable or `until_ns` passes; true when readable.
bool wait_readable(int fd, std::int64_t until_ns) {
  const std::int64_t left = std::max<std::int64_t>(0, until_ns - now_ns());
  timespec ts{static_cast<time_t>(left / 1'000'000'000),
              static_cast<long>(left % 1'000'000'000)};
  pollfd pfd{fd, POLLIN, 0};
  return ppoll(&pfd, 1, &ts, nullptr) > 0;
}

void sleep_until_ns(std::int64_t t_ns) {
  const std::int64_t left = t_ns - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

/// Appends check violations, keeping the first few of a flood.
void add_violations(PhaseResult& res, const std::vector<std::string>& found) {
  constexpr std::size_t kKeep = 20;
  for (const std::string& v : found) {
    if (res.violations.size() < kKeep) res.violations.push_back(v);
  }
  if (!found.empty() && res.violations.size() >= kKeep) {
    res.violations.back() = "... and more";
  }
}

/// Thread ids of this process.
std::set<pid_t> thread_ids() {
  std::set<pid_t> out;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] != '.') out.insert(static_cast<pid_t>(std::atoi(e->d_name)));
    }
    closedir(dir);
  }
  return out;
}

/// Pins thread `tid` (0: the caller) to `cpu`, taken mod the CPU count.
void pin(pid_t tid, int cpu) {
  const long cpus = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % cpus), &set);
  sched_setaffinity(tid, sizeof set, &set);
}

/// Runs `start` and pins every thread it created to `cpu`, so thread
/// placement is the same in every run.
template <typename Start>
void start_pinned(int cpu, Start start) {
  const std::set<pid_t> before = thread_ids();
  start();
  for (const pid_t tid : thread_ids()) {
    if (before.count(tid) == 0) pin(tid, cpu);
  }
}

int total_pairs(const std::vector<Demand>& demands) {
  int rows = 0;
  for (const Demand& d : demands) rows += static_cast<int>(d.pairs.size());
  return rows;
}

}  // namespace

void pin_to_load_cpu() { pin(0, kLoadCpu); }

// --- UserConn ---------------------------------------------------------------

UserConn::UserConn(std::uint16_t port, int tenant)
    : socket_(bate::connect_tcp(port)) {
  socket_.set_nodelay(true);
  socket_.write_all(bate::encode_frame(
      bate::encode_message(bate::HelloMsg{"user", tenant})));
}

void UserConn::write(const std::vector<std::uint8_t>& bytes) {
  socket_.write_all(bytes);
}

std::vector<bate::Message> UserConn::read_available() {
  std::vector<bate::Message> out;
  std::array<std::uint8_t, 65536> buf{};
  const long n = socket_.read_some(buf);
  if (n == 0) throw std::runtime_error("controller closed the user connection");
  if (n > 0) reader_.feed({buf.data(), static_cast<std::size_t>(n)});
  while (auto frame = reader_.next()) {
    out.push_back(bate::decode_message(*frame));
  }
  return out;
}

std::string UserConn::slo() {
  write(bate::encode_frame(
      bate::encode_message(bate::SloRequestMsg{"json", ""})));
  while (true) {
    for (const bate::Message& msg : read_available()) {
      // Anything else on the connection is already accounted for.
      if (const auto* reply = std::get_if<bate::SloReplyMsg>(&msg)) {
        return reply->body;
      }
    }
  }
}

// --- Stack ------------------------------------------------------------------

namespace {

/// Collects one admission reply per request id in `pending`, blocking until
/// all arrived or `deadline_ns` passed. Returns request_id -> admitted.
std::map<std::uint64_t, bool> collect_replies(UserConn& user,
                                              std::set<std::uint64_t> pending,
                                              std::int64_t deadline_ns) {
  std::map<std::uint64_t, bool> out;
  while (!pending.empty() && now_ns() < deadline_ns) {
    if (!wait_readable(user.fd(), deadline_ns)) continue;
    for (const bate::Message& msg : user.read_available()) {
      if (const auto* r = std::get_if<bate::AdmissionReplyMsg>(&msg)) {
        if (pending.erase(r->request_id) != 0) {
          out[r->request_id] = r->admitted();
        }
      }
    }
  }
  if (!pending.empty()) {
    throw std::runtime_error("set-up: " + std::to_string(pending.size()) +
                             " preload submits got no reply");
  }
  return out;
}

}  // namespace

Stack::Stack(const std::vector<Demand>& preload)
    : t_start_ns_(now_ns()),
      topo_(bate::testbed6()),
      catalog_(bate::TunnelCatalog::build_all_pairs(topo_, 4)) {
  std::int64_t t = now_ns();
  times_.catalog_ms = static_cast<double>(t - t_start_ns_) / 1e6;

  controller_ = std::make_unique<bate::Controller>(topo_, catalog_);
  start_pinned(kControllerCpu, [this] { controller_->start(); });
  std::int64_t t2 = now_ns();
  times_.controller_ms = static_cast<double>(t2 - t) / 1e6;
  t = t2;

  for (int b = 0; b < kBrokers; ++b) {
    brokers_.push_back(std::make_unique<bate::Broker>(b, controller_->port()));
    start_pinned(kControllerCpu + 1 + b, [this] { brokers_.back()->start(); });
  }
  user_ = std::make_unique<UserConn>(controller_->port(), /*tenant=*/1);
  t2 = now_ns();
  times_.connect_ms = static_cast<double>(t2 - t) / 1e6;
  t = t2;

  if (!preload.empty()) {
    bate::FrameBatch batch;
    std::set<std::uint64_t> rids;
    std::map<std::uint64_t, const Demand*> by_rid;
    for (const Demand& d : preload) {
      const std::uint64_t rid = next_request_id();
      rids.insert(rid);
      by_rid[rid] = &d;
      batch.add(bate::encode_message(bate::SubmitDemandMsg{d, rid}));
    }
    user_->write(batch.bytes());
    const std::int64_t deadline = now_ns() + 60'000'000'000LL;
    for (const auto& [rid, admitted] : collect_replies(*user_, rids, deadline)) {
      if (admitted) preloaded_.push_back(*by_rid.at(rid));
    }
    std::sort(preloaded_.begin(), preloaded_.end(),
              [](const Demand& a, const Demand& b) { return a.id < b.id; });
    const RatesFn rates_fn = [this](int b, DemandId id, int pair) {
      return rates(b, id, pair);
    };
    // Poll like the watcher does: re-check only when a broker applied rows.
    std::array<int, kBrokers> seen{-1, -1};
    while (true) {
      std::array<int, kBrokers> counts{};
      for (int b = 0; b < kBrokers; ++b) counts[b] = broker(b).updates_received();
      if (counts != seen) {
        seen = counts;
        if (std::all_of(preloaded_.begin(), preloaded_.end(), [&](const Demand& d) {
              return enforced_everywhere(d, kBrokers, rates_fn);
            })) {
          break;
        }
      }
      if (now_ns() > deadline) {
        throw std::runtime_error("set-up: preload not enforced at the brokers");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
    }
  }
  times_.preload_ms = static_cast<double>(now_ns() - t) / 1e6;
}

Stack::~Stack() = default;

std::vector<double> Stack::rates(int b, DemandId id, int pair) const {
  return brokers_[static_cast<std::size_t>(b)]->enforced_rates(id, pair);
}

std::vector<bate::LinkId> loaded_links(Stack& stack,
                                       const std::vector<Demand>& live) {
  std::set<bate::LinkId> links;
  for (const Demand& d : live) {
    for (const bate::PairDemand& p : d.pairs) {
      const auto& tunnels = stack.catalog().tunnels(p.pair);
      const std::vector<double> r = stack.rates(0, d.id, p.pair);
      for (std::size_t t = 0; t < r.size() && t < tunnels.size(); ++t) {
        if (r[t] > 1e-9) links.insert(tunnels[t].links.begin(), tunnels[t].links.end());
      }
    }
  }
  return {links.begin(), links.end()};
}

// --- Watcher ----------------------------------------------------------------

namespace {

/// The watcher thread: the only reader of the brokers during a timed phase.
/// Submit items complete when both brokers enforce b_d on every pair; link
/// items when the reporting broker received its first row (reply) and both
/// brokers applied the whole broadcast (done).
class Watcher {
 public:
  explicit Watcher(Stack& stack) : stack_(stack) {}
  ~Watcher() { finish(0); }
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  void start() { thread_ = std::thread([this] { loop(); }); }

  /// Tracks a submit; call before the submit is written.
  void track_submit(std::size_t op, const Demand& d) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      Item item;
      item.op = op;
      item.demand = d;
      inbox_.push_back(std::move(item));
    }
    inbox_cv_.notify_one();
  }
  void verdict(std::size_t op, bool admitted) {
    std::lock_guard<std::mutex> lock(mu_);
    verdicts_.emplace_back(op, admitted);
  }
  /// Tracks a link report; call before the report is sent.
  void track_link(std::size_t op, int base0, int base1, int rows) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      Item item;
      item.op = op;
      item.link = true;
      item.base = {base0, base1};
      item.rows = rows;
      inbox_.push_back(std::move(item));
    }
    inbox_cv_.notify_one();
  }
  /// Blocks until link item `op` completed; false on timeout.
  bool wait_link(std::size_t op, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return done_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [&] { return done_.count(op) != 0; });
  }

  /// (first row at the reporting broker, whole broadcast at both) of a
  /// completed link item.
  std::pair<std::int64_t, std::int64_t> link_times(std::size_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    return {link_reply_ns_.at(op), link_done_ns_.at(op)};
  }

  /// Stops once every admitted submit is enforced or `grace_ms` passed.
  void finish(int grace_ms) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stop_requested_) {
        stop_requested_ = true;
        stop_deadline_ns_ = now_ns() + static_cast<std::int64_t>(grace_ms) * 1'000'000;
      }
    }
    inbox_cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  // Results, readable after finish(). Indexed by op.
  std::map<std::size_t, std::int64_t> enforced_ns;
  /// Submits the controller admitted that were never enforced.
  std::vector<DemandId> unenforced;
  std::string error;

 private:
  struct Item {
    std::size_t op = 0;
    bool link = false;
    Demand demand;
    int verdict = -1;  // -1 unknown, 0 rejected, 1 admitted
    bool enforced = false;
    std::array<int, kBrokers> base{};
    int rows = 0;
    bool replied = false;
    bool done = false;
  };

  void loop() {
    pin_to_load_cpu();
    try {
      run();
    } catch (const std::exception& e) {
      error = e.what();
    }
  }

  void run() {
    std::array<bate::Broker*, kBrokers> brokers{&stack_.broker(0),
                                                &stack_.broker(1)};
    const RatesFn rates = [this](int b, DemandId id, int pair) {
      return stack_.rates(b, id, pair);
    };
    std::array<int, kBrokers> counts{};
    for (int b = 0; b < kBrokers; ++b) counts[b] = brokers[b]->updates_received();
    std::vector<Item> items;
    while (true) {
      bool fresh = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        fresh = !inbox_.empty();
        for (Item& it : inbox_) items.push_back(std::move(it));
        inbox_.clear();
        for (const auto& [op, admitted] : verdicts_) {
          for (Item& it : items) {
            if (!it.link && it.op == op) it.verdict = admitted ? 1 : 0;
          }
        }
        verdicts_.clear();
        items.erase(std::remove_if(items.begin(), items.end(),
                                   [](const Item& it) {
                                     return !it.link && (it.verdict == 0 ||
                                                         (it.verdict == 1 && it.enforced));
                                   }),
                    items.end());
        if (stop_requested_ &&
            (items.empty() || now_ns() >= stop_deadline_ns_)) {
          for (const Item& it : items) {
            if (!it.link && it.verdict == 1 && !it.enforced) {
              unenforced.push_back(it.demand.id);
            }
          }
          return;
        }
      }
      if (items.empty()) {
        // Idle: sleep on the watcher's own inbox, not on a broker.
        std::unique_lock<std::mutex> lock(mu_);
        inbox_cv_.wait_for(lock, std::chrono::milliseconds(2), [&] {
          return !inbox_.empty() || stop_requested_;
        });
        continue;
      }
      // Busy: poll the update counters. Blocking in wait_updates_past would
      // wake this thread on every applied row and contend for the broker's
      // lock while it applies a broadcast.
      if (!fresh) std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
      const std::array<int, kBrokers> before = counts;
      for (int b = 0; b < kBrokers; ++b) counts[b] = brokers[b]->updates_received();
      if (counts == before && !fresh) continue;
      const std::int64_t now = now_ns();
      bool any_done = false;
      for (Item& it : items) {
        if (it.link) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!it.replied && counts[0] > it.base[0]) {
            it.replied = true;
            link_reply_ns_[it.op] = now;
          }
          if (counts[0] >= it.base[0] + it.rows &&
              counts[1] >= it.base[1] + it.rows) {
            link_done_ns_[it.op] = now;
            done_.insert(it.op);
            it.done = true;
            any_done = true;
          }
        } else if (!it.enforced && it.verdict != 0 &&
                   enforced_everywhere(it.demand, kBrokers, rates)) {
          it.enforced = true;
          enforced_ns[it.op] = now;
        }
      }
      if (any_done) {
        items.erase(std::remove_if(items.begin(), items.end(),
                                   [&](const Item& it) {
                                     return it.link && it.done;
                                   }),
                    items.end());
        done_cv_.notify_all();
      }
    }
  }

  Stack& stack_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::condition_variable inbox_cv_;
  std::vector<Item> inbox_;
  std::vector<std::pair<std::size_t, bool>> verdicts_;
  std::set<std::size_t> done_;
  std::map<std::size_t, std::int64_t> link_reply_ns_;
  std::map<std::size_t, std::int64_t> link_done_ns_;
  bool stop_requested_ = false;
  std::int64_t stop_deadline_ns_ = 0;
  std::thread thread_;
};

}  // namespace

// --- Open loop --------------------------------------------------------------

PhaseResult run_open_loop(Stack& stack, const OpenLoopPlan& plan,
                          double seconds) {
  PhaseResult res;
  const std::vector<Arrival>& arrivals = plan.arrivals;
  const std::size_t n = arrivals.size();
  res.submit_reply.resize(n);
  res.traced.resize(n);

  ReplyLedger ledger;
  std::map<std::uint64_t, std::size_t> op_of_rid;
  std::vector<int> verdict(n, -1);
  using Withdraw = std::pair<std::int64_t, DemandId>;
  std::priority_queue<Withdraw, std::vector<Withdraw>, std::greater<>> withdraws;

  const std::int64_t t0 = now_ns() + 2'000'000;
  const auto window_ns = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t t_end = t0 + window_ns;
  // The preloaded population departs during the window.
  std::map<DemandId, std::int64_t> initial_lifetime;
  for (const Arrival& a : plan.initial) initial_lifetime[a.demand.id] = a.lifetime_ns;
  for (const Demand& d : stack.preloaded()) {
    res.live.insert(d.id);
    withdraws.emplace(t0 + initial_lifetime.at(d.id), d.id);
  }

  Watcher watcher(stack);
  UserConn& user = stack.user();
  const int rows0 = stack.broker(0).updates_received();
  const double cpu0 = cpu_seconds();
  watcher.start();

  const auto handle = [&](const bate::Message& msg) {
    const auto* r = std::get_if<bate::AdmissionReplyMsg>(&msg);
    if (r == nullptr) return;
    const std::int64_t now = now_ns();
    ledger.replied(r->request_id);
    const auto it = op_of_rid.find(r->request_id);
    if (it == op_of_rid.end()) return;
    const std::size_t op = it->second;
    if (verdict[op] != -1) return;  // duplicate reply, counted by the ledger
    res.submit_reply[op].done_ns = now;
    switch (r->status) {
      case bate::AdmissionStatus::kAdmitted: {
        verdict[op] = 1;
        ++res.admitted;
        watcher.verdict(op, true);
        res.live.insert(r->id);
        const std::int64_t end =
            std::max(t0 + arrivals[op].due_ns + arrivals[op].lifetime_ns, now);
        if (end < t_end) withdraws.emplace(end, r->id);
        break;
      }
      case bate::AdmissionStatus::kRejected:
        verdict[op] = 0;
        watcher.verdict(op, false);
        break;
      default:
        verdict[op] = 0;
        watcher.verdict(op, false);
        ++res.failed;
        res.violations.push_back("request " + std::to_string(r->request_id) +
                                 " was shed or bounced as a duplicate");
        break;
    }
  };
  const auto pump = [&](std::int64_t until_ns) {
    if (!wait_readable(user.fd(), until_ns)) return;
    for (const bate::Message& msg : user.read_available()) handle(msg);
  };

  std::size_t i = 0;
  while (true) {
    std::int64_t now = now_ns();
    while (i < n && t0 + arrivals[i].due_ns <= now) {
      // One write per burst.
      const int burst = arrivals[i].burst;
      std::size_t end = i;
      while (end < n && arrivals[end].burst == burst) ++end;
      bate::obs::Span span("bench.client.submit");
      const bate::obs::SpanContext sc = span.context();
      const bate::FrameContext ctx{sc.trace_id, sc.span_id};
      bate::FrameBatch batch;
      for (std::size_t k = i; k < end; ++k) {
        const std::uint64_t rid = stack.next_request_id();
        op_of_rid[rid] = k;
        ledger.sent(rid);
        watcher.track_submit(k, arrivals[k].demand);
        batch.add(bate::encode_message(
                      bate::SubmitDemandMsg{arrivals[k].demand, rid}),
                  ctx);
      }
      const std::int64_t sent = now_ns();
      user.write(batch.bytes());
      for (std::size_t k = i; k < end; ++k) {
        const std::int64_t due = t0 + arrivals[k].due_ns;
        res.submit_reply[k] = OpTiming{due, sent, -1};
        res.traced[k] = PhaseResult::TracedOp{sc.trace_id, due, sent, -1};
      }
      res.offered += static_cast<long>(end - i);
      LogEntry entry;
      for (std::size_t k = i; k < end; ++k) entry.burst.push_back(arrivals[k].demand);
      res.log.push_back(std::move(entry));
      i = end;
      now = now_ns();
    }
    while (!withdraws.empty() && withdraws.top().first <= now) {
      const DemandId id = withdraws.top().second;
      withdraws.pop();
      bate::obs::Span span("bench.client.withdraw");
      user.write(bate::encode_frame(
          bate::encode_message(bate::WithdrawDemandMsg{id})));
      res.live.erase(id);
      res.withdrawn.insert(id);
      res.log.push_back(LogEntry{true, {}, id});
      ++res.withdraws;
    }
    if (i >= n && now >= t_end) break;
    std::int64_t next = i < n ? t0 + arrivals[i].due_ns : t_end;
    if (!withdraws.empty()) next = std::min(next, withdraws.top().first);
    pump(std::min(next, t_end));
  }
  // Every submit must be answered; give stragglers a bounded wait.
  const std::int64_t reply_deadline = now_ns() + 10'000'000'000LL;
  while (ledger.unanswered() > 0 && now_ns() < reply_deadline) {
    pump(reply_deadline);
  }
  watcher.finish(/*grace_ms=*/10'000);
  res.cpu_s = cpu_seconds() - cpu0;
  res.broker_rows = stack.broker(0).updates_received() - rows0;
  if (!watcher.error.empty()) res.violations.push_back("watcher: " + watcher.error);

  for (std::size_t k = 0; k < n; ++k) {
    if (verdict[k] != 1) continue;
    OpTiming enforce = res.submit_reply[k];
    const auto it = watcher.enforced_ns.find(k);
    enforce.done_ns = it != watcher.enforced_ns.end() ? it->second : -1;
    res.submit_enforce.push_back(enforce);
    res.traced[k].done_ns = enforce.done_ns;
  }
  for (const std::string& v : ledger.violations()) res.violations.push_back(v);
  const long unanswered = static_cast<long>(ledger.unanswered());
  for (const DemandId id : watcher.unenforced) {
    res.violations.push_back("admitted demand " + std::to_string(id) +
                             " not enforced at both brokers by run end");
  }
  res.failed += unanswered + static_cast<long>(watcher.unenforced.size());
  res.events = res.offered + res.withdraws;
  return res;
}

// --- Flap -------------------------------------------------------------------

PhaseResult run_flap(Stack& stack, std::uint64_t seed, double seconds) {
  PhaseResult res;
  const std::vector<Demand>& live = stack.preloaded();
  for (const Demand& d : live) res.live.insert(d.id);
  const int rows = total_pairs(live);
  const std::vector<bate::LinkId> loaded = loaded_links(stack, live);
  if (loaded.empty()) {
    res.violations.push_back("flap: no loaded link to report");
    return res;
  }
  const RatesFn rates = [&stack](int b, DemandId id, int pair) {
    return stack.rates(b, id, pair);
  };
  bate::Rng rng(seed);
  std::vector<LinkEvent> cycle;
  std::size_t next_event = 0;
  std::set<bate::LinkId> down;

  // Reports are paced: one is due every kPeriod, and never before both
  // brokers applied the previous one.
  constexpr std::int64_t kPeriodNs = 20'000'000;
  Watcher watcher(stack);
  const int rows0 = stack.broker(0).updates_received();
  const double cpu0 = cpu_seconds();
  watcher.start();
  const std::int64_t t0 = now_ns() + 2'000'000;
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t due = t0;
  std::size_t op = 0;
  while (due < t_end) {
    if (next_event == cycle.size()) {
      cycle = flap_cycle(loaded, rng);
      next_event = 0;
    }
    const LinkEvent ev = cycle[next_event++];
    res.link_log.push_back(ev);
    sleep_until_ns(due);
    watcher.track_link(op, stack.broker(0).updates_received(),
                       stack.broker(1).updates_received(), rows);
    std::int64_t sent = 0;
    std::uint64_t trace_id = 0;
    {
      bate::obs::Span span("bench.broker.report_link");
      trace_id = span.context().trace_id;
      sent = now_ns();
      stack.broker(0).report_link(ev.link, ev.up);
    }
    ++res.link_reports;
    if (!watcher.wait_link(op, /*timeout_ms=*/5'000)) {
      ++res.failed;
      res.violations.push_back("link " + std::to_string(ev.link) +
                               (ev.up ? " up" : " down") +
                               ": broadcast not applied at both brokers in 5 s");
      break;
    }
    const auto [reply_ns, done_ns] = watcher.link_times(op);
    res.link_reply.push_back(OpTiming{due, sent, reply_ns});
    (ev.up ? res.restore : res.failover).push_back(OpTiming{due, sent, done_ns});
    res.traced.push_back(PhaseResult::TracedOp{trace_id, due, sent, done_ns});
    if (ev.up) {
      down.erase(ev.link);
    } else {
      down.insert(ev.link);
      add_violations(res, check_failover(ev.link, stack.catalog(), live,
                                         kBrokers, rates));
      res.whole_ratios.push_back(whole_ratio(down, stack.catalog(), live, rates));
    }
    ++op;
    due = std::max(due + kPeriodNs, now_ns());
  }
  watcher.finish(/*grace_ms=*/0);
  res.cpu_s = cpu_seconds() - cpu0;
  res.broker_rows = stack.broker(0).updates_received() - rows0;
  if (!watcher.error.empty()) res.violations.push_back("watcher: " + watcher.error);
  res.events = res.link_reports;
  return res;
}

}  // namespace perfbench
