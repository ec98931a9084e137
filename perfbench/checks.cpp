#include "checks.h"

#include <algorithm>
#include <cmath>

#include "json_mini.h"
#include "obs/availability.h"

namespace perfbench {

using bate::Demand;
using bate::DemandId;
using bate::LinkId;

void ReplyLedger::sent(std::uint64_t request_id) {
  replies_.emplace(request_id, 0);
}

void ReplyLedger::replied(std::uint64_t request_id) {
  const auto it = replies_.find(request_id);
  if (it == replies_.end()) {
    unknown_.push_back(request_id);
    return;
  }
  ++it->second;
}

std::size_t ReplyLedger::unanswered() const {
  return static_cast<std::size_t>(
      std::count_if(replies_.begin(), replies_.end(),
                    [](const auto& kv) { return kv.second == 0; }));
}

std::vector<std::string> ReplyLedger::violations() const {
  std::vector<std::string> out;
  for (const auto& [rid, n] : replies_) {
    if (n == 0) out.push_back("request " + std::to_string(rid) + ": no reply");
    if (n > 1) {
      out.push_back("request " + std::to_string(rid) + ": " +
                    std::to_string(n) + " replies");
    }
  }
  for (const std::uint64_t rid : unknown_) {
    out.push_back("reply for unknown request " + std::to_string(rid));
  }
  return out;
}

bool covers(double total_mbps, double demanded_mbps) {
  return total_mbps >= demanded_mbps * (1.0 - 1e-6) - 1e-6;
}

namespace {

double row_total(const std::vector<double>& rates) {
  double total = 0.0;
  for (const double r : rates) total += r;
  return total;
}

}  // namespace

bool enforced_everywhere(const Demand& d, int brokers, const RatesFn& rates) {
  for (int b = 0; b < brokers; ++b) {
    for (const bate::PairDemand& p : d.pairs) {
      if (!covers(row_total(rates(b, d.id, p.pair)), p.mbps)) return false;
    }
  }
  return true;
}

std::vector<std::string> check_enforced(std::span<const Demand> admitted,
                                        int brokers, const RatesFn& rates) {
  std::vector<std::string> out;
  for (const Demand& d : admitted) {
    for (int b = 0; b < brokers; ++b) {
      for (const bate::PairDemand& p : d.pairs) {
        const double total = row_total(rates(b, d.id, p.pair));
        if (!covers(total, p.mbps)) {
          out.push_back("demand " + std::to_string(d.id) + " pair " +
                        std::to_string(p.pair) + " at broker " +
                        std::to_string(b) + ": enforced " +
                        std::to_string(total) + " < b_d " +
                        std::to_string(p.mbps));
        }
      }
    }
  }
  return out;
}

std::vector<std::string> check_failover(LinkId down,
                                        const bate::TunnelCatalog& catalog,
                                        std::span<const Demand> live,
                                        int brokers, const RatesFn& rates) {
  std::vector<std::string> out;
  for (const Demand& d : live) {
    for (const bate::PairDemand& p : d.pairs) {
      const auto& tunnels = catalog.tunnels(p.pair);
      for (int b = 0; b < brokers; ++b) {
        const std::vector<double> r = rates(b, d.id, p.pair);
        for (std::size_t t = 0; t < r.size() && t < tunnels.size(); ++t) {
          if (r[t] > 1e-9 && tunnels[t].uses(down)) {
            out.push_back("demand " + std::to_string(d.id) + " pair " +
                          std::to_string(p.pair) + " at broker " +
                          std::to_string(b) + ": " + std::to_string(r[t]) +
                          " Mbps on tunnel " + std::to_string(t) +
                          " across down link " + std::to_string(down));
          }
        }
      }
    }
  }
  return out;
}

double whole_ratio(const std::set<LinkId>& down,
                   const bate::TunnelCatalog& catalog,
                   std::span<const Demand> live, const RatesFn& rates) {
  if (live.empty()) return 1.0;
  long whole = 0;
  for (const Demand& d : live) {
    bool ok = true;
    for (const bate::PairDemand& p : d.pairs) {
      const auto& tunnels = catalog.tunnels(p.pair);
      const std::vector<double> r = rates(0, d.id, p.pair);
      double delivered = 0.0;
      for (std::size_t t = 0; t < r.size() && t < tunnels.size(); ++t) {
        const bool up = std::none_of(
            tunnels[t].links.begin(), tunnels[t].links.end(),
            [&](LinkId l) { return down.count(l) != 0; });
        if (up) delivered += r[t];
      }
      ok = ok && covers(delivered, p.mbps);
    }
    if (ok) ++whole;
  }
  return static_cast<double>(whole) / static_cast<double>(live.size());
}

SloCrosscheck crosscheck_slo(const std::string& payload,
                             const std::set<DemandId>& live, double tol) {
  SloCrosscheck res;
  bate::json::JsonValue root;
  try {
    root = bate::json::parse(payload);
  } catch (const std::exception& e) {
    res.violations.push_back(std::string("slo payload does not parse: ") +
                             e.what());
    return res;
  }
  const bate::json::JsonValue* ledger = root.find("ledger");
  const bate::json::JsonValue* demands =
      ledger != nullptr ? ledger->find("demands") : nullptr;
  const bate::json::JsonValue* now = ledger != nullptr ? ledger->find("now_us") : nullptr;
  if (demands == nullptr || demands->kind != bate::json::JsonValue::Kind::kArray ||
      now == nullptr) {
    res.violations.push_back("slo payload has no ledger demands/now_us");
    return res;
  }
  const auto now_us = static_cast<std::int64_t>(now->number);
  const auto num = [](const bate::json::JsonValue& obj, const char* key) {
    const bate::json::JsonValue* v = obj.find(key);
    return v != nullptr ? v->number : 0.0;
  };
  std::set<DemandId> seen;
  for (const bate::json::JsonValue& d : demands->array) {
    const auto id = static_cast<DemandId>(num(d, "id"));
    seen.insert(id);
    if (num(d, "dropped_transitions") != 0.0) {
      ++res.truncated;
      continue;
    }
    // The replay: the same transition rules bench_system's slo case uses,
    // through a fresh meter that shares nothing with the ledger but the
    // arithmetic in obs/availability.h.
    bate::obs::AvailabilityMeter meter;
    bool saw_degraded = false;
    if (const bate::json::JsonValue* log = d.find("transitions")) {
      for (const bate::json::JsonValue& t : log->array) {
        const auto t_us = static_cast<std::int64_t>(num(t, "t_us"));
        const bate::json::JsonValue* state = t.find("state");
        const std::string s = state != nullptr ? state->str : "?";
        if (s == "admitted") {
          meter.start(t_us, /*satisfied=*/true);
        } else if (s == "degraded") {
          meter.set_satisfied(t_us, false);
          saw_degraded = true;
        } else if (s == "recovered") {
          meter.set_satisfied(t_us, true);
        } else if (s == "withdrawn") {
          meter.finalize(t_us);
        }
        // "allocated" changes the lifecycle state only.
      }
    }
    ++res.replayed;
    if (saw_degraded) ++res.degraded;
    if (static_cast<double>(meter.active_us_at(now_us)) !=
            num(d, "active_us") ||
        static_cast<double>(meter.satisfied_us_at(now_us)) !=
            num(d, "satisfied_us")) {
      res.violations.push_back("demand " + std::to_string(id) +
                               ": replayed active/satisfied time differs");
    }
    const double err =
        std::fabs(meter.availability_at(now_us) - num(d, "availability"));
    res.max_abs_err = std::max(res.max_abs_err, err);
    if (!(err <= tol)) {
      res.violations.push_back("demand " + std::to_string(id) +
                               ": availability differs by " +
                               std::to_string(err));
    }
  }
  for (const DemandId id : live) {
    if (seen.count(id) == 0) {
      res.violations.push_back("live demand " + std::to_string(id) +
                               " missing from the ledger");
    }
  }
  return res;
}

}  // namespace perfbench
