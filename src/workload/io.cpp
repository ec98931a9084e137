#include "workload/io.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/admission.h"

namespace bate {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("demand text, line " + std::to_string(line) +
                              ": " + message);
}

}  // namespace

std::string demands_to_text(const Topology& topo, const TunnelCatalog& catalog,
                            std::span<const Demand> demands) {
  std::ostringstream out;
  out.precision(17);
  for (const Demand& d : demands) {
    for (const PairDemand& p : d.pairs) {
      const SdPair& pair = catalog.pair(p.pair);
      out << "demand " << d.id << ' ' << topo.node_label(pair.src) << ' '
          << topo.node_label(pair.dst) << ' ' << p.mbps << ' '
          << d.availability_target << " charge=" << d.charge
          << " refund=" << d.refund_fraction << " arrival=" << d.arrival_minute
          << " duration=" << d.duration_minutes << '\n';
    }
  }
  return out.str();
}

std::vector<Demand> demands_from_text(const Topology& topo,
                                      const TunnelCatalog& catalog,
                                      const std::string& text) {
  std::map<std::string, NodeId> labels;
  for (NodeId n = 0; n < topo.node_count(); ++n) {
    labels[topo.node_label(n)] = n;
  }

  // Demands may span several lines (multi-pair); group by id.
  std::map<DemandId, Demand> by_id;
  std::vector<DemandId> order;
  std::set<DemandId> explicit_charge;

  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream fields(raw);
    std::string directive;
    if (!(fields >> directive)) continue;
    if (directive != "demand") fail(line_no, "unknown directive");

    DemandId id = -1;
    std::string src;
    std::string dst;
    double mbps = 0.0;
    double availability = 0.0;
    if (!(fields >> id >> src >> dst >> mbps >> availability)) {
      fail(line_no,
           "expected: demand <id> <src> <dst> <mbps> <availability>");
    }
    if (labels.count(src) == 0) fail(line_no, "unknown node '" + src + "'");
    if (labels.count(dst) == 0) fail(line_no, "unknown node '" + dst + "'");
    const int pair = catalog.pair_index({labels[src], labels[dst]});
    if (pair < 0) {
      fail(line_no, "pair " + src + "->" + dst + " not in the tunnel catalog");
    }
    if (mbps <= 0.0) fail(line_no, "bandwidth must be positive");
    if (availability < 0.0 || availability >= 1.0 + 1e-12) {
      fail(line_no, "availability must be in [0, 1]");
    }

    Demand& d = by_id[id];
    if (d.id < 0) {
      d.id = id;
      d.availability_target = availability;
      order.push_back(id);
    } else if (std::abs(d.availability_target - availability) > 1e-12) {
      fail(line_no, "conflicting availability for demand " +
                        std::to_string(id));
    }
    d.pairs.push_back({pair, mbps});

    std::string option;
    while (fields >> option) {
      const auto eq = option.find('=');
      if (eq == std::string::npos) fail(line_no, "bad option '" + option + "'");
      const std::string key = option.substr(0, eq);
      double value = 0.0;
      try {
        value = std::stod(option.substr(eq + 1));
      } catch (const std::exception&) {
        fail(line_no, "bad number in option '" + option + "'");
      }
      if (key == "charge") {
        d.charge = value;
        explicit_charge.insert(id);
      } else if (key == "refund") {
        d.refund_fraction = value;
      } else if (key == "arrival") {
        d.arrival_minute = value;
      } else if (key == "duration") {
        d.duration_minutes = value;
      } else {
        fail(line_no, "unknown option '" + key + "'");
      }
    }
  }

  std::vector<Demand> demands;
  demands.reserve(order.size());
  for (DemandId id : order) {
    Demand& d = by_id[id];
    // Unit-price default applies once the full pair list is known.
    if (explicit_charge.count(id) == 0 && d.charge == 0.0) {
      d.charge = d.total_mbps();
    }
    // What admission would otherwise assert on: too many tunnels across the
    // demand's pairs, or a refund fraction outside [0, 1].
    if (const char* defect = demand_defect(catalog, d)) {
      throw std::invalid_argument("demand text, demand " + std::to_string(id) +
                                  ": " + defect);
    }
    demands.push_back(d);
  }
  return demands;
}

void save_demands(const Topology& topo, const TunnelCatalog& catalog,
                  std::span<const Demand> demands, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << demands_to_text(topo, catalog, demands);
}

std::vector<Demand> load_demands(const Topology& topo,
                                 const TunnelCatalog& catalog,
                                 const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return demands_from_text(topo, catalog, buffer.str());
}

}  // namespace bate
