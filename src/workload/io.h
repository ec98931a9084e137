// Plain-text BA-demand serialization, companion to topology/io.h, so a
// deployment can feed its demand book to the planner tools without code.
//
// Format (line oriented, '#' comments):
//   demand <id> <src-label> <dst-label> <mbps> <availability>
//          [charge=<x>] [refund=<f>] [arrival=<min>] [duration=<min>]
// (options may follow on the same line)
#pragma once

#include <string>
#include <vector>

#include "routing/tunnels.h"
#include "topology/graph.h"
#include "workload/demand.h"

namespace bate {

/// Serializes demands; pair indices are rendered as node labels via the
/// catalog, so the text is topology-relative and human readable.
std::string demands_to_text(const Topology& topo, const TunnelCatalog& catalog,
                            std::span<const Demand> demands);

/// Parses the text format against a topology/catalog. Throws
/// std::invalid_argument with a line number on malformed input, unknown
/// node labels, or pairs absent from the catalog, and with the demand id on
/// a demand admission cannot take (demand_defect, core/admission.h).
std::vector<Demand> demands_from_text(const Topology& topo,
                                      const TunnelCatalog& catalog,
                                      const std::string& text);

void save_demands(const Topology& topo, const TunnelCatalog& catalog,
                  std::span<const Demand> demands, const std::string& path);
std::vector<Demand> load_demands(const Topology& topo,
                                 const TunnelCatalog& catalog,
                                 const std::string& path);

}  // namespace bate
