// Control-channel wire protocol between users, the controller and the
// brokers (Sec 4). Messages are framed (net/framing.h) and binary-encoded
// (net/codec.h) with a leading type byte.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/framing.h"
#include "topology/graph.h"
#include "workload/demand.h"

namespace bate {

enum class MsgType : std::uint8_t {
  kHello = 1,            // peer introduction (role + DC id)
  kSubmitDemand = 2,     // user -> controller
  kAdmissionReply = 3,   // controller -> user
  kAllocationUpdate = 4, // controller -> broker: per-demand tunnel rates
  kWithdrawDemand = 5,   // user -> controller: demand ended
  kLinkStatus = 6,       // broker -> controller: link up/down
  kStatsRequest = 7,     // any peer -> controller: scrape the obs registry
  kStatsReply = 8,       // controller -> peer: rendered snapshot
  kSloRequest = 9,       // any peer -> controller: SLO ledger / time-series
  kSloReply = 10,        // controller -> peer: rendered SLO payload
};

struct HelloMsg {
  std::string role;  // "broker" | "user"
  int dc = -1;
};

struct SubmitDemandMsg {
  Demand demand;
  /// Correlates this submit with its AdmissionReplyMsg so a connection can
  /// pipeline many requests. 0 marks a legacy single-shot submit (the reply
  /// is then matched by demand id and duplicate detection is skipped).
  std::uint64_t request_id = 0;
};

enum class AdmissionStatus : std::uint8_t {
  kRejected = 0,   // infeasible under the admission strategy
  kAdmitted = 1,
  kShed = 2,       // backpressure: queue full or tenant over rate; retry
  kDuplicate = 3,  // request_id already in flight on this connection
};

struct AdmissionReplyMsg {
  std::uint64_t request_id = 0;  // echoes the submit's request_id
  DemandId id = -1;
  AdmissionStatus status = AdmissionStatus::kRejected;
  /// For kShed: suggested client backoff before resubmitting.
  double retry_after_ms = 0.0;

  bool admitted() const { return status == AdmissionStatus::kAdmitted; }
};

/// One (demand, pair) row of the bandwidth-enforcement table: rates per
/// tunnel in Mbps. An empty `tunnel_mbps` removes the row (the demand was
/// withdrawn). `backup` marks rows coming from an activated backup plan.
struct AllocationUpdateMsg {
  DemandId id = -1;
  int pair = -1;
  std::vector<double> tunnel_mbps;
  bool backup = false;
};

struct WithdrawDemandMsg {
  DemandId id = -1;
};

struct LinkStatusMsg {
  LinkId link = -1;
  bool up = true;
};

/// Scrapes the controller's metrics registry (src/obs). `format` selects
/// the exposition: "prometheus" (default when empty) or "json".
struct StatsRequestMsg {
  std::string format;
};

/// The rendered registry snapshot. `format` echoes the request.
struct StatsReplyMsg {
  std::string format;
  std::string body;
};

/// Queries the controller's availability-SLO ledger and time-series store
/// (src/obs/slo.h, src/obs/timeseries.h). `format` is "json" (default when
/// empty); `selector` restricts the payload: "" (everything), "ledger", or
/// "series".
struct SloRequestMsg {
  std::string format;
  std::string selector;
};

/// The rendered SLO payload. `format` echoes the request.
struct SloReplyMsg {
  std::string format;
  std::string body;
};

using Message = std::variant<HelloMsg, SubmitDemandMsg, AdmissionReplyMsg,
                             AllocationUpdateMsg, WithdrawDemandMsg,
                             LinkStatusMsg, StatsRequestMsg, StatsReplyMsg,
                             SloRequestMsg, SloReplyMsg>;

/// Encodes a message payload (not yet framed).
std::vector<std::uint8_t> encode_message(const Message& msg);

/// Appends one AllocationUpdate payload, the bytes encode_message writes
/// for AllocationUpdateMsg{id, pair, tunnel_mbps, backup}, to `out`. This
/// is the format's one definition (encode_message's AllocationUpdate
/// branch calls it); it allocates nothing beyond `out`'s own growth.
void append_allocation_update(std::vector<std::uint8_t>& out, DemandId id,
                              int pair, std::span<const double> tunnel_mbps,
                              bool backup);

/// Frames an allocation table into `batch`: one AllocationUpdate per
/// (demand, pair) of `demands` with its `table` rates (index-aligned), then
/// one empty, row-removing update per pair of each `removed` demand, every
/// frame carrying `ctx`. Each payload is written in place behind its frame
/// header, so the bytes equal encode_frame(encode_message(
/// AllocationUpdateMsg{...}), ctx) row by row with no temporary per row.
void add_allocation_rows(FrameBatch& batch, std::span<const Demand> demands,
                         std::span<const Allocation> table,
                         std::span<const Demand> removed, bool backup,
                         const FrameContext& ctx = {});

/// Decodes a payload. Throws std::out_of_range / std::invalid_argument on
/// malformed input.
Message decode_message(std::span<const std::uint8_t> payload);

}  // namespace bate
