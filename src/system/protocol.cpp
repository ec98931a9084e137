#include "system/protocol.h"

#include <stdexcept>

#include "net/codec.h"
#include "util/check.h"

namespace bate {

namespace {

void encode_demand(BufferWriter& w, const Demand& d) {
  w.i32(d.id);
  w.u32(static_cast<std::uint32_t>(d.pairs.size()));
  for (const PairDemand& p : d.pairs) {
    w.i32(p.pair);
    w.f64(p.mbps);
  }
  w.f64(d.availability_target);
  w.f64(d.charge);
  w.f64(d.refund_fraction);
  w.u32(static_cast<std::uint32_t>(d.refund_tiers.size()));
  for (const RefundTier& tier : d.refund_tiers) {
    w.f64(tier.below);
    w.f64(tier.fraction);
  }
  w.f64(d.arrival_minute);
  w.f64(d.duration_minutes);
}

Demand decode_demand(BufferReader& r) {
  Demand d;
  d.id = r.i32();
  d.pairs.resize(r.count(4 + 8));  // i32 pair, f64 mbps
  for (auto& p : d.pairs) {
    p.pair = r.i32();
    p.mbps = r.f64();
  }
  d.availability_target = r.f64();
  d.charge = r.f64();
  d.refund_fraction = r.f64();
  d.refund_tiers.resize(r.count(8 + 8));  // f64 below, f64 fraction
  for (auto& tier : d.refund_tiers) {
    tier.below = r.f64();
    tier.fraction = r.f64();
  }
  d.arrival_minute = r.f64();
  d.duration_minutes = r.f64();
  return d;
}

}  // namespace

std::vector<std::uint8_t> encode_message(const Message& msg) {
  std::vector<std::uint8_t> out;
  BufferWriter w(out);
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, HelloMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kHello));
          w.str(m.role);
          w.i32(m.dc);
        } else if constexpr (std::is_same_v<T, SubmitDemandMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kSubmitDemand));
          w.u64(m.request_id);
          encode_demand(w, m.demand);
        } else if constexpr (std::is_same_v<T, AdmissionReplyMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kAdmissionReply));
          w.u64(m.request_id);
          w.i32(m.id);
          w.u8(static_cast<std::uint8_t>(m.status));
          w.f64(m.retry_after_ms);
        } else if constexpr (std::is_same_v<T, AllocationUpdateMsg>) {
          append_allocation_update(out, m.id, m.pair, m.tunnel_mbps,
                                   m.backup);
        } else if constexpr (std::is_same_v<T, WithdrawDemandMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kWithdrawDemand));
          w.i32(m.id);
        } else if constexpr (std::is_same_v<T, LinkStatusMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kLinkStatus));
          w.i32(m.link);
          w.u8(m.up ? 1 : 0);
        } else if constexpr (std::is_same_v<T, StatsRequestMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kStatsRequest));
          w.str(m.format);
        } else if constexpr (std::is_same_v<T, StatsReplyMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kStatsReply));
          w.str(m.format);
          w.str(m.body);
        } else if constexpr (std::is_same_v<T, SloRequestMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kSloRequest));
          w.str(m.format);
          w.str(m.selector);
        } else if constexpr (std::is_same_v<T, SloReplyMsg>) {
          w.u8(static_cast<std::uint8_t>(MsgType::kSloReply));
          w.str(m.format);
          w.str(m.body);
        }
      },
      msg);
  return out;
}

void append_allocation_update(std::vector<std::uint8_t>& out, DemandId id,
                              int pair, std::span<const double> tunnel_mbps,
                              bool backup) {
  BufferWriter w(out);
  w.u8(static_cast<std::uint8_t>(MsgType::kAllocationUpdate));
  w.i32(id);
  w.i32(pair);
  w.f64_vec(tunnel_mbps);
  w.u8(backup ? 1 : 0);
}

void add_allocation_rows(FrameBatch& batch, std::span<const Demand> demands,
                         std::span<const Allocation> table,
                         std::span<const Demand> removed, bool backup,
                         const FrameContext& ctx) {
  BATE_DCHECK_MSG(demands.size() == table.size(),
                  "protocol: demand/allocation desync");
  for (std::size_t i = 0; i < demands.size(); ++i) {
    for (std::size_t p = 0; p < demands[i].pairs.size(); ++p) {
      batch.add_in_place(ctx, [&](std::vector<std::uint8_t>& out) {
        append_allocation_update(out, demands[i].id, demands[i].pairs[p].pair,
                                 table[i][p], backup);
      });
    }
  }
  for (const Demand& d : removed) {
    for (const PairDemand& pd : d.pairs) {
      batch.add_in_place(ctx, [&](std::vector<std::uint8_t>& out) {
        append_allocation_update(out, d.id, pd.pair, {}, backup);
      });
    }
  }
}

Message decode_message(std::span<const std::uint8_t> payload) {
  BufferReader r(payload);
  const auto type = static_cast<MsgType>(r.u8());
  switch (type) {
    case MsgType::kHello: {
      HelloMsg m;
      m.role = r.str();
      m.dc = r.i32();
      return m;
    }
    case MsgType::kSubmitDemand: {
      SubmitDemandMsg m;
      m.request_id = r.u64();
      m.demand = decode_demand(r);
      return m;
    }
    case MsgType::kAdmissionReply: {
      AdmissionReplyMsg m;
      m.request_id = r.u64();
      m.id = r.i32();
      const std::uint8_t status = r.u8();
      if (status > static_cast<std::uint8_t>(AdmissionStatus::kDuplicate)) {
        throw std::invalid_argument("decode_message: bad admission status");
      }
      m.status = static_cast<AdmissionStatus>(status);
      m.retry_after_ms = r.f64();
      return m;
    }
    case MsgType::kAllocationUpdate: {
      AllocationUpdateMsg m;
      m.id = r.i32();
      m.pair = r.i32();
      m.tunnel_mbps = r.f64_vec();
      m.backup = r.u8() != 0;
      return m;
    }
    case MsgType::kWithdrawDemand: {
      WithdrawDemandMsg m;
      m.id = r.i32();
      return m;
    }
    case MsgType::kLinkStatus: {
      LinkStatusMsg m;
      m.link = r.i32();
      m.up = r.u8() != 0;
      return m;
    }
    case MsgType::kStatsRequest: {
      StatsRequestMsg m;
      m.format = r.str();
      return m;
    }
    case MsgType::kStatsReply: {
      StatsReplyMsg m;
      m.format = r.str();
      m.body = r.str();
      return m;
    }
    case MsgType::kSloRequest: {
      SloRequestMsg m;
      m.format = r.str();
      m.selector = r.str();
      return m;
    }
    case MsgType::kSloReply: {
      SloReplyMsg m;
      m.format = r.str();
      m.body = r.str();
      return m;
    }
  }
  throw std::invalid_argument("decode_message: unknown type");
}

}  // namespace bate
