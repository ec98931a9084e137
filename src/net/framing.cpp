#include "net/framing.h"

#include <cstring>
#include <stdexcept>

namespace bate {

namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

/// The frame header: the length word, trace-flagged with the 16-byte
/// context behind it when `ctx.valid()`.
void append_header(std::vector<std::uint8_t>& out, std::uint32_t len,
                   const FrameContext& ctx) {
  if (!ctx.valid()) {
    append_u32(out, len);
    return;
  }
  append_u32(out, len | kFrameTraceFlag);
  append_u64(out, ctx.trace_id);
  append_u64(out, ctx.span_id);
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload,
                                       const FrameContext& ctx) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::length_error("encode_frame: payload too large");
  }
  std::vector<std::uint8_t> out;
  out.reserve(4 + (ctx.valid() ? 16 : 0) + payload.size());
  append_header(out, static_cast<std::uint32_t>(payload.size()), ctx);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameBatch::add(std::span<const std::uint8_t> payload,
                     const FrameContext& ctx) {
  add_in_place(ctx, [&](std::vector<std::uint8_t>& out) {
    out.insert(out.end(), payload.begin(), payload.end());
  });
}

std::size_t FrameBatch::open_frame(const FrameContext& ctx) {
  const std::size_t start = buffer_.size();
  // No exact reserve: the vector's own geometric growth keeps appends
  // amortized O(1) per byte.
  append_header(buffer_, 0, ctx);
  return start;
}

void FrameBatch::close_frame(std::size_t start) {
  const std::uint32_t flag = read_u32(buffer_.data() + start);  // len 0
  const std::size_t header = 4 + (flag != 0 ? 16 : 0);
  const std::size_t len = buffer_.size() - start - header;
  if (len > kMaxFrameBytes) {
    buffer_.resize(start);
    throw std::length_error("FrameBatch: payload too large");
  }
  const std::uint32_t word = flag | static_cast<std::uint32_t>(len);
  for (int i = 0; i < 4; ++i) {
    buffer_[start + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((word >> (8 * i)) & 0xFF);
  }
  ++frames_;
}

void FrameReader::feed(std::span<const std::uint8_t> data) {
  // Drop what next_frame() consumed since the last feed: one move of the
  // unread tail per feed, however many frames were popped.
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
  offset_ = 0;
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  if (buffer_.size() >= 4) {
    // Mask the trace flag before the size check: the length field proper
    // is the low bits only.
    const std::uint32_t len = read_u32(buffer_.data()) & ~kFrameTraceFlag;
    if (len > kMaxFrameBytes) {
      throw std::length_error("FrameReader: oversized frame");
    }
  }
}

std::optional<Frame> FrameReader::next_frame() {
  const std::size_t available = buffer_.size() - offset_;
  if (available < 4) return std::nullopt;
  const std::uint8_t* front = buffer_.data() + offset_;
  const std::uint32_t word = read_u32(front);
  const bool traced = (word & kFrameTraceFlag) != 0;
  const std::uint32_t len = word & ~kFrameTraceFlag;
  if (len > kMaxFrameBytes) {
    throw std::length_error("FrameReader: oversized frame");
  }
  const std::size_t header = 4 + (traced ? 16 : 0);
  if (available < header + static_cast<std::size_t>(len)) {
    return std::nullopt;
  }
  Frame frame;
  if (traced) {
    frame.context.trace_id = read_u64(front + 4);
    frame.context.span_id = read_u64(front + 12);
  }
  frame.payload.assign(front + header, front + header + len);
  offset_ += header + len;
  return frame;
}

std::optional<std::vector<std::uint8_t>> FrameReader::next() {
  auto frame = next_frame();
  if (!frame) return std::nullopt;
  return std::move(frame->payload);
}

}  // namespace bate
