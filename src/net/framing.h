// Length-prefixed message framing over a byte stream. Frames carry a 4-byte
// little-endian length followed by the payload; a size cap guards against
// corrupted peers.
//
// Trace-context extension (DESIGN.md Sec 9.6): kMaxFrameBytes < 2^24
// leaves the length word's top bits free, so bit 31 flags an optional
// 16-byte trace-context header (trace_id, span_id as little-endian u64s)
// between the length word and the payload:
//
//   [len | kFrameTraceFlag : u32 LE] [trace_id : u64 LE] [span_id : u64 LE]
//   [payload : len bytes]
//
// `len` counts ONLY the payload, never the 16 context bytes. Plain frames
// (flag clear) are byte-identical to the pre-context format, so old and
// new endpoints interoperate: a flag-less frame decodes to a zero
// (invalid) SpanContext, and encoders only set the flag when they have a
// context to send.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace bate {

inline constexpr std::size_t kMaxFrameBytes = 16 * 1024 * 1024;

/// Length-word bit flagging the 16-byte trace-context header. Safe because
/// kMaxFrameBytes fits in 24 bits.
inline constexpr std::uint32_t kFrameTraceFlag = 0x80000000u;

/// Trace identity carried in the optional frame header. trace_id == 0
/// means "none" (the flag is not sent). Mirrors obs::SpanContext without
/// dragging the obs headers into the net layer.
struct FrameContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const noexcept { return trace_id != 0; }
};

/// A decoded frame: payload plus the (possibly zero) trace context.
struct Frame {
  std::vector<std::uint8_t> payload;
  FrameContext context;
};

/// Serializes a payload into a framed buffer; attaches the trace-context
/// header when `ctx.valid()`.
std::vector<std::uint8_t> encode_frame(std::span<const std::uint8_t> payload,
                                       const FrameContext& ctx = {});

/// Accumulates many framed payloads into one contiguous buffer so a
/// pipelined sender (the controller's per-tick reply flush and allocation
/// broadcast, UserClient's submit_many) hands the kernel a single write per
/// flush instead of one per frame. The byte stream is identical to a
/// sequence of encode_frame outputs; any FrameReader decodes it. The buffer
/// grows geometrically, so building a batch costs amortized O(bytes).
class FrameBatch {
 public:
  /// Appends one framed payload (with a trace-context header when
  /// `ctx.valid()`). Throws std::length_error beyond kMaxFrameBytes.
  void add(std::span<const std::uint8_t> payload, const FrameContext& ctx = {});

  /// Appends one frame whose payload `write(buffer)` appends to the batch's
  /// buffer in place, behind the frame header, so the payload is never built
  /// apart and copied in. `write` must only append. Throws
  /// std::length_error (dropping the frame) beyond kMaxFrameBytes.
  template <typename Write>
  void add_in_place(const FrameContext& ctx, Write&& write) {
    const std::size_t start = open_frame(ctx);
    write(buffer_);
    close_frame(start);
  }

  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  std::size_t frame_count() const { return frames_; }
  bool empty() const { return frames_ == 0; }
  void clear() {
    buffer_.clear();
    frames_ = 0;
  }

 private:
  /// Writes a header with a zero length; returns the frame's offset.
  std::size_t open_frame(const FrameContext& ctx);
  /// Patches the length of the frame opened at `start`.
  void close_frame(std::size_t start);

  std::vector<std::uint8_t> buffer_;
  std::size_t frames_ = 0;
};

/// Incremental frame decoder: feed stream bytes, pop complete frames.
/// Popping a frame advances a read offset; the consumed prefix is dropped
/// once per feed, not once per frame.
class FrameReader {
 public:
  /// Appends bytes from the stream. Throws std::length_error when a frame
  /// announces a length beyond kMaxFrameBytes.
  void feed(std::span<const std::uint8_t> data);
  /// Pops the next complete frame payload, if any — discarding any trace
  /// context (legacy callers that don't trace).
  std::optional<std::vector<std::uint8_t>> next();
  /// Pops the next complete frame with its trace context (zero when the
  /// frame carried none).
  std::optional<Frame> next_frame();

  std::size_t buffered_bytes() const { return buffer_.size() - offset_; }

 private:
  std::vector<std::uint8_t> buffer_;
  /// Start of the first unread byte in buffer_.
  std::size_t offset_ = 0;
};

}  // namespace bate
