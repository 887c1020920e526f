// Socket framing for the vacd protocol: the campaign pipe-framing
// discipline (campaign/worker.h) applied to a connected stream socket.
// Every message is `magic u32 | length u32 | payload` little-endian; the
// magic ("AVNF", distinct from the campaign workers' "AVWF") rejects
// cross-protocol connects immediately instead of misparsing a length.
//
// ReadNetFrame/WriteNetFrame are the blocking client side; the deadline
// is enforced by SO_RCVTIMEO/SO_SNDTIMEO on the socket, which surfaces
// here as DeadlineExceeded. A clean EOF before any header byte is
// NotFound ("connection closed"), so a caller can tell a hang-up from a
// torn frame. Servers decode with FrameDecoder on non-blocking sockets.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"

namespace autovac::net {

// "AVNF" little-endian: AutoVac Net Frame.
inline constexpr uint32_t kNetFrameMagic = 0x464E5641;
inline constexpr size_t kNetFrameHeaderSize = 8;
// Protocol messages are JSON requests/replies; 64 MB is far above any
// realistic vaccine feed page and far below the campaign frame cap.
inline constexpr size_t kMaxNetFramePayload = 64u << 20;

// Header + payload as raw bytes — what WriteNetFrame puts on the wire.
// The chaos proxy uses this to cut a relayed frame at an exact byte.
[[nodiscard]] std::string EncodeNetFrame(std::string_view payload);

// Writes one frame; retries EINTR, maps timeouts to DeadlineExceeded.
[[nodiscard]] Status WriteNetFrame(int fd, std::string_view payload);

// Reads exactly one frame.
[[nodiscard]] Result<std::string> ReadNetFrame(int fd);

// Incremental frame parser for non-blocking connections: feed whatever
// the socket had, take out however many complete frames arrived. The
// event-loop tier's per-connection read state machine — a frame split
// across any number of reads reassembles, pipelined frames in one read
// all come out.
class FrameDecoder {
 public:
  void Append(std::string_view bytes) { buffer_.append(bytes); }

  // Extracts the next complete frame's payload into `*payload`. Returns
  // true when one was extracted, false when more bytes are needed, and
  // InvalidArgument on a malformed header (bad magic / oversize length)
  // — after which the stream is unrecoverable and should be closed.
  [[nodiscard]] Result<bool> Next(std::string* payload);

  // Bytes buffered but not yet consumed (a flow-control signal: a
  // client that pipelines faster than it reads replies shows up here).
  [[nodiscard]] size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  size_t pos_ = 0;  // consumed prefix, compacted opportunistically
};

}  // namespace autovac::net
