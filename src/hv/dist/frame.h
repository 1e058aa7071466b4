// Length-prefixed frame codec for the distributed verification service.
//
// Every message on a coordinator/worker connection is one frame:
//
//   +------+------+----------------------+
//   | HVF1 | len  | payload (len bytes)  |
//   +------+------+----------------------+
//    4 B    4 B big-endian
//
// The payload is a JSON object (hv/util/json.h); the codec itself is
// payload-agnostic. Reads classify every failure mode instead of throwing:
// a clean EOF between frames is a normal worker departure, a torn frame is
// a mid-message death, a bad magic or an oversized length is a protocol
// violation (the length cap keeps a garbage or hostile peer from making
// the receiver allocate gigabytes). Writes are atomic with respect to
// other writers of the same fd only if the caller serializes them (see
// protocol.h's Conn).
#ifndef HV_DIST_FRAME_H
#define HV_DIST_FRAME_H

#include <cstddef>
#include <string>
#include <string_view>

namespace hv::dist {

inline constexpr char kFrameMagic[4] = {'H', 'V', 'F', '1'};
/// Hard cap on one frame's payload. Certify-mode records carry whole proof
/// trees, so the cap is generous; anything above it is a protocol error.
inline constexpr std::size_t kMaxFrameBytes = 64u * 1024u * 1024u;

enum class FrameStatus {
  kOk,         // one complete frame read
  kClosed,     // clean EOF on a frame boundary (peer departed)
  kTimeout,    // no complete frame within the deadline
  kTorn,       // EOF mid-frame (peer died while sending)
  kBadMagic,   // stream is not speaking this protocol
  kOversized,  // declared length exceeds max_bytes
  kError,      // read(2)/poll(2) failure
};

const char* to_string(FrameStatus status);

/// Writes one frame. Returns false on any write failure (EPIPE included;
/// the caller must have SIGPIPE suppressed — write_frame uses send() with
/// MSG_NOSIGNAL on sockets and is the only writer the protocol uses).
bool write_frame(int fd, std::string_view payload);

/// Incremental reader of one fd's frame stream. It never reads past the end
/// of the frame it is decoding, and a kTimeout keeps the bytes of a partial
/// frame for the next call: a timeout never loses bytes, so a deadline that
/// expires while a large frame arrives in pieces leaves the stream intact.
class FrameReader {
 public:
  /// Reads one frame into `*payload`. `timeout_ms` < 0 blocks indefinitely;
  /// otherwise the deadline covers this call, not each byte. On any status
  /// other than kOk the payload is left empty. Every status but kOk and
  /// kTimeout ends the stream; the reader then starts afresh.
  FrameStatus read(int fd, std::string* payload, int timeout_ms,
                   std::size_t max_bytes = kMaxFrameBytes);

  /// True while part of a frame has been read but not yet returned.
  bool mid_frame() const noexcept { return header_got_ > 0; }

 private:
  void reset();

  char header_[8] = {};
  std::size_t header_got_ = 0;
  std::string body_;
  std::size_t body_got_ = 0;
};

/// One-shot read_frame on a fresh FrameReader: a kTimeout after part of a
/// frame arrived drops that part, leaving the fd mid-frame. Long-lived
/// connections read through a FrameReader (Conn does).
FrameStatus read_frame(int fd, std::string* payload, int timeout_ms,
                       std::size_t max_bytes = kMaxFrameBytes);

}  // namespace hv::dist

#endif  // HV_DIST_FRAME_H
