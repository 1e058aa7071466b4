#include "hv/dist/frame.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <utility>

namespace hv::dist {

namespace {

using Clock = std::chrono::steady_clock;

// Remaining milliseconds of a deadline, clamped for poll(); -1 = infinite.
int remaining_ms(int timeout_ms, Clock::time_point start) {
  if (timeout_ms < 0) return -1;
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - start).count();
  const auto left = static_cast<std::int64_t>(timeout_ms) - elapsed;
  return left > 0 ? static_cast<int>(left) : 0;
}

enum class ReadStatus { kOk, kEof, kTimeout, kError };

// Reads between 1 and `size` bytes under the shared deadline into `buffer`,
// adding the count to `*got`.
ReadStatus read_some(int fd, char* buffer, std::size_t size, std::size_t* got, int timeout_ms,
                     Clock::time_point start) {
  for (;;) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int left = remaining_ms(timeout_ms, start);
    if (left == 0) return ReadStatus::kTimeout;
    const int ready = ::poll(&pfd, 1, left);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    if (ready == 0) return ReadStatus::kTimeout;
    const ssize_t n = ::read(fd, buffer, size);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ReadStatus::kError;
    }
    if (n == 0) return ReadStatus::kEof;
    *got += static_cast<std::size_t>(n);
    return ReadStatus::kOk;
  }
}

bool write_exact(int fd, const void* buffer, std::size_t size) {
  const auto* data = static_cast<const char*>(buffer);
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a worker writing to a dead coordinator must get EPIPE,
    // not a process-killing SIGPIPE. Falls back to write() for pipe fds
    // (tests use socketpairs, so the send() path is the one exercised).
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, data + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const char* to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kClosed:
      return "closed";
    case FrameStatus::kTimeout:
      return "timeout";
    case FrameStatus::kTorn:
      return "torn";
    case FrameStatus::kBadMagic:
      return "bad-magic";
    case FrameStatus::kOversized:
      return "oversized";
    case FrameStatus::kError:
      return "error";
  }
  return "?";
}

bool write_frame(int fd, std::string_view payload) {
  char header[8];
  std::memcpy(header, kFrameMagic, 4);
  const auto size = static_cast<std::uint32_t>(payload.size());
  header[4] = static_cast<char>((size >> 24) & 0xff);
  header[5] = static_cast<char>((size >> 16) & 0xff);
  header[6] = static_cast<char>((size >> 8) & 0xff);
  header[7] = static_cast<char>(size & 0xff);
  if (payload.size() > kMaxFrameBytes) return false;
  if (!write_exact(fd, header, sizeof header)) return false;
  return write_exact(fd, payload.data(), payload.size());
}

void FrameReader::reset() {
  header_got_ = 0;
  body_.clear();
  body_got_ = 0;
}

FrameStatus FrameReader::read(int fd, std::string* payload, int timeout_ms,
                              std::size_t max_bytes) {
  payload->clear();
  const Clock::time_point start = Clock::now();
  // Maps a failed read to its frame status. EOF before the first byte of a
  // frame is a clean close, after it a torn frame. Only a timeout keeps the
  // partial frame; every other failure ends the stream.
  const auto fail = [&](ReadStatus status) {
    if (status == ReadStatus::kTimeout) return FrameStatus::kTimeout;
    const bool boundary = header_got_ == 0;
    reset();
    if (status == ReadStatus::kError) return FrameStatus::kError;
    return boundary ? FrameStatus::kClosed : FrameStatus::kTorn;
  };
  while (header_got_ < sizeof header_) {
    const ReadStatus status = read_some(fd, header_ + header_got_, sizeof header_ - header_got_,
                                        &header_got_, timeout_ms, start);
    if (status != ReadStatus::kOk) return fail(status);
  }
  if (std::memcmp(header_, kFrameMagic, 4) != 0) {
    reset();
    return FrameStatus::kBadMagic;
  }
  const auto byte = [&](int i) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(header_[i]));
  };
  const std::uint32_t size = (byte(4) << 24) | (byte(5) << 16) | (byte(6) << 8) | byte(7);
  if (size > max_bytes) {
    reset();
    return FrameStatus::kOversized;
  }
  if (body_got_ == 0) body_.resize(size);
  while (body_got_ < size) {
    const ReadStatus status =
        read_some(fd, body_.data() + body_got_, size - body_got_, &body_got_, timeout_ms, start);
    if (status != ReadStatus::kOk) return fail(status);
  }
  *payload = std::move(body_);
  reset();
  return FrameStatus::kOk;
}

FrameStatus read_frame(int fd, std::string* payload, int timeout_ms, std::size_t max_bytes) {
  FrameReader reader;
  return reader.read(fd, payload, timeout_ms, max_bytes);
}

}  // namespace hv::dist
