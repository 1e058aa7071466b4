#include "hv/dist/chaos.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "hv/dist/frame.h"
#include "hv/util/hash.h"

namespace hv::dist {

namespace {

/// Writes a frame header declaring the full payload length, then only the
/// first half of the payload, then kills the stream: the receiver sees a
/// torn frame (EOF mid-message), exactly like a peer dying mid-send.
void send_truncated(int fd, std::string_view payload) {
  unsigned char header[8];
  std::memcpy(header, kFrameMagic, 4);
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  header[4] = static_cast<unsigned char>((length >> 24) & 0xff);
  header[5] = static_cast<unsigned char>((length >> 16) & 0xff);
  header[6] = static_cast<unsigned char>((length >> 8) & 0xff);
  header[7] = static_cast<unsigned char>(length & 0xff);
  (void)::send(fd, header, sizeof(header), MSG_NOSIGNAL);
  (void)::send(fd, payload.data(), payload.size() / 2, MSG_NOSIGNAL);
  ::shutdown(fd, SHUT_RDWR);
}

}  // namespace

NetFaultPlan net_fault_plan_from_env() {
  NetFaultPlan plan;
  const char* kind = std::getenv("HV_NET_FAULT_KIND");
  if (kind == nullptr) return plan;
  if (std::strcmp(kind, "delay") == 0) {
    plan.kind = NetFaultKind::kDelay;
  } else if (std::strcmp(kind, "drop") == 0) {
    plan.kind = NetFaultKind::kDrop;
  } else if (std::strcmp(kind, "dup") == 0) {
    plan.kind = NetFaultKind::kDup;
  } else if (std::strcmp(kind, "reorder") == 0) {
    plan.kind = NetFaultKind::kReorder;
  } else if (std::strcmp(kind, "truncate") == 0) {
    plan.kind = NetFaultKind::kTruncate;
  } else if (std::strcmp(kind, "partition") == 0) {
    plan.kind = NetFaultKind::kPartition;
  } else if (std::strcmp(kind, "mix") == 0) {
    plan.kind = NetFaultKind::kMix;
  } else {
    return plan;  // unknown kind: stay disarmed
  }
  plan.rate = 0.02;
  if (const char* rate = std::getenv("HV_NET_FAULT_RATE")) plan.rate = std::atof(rate);
  if (plan.rate < 0.0) plan.rate = 0.0;
  if (plan.rate > 1.0) plan.rate = 1.0;
  if (const char* seed = std::getenv("HV_NET_FAULT_SEED")) {
    plan.seed = std::strtoull(seed, nullptr, 10);
  }
  return plan;
}

ChaosLink::ChaosLink(const NetFaultPlan& plan, std::uint64_t link_serial) : plan_(plan) {
  std::uint64_t mix = plan.seed;
  for (std::uint64_t i = 0; i <= link_serial; ++i) splitmix64_next(mix);
  state_ = mix;
}

NetFaultKind ChaosLink::next_fault() {
  if (!plan_.armed()) return NetFaultKind::kNone;
  if (unit_interval(splitmix64_next(state_)) >= plan_.rate) return NetFaultKind::kNone;
  if (plan_.kind != NetFaultKind::kMix) return plan_.kind;
  static constexpr NetFaultKind kMenu[] = {
      NetFaultKind::kDelay,   NetFaultKind::kDrop,     NetFaultKind::kDup,
      NetFaultKind::kReorder, NetFaultKind::kTruncate, NetFaultKind::kPartition,
  };
  return kMenu[splitmix64_next(state_) % (sizeof(kMenu) / sizeof(kMenu[0]))];
}

bool ChaosLink::send(int fd, std::string_view payload) {
  if (partitioned_) return true;  // swallowed; the peer will time us out
  bool duplicate = false;
  switch (next_fault()) {
    case NetFaultKind::kNone:
    case NetFaultKind::kMix:
      break;
    case NetFaultKind::kDelay:
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1 + static_cast<int>(splitmix64_next(state_) % 25)));
      break;
    case NetFaultKind::kDrop:
      // A reliable stream can only lose a frame by dying with it.
      ::shutdown(fd, SHUT_RDWR);
      return true;
    case NetFaultKind::kDup:
      duplicate = true;
      break;
    case NetFaultKind::kReorder:
      if (!held_) {
        held_ = std::string(payload);
        return true;  // delivered later, after the next frame overtakes it
      }
      break;  // already holding one frame; deliver normally
    case NetFaultKind::kTruncate:
      send_truncated(fd, payload);
      return true;
    case NetFaultKind::kPartition:
      partitioned_ = true;
      ::shutdown(fd, SHUT_WR);  // the peer sees a prompt EOF, not a stall
      return true;
  }
  bool ok = write_frame(fd, payload);
  if (duplicate) ok = write_frame(fd, payload) && ok;
  if (held_) {
    ok = write_frame(fd, *held_) && ok;
    held_.reset();
  }
  return ok;
}

void ChaosLink::flush(int fd) {
  if (!held_ || partitioned_) return;
  (void)write_frame(fd, *held_);
  held_.reset();
}

}  // namespace hv::dist
