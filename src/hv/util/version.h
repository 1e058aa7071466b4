// Version of the hvc toolchain, recorded in progress-journal headers and
// exchanged in the distributed-checking handshake: schema cursors are only
// comparable between identical enumeration implementations, so both resume
// and work distribution refuse to mix versions.
#ifndef HV_UTIL_VERSION_H
#define HV_UTIL_VERSION_H

namespace hv {

inline constexpr const char* kHvcVersion = "1.0.0";

/// Wire-protocol revision of the distributed checking service (hv/dist).
/// Bumped on any frame- or message-format change; coordinator and worker
/// refuse to pair across revisions, and it is the fleet's only
/// compatibility mechanism (dist/protocol.h).
inline constexpr int kDistProtocolVersion = 3;

/// Wire-protocol revision of the multi-tenant verification service
/// (hv/service): the client frames of hvc submit/status/result/cancel.
/// Bumped on any message-format change; the daemon rejects mismatched
/// clients with a precise error frame instead of undefined behavior.
inline constexpr int kServiceProtocolVersion = 2;

}  // namespace hv

#endif  // HV_UTIL_VERSION_H
