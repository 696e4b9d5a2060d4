#pragma once

// The control-channel service (§4.1): every platform runs it over HTTPS.
// It serves menu interactions, periodic client reports (the AltspaceVR and
// Worlds spikes), game clock synchronization (Worlds, §8.1), and background
// content downloads (§5.2).

#include <memory>

#include "platform/spec.hpp"
#include "transport/http.hpp"

namespace msim {

/// Routes exposed by every platform's control server.
namespace controlpath {
inline constexpr const char* kMenu = "/menu";
inline constexpr const char* kReport = "/report";
inline constexpr const char* kClockSync = "/clocksync";
inline constexpr const char* kContentInit = "/content/init";
inline constexpr const char* kContentLaunch = "/content/launch";
inline constexpr const char* kContentJoin = "/content/join";
}  // namespace controlpath

/// One control-server instance bound to a node.
class ControlService {
 public:
  ControlService(Node& node, const PlatformSpec& platform,
                 std::uint16_t port = 443);

  ControlService(const ControlService&) = delete;
  ControlService& operator=(const ControlService&) = delete;

  [[nodiscard]] Node& node() { return server_.node(); }
  [[nodiscard]] std::uint64_t requestsServed() const {
    return server_.requestsServed();
  }

 private:
  HttpServer server_;
};

}  // namespace msim
