#include "platform/control.hpp"

namespace msim {

ControlService::ControlService(Node& node, const PlatformSpec& platform,
                               std::uint16_t port)
    : server_{node, port} {
  const ControlSpec control = platform.control;
  const ContentSpec content = platform.content;

  server_.route(controlpath::kMenu, [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = ByteSize::kilobytes(4);  // menu state blobs are small
    return resp;
  });

  server_.route(controlpath::kReport, [control](const HttpRequest&) {
    HttpResponse resp;
    resp.body = control.spikeDownloadBytes;  // Worlds: none; AltspaceVR: ~6 KB
    return resp;
  });

  server_.route(controlpath::kClockSync, [](const HttpRequest&) {
    HttpResponse resp;
    resp.body = ByteSize::bytes(64);  // a timestamp exchange
    return resp;
  });

  server_.route(controlpath::kContentInit, [content](const HttpRequest&) {
    HttpResponse resp;
    resp.body = content.initDownload;
    return resp;
  });
  server_.route(controlpath::kContentLaunch, [content](const HttpRequest&) {
    HttpResponse resp;
    resp.body = content.perLaunchDownload;
    return resp;
  });
  server_.route(controlpath::kContentJoin, [content](const HttpRequest&) {
    HttpResponse resp;
    resp.body = content.perJoinDownload;
    return resp;
  });
}

}  // namespace msim
