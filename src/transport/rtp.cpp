#include "transport/rtp.hpp"

namespace msim {

RtpSession::RtpSession(Node& node, std::uint16_t localPort)
    : socket_{node, localPort} {
  socket_.onReceive([this](const Packet& p, const Endpoint& from) {
    handleDatagram(p, from);
  });
}

void RtpSession::sendFrame(ByteSize size, std::shared_ptr<const Message> message) {
  if (remote_.addr.isUnspecified()) return;
  std::shared_ptr<const Message> msg = std::move(message);
  if (msg == nullptr) {
    auto m = std::make_shared<Message>();
    m->kind = rtpmsg::kFrame;
    m->size = size;
    m->sequence = nextSeq_;
    m->createdAt = socket_.node().sim().now();
    msg = std::move(m);
  }
  ++nextSeq_;
  ++framesSent_;
  socket_.sendTo(remote_, size, std::move(msg), wire::kDtlsSrtp);
}

void RtpSession::startRtcp(Duration interval) {
  rtcpTask_ = std::make_unique<PeriodicTask>(socket_.node().sim(), interval,
                                             [this] { sendSenderReport(); });
}

void RtpSession::sendSenderReport() {
  if (remote_.addr.isUnspecified()) return;
  const std::uint64_t srId = nextSrId_++;
  outstandingSr_[srId] = socket_.node().sim().now();
  // Bound memory if the peer never answers.
  while (outstandingSr_.size() > 64) outstandingSr_.erase(outstandingSr_.begin());
  auto m = std::make_shared<Message>();
  m->kind = rtpmsg::kSenderReport;
  m->size = ByteSize::bytes(52);
  m->sequence = srId;
  const ByteSize size = m->size;
  socket_.sendTo(remote_, size, std::move(m), wire::kDtlsSrtp);
}

void RtpSession::handleDatagram(const Packet& p, const Endpoint& from) {
  const Message* m = p.primaryMessage();
  if (m == nullptr) {
    if (onFrame_) onFrame_(p, from);
    return;
  }
  if (m->kind == rtpmsg::kSenderReport) {
    // Answer with a receiver report echoing the SR id (DLSR ~ 0: we reply
    // immediately, like a well-behaved stack).
    auto rr = std::make_shared<Message>();
    rr->kind = rtpmsg::kReceiverReport;
    rr->size = ByteSize::bytes(32);
    rr->sequence = m->sequence;
    const ByteSize size = rr->size;
    socket_.sendTo(from, size, std::move(rr), wire::kDtlsSrtp);
    return;
  }
  if (m->kind == rtpmsg::kReceiverReport) {
    const auto it = outstandingSr_.find(m->sequence);
    if (it != outstandingSr_.end()) {
      lastRtt_ = socket_.node().sim().now() - it->second;
      outstandingSr_.erase(it);
    }
    return;
  }
  ++framesReceived_;
  if (onFrame_) onFrame_(p, from);
}

}  // namespace msim
