#include "core/autodriver.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace msim {

// ------------------------------------------------------------- DriverScript

DriverScript& DriverScript::add(const DriverStep& step) {
  // After every step at the same or an earlier time: (time, listing) order.
  const auto at = std::upper_bound(
      steps_.begin(), steps_.end(), step.at,
      [](Duration t, const DriverStep& s) { return t < s.at; });
  steps_.insert(at, step);
  return *this;
}

DriverScript& DriverScript::launch(Duration at, int user) {
  return add(DriverStep{at, user, DriverStep::Kind::Launch});
}
DriverScript& DriverScript::join(Duration at, int user) {
  return add(DriverStep{at, user, DriverStep::Kind::JoinEvent});
}
DriverScript& DriverScript::leave(Duration at, int user) {
  return add(DriverStep{at, user, DriverStep::Kind::LeaveEvent});
}
DriverScript& DriverScript::walkTo(Duration at, int user, double x, double y) {
  return add(DriverStep{at, user, DriverStep::Kind::WalkTo, x, y});
}
DriverScript& DriverScript::teleportTo(Duration at, int user, double x,
                                       double y) {
  return add(DriverStep{at, user, DriverStep::Kind::TeleportTo, x, y});
}
DriverScript& DriverScript::snapTurn(Duration at, int user, int steps) {
  return add(DriverStep{at, user, DriverStep::Kind::SnapTurn, 0, 0, steps});
}
DriverScript& DriverScript::faceTowards(Duration at, int user, double x,
                                        double y) {
  return add(DriverStep{at, user, DriverStep::Kind::FaceTowards, x, y});
}
DriverScript& DriverScript::clearFace(Duration at, int user) {
  return add(DriverStep{at, user, DriverStep::Kind::ClearFace});
}
DriverScript& DriverScript::act(Duration at, int user) {
  return add(DriverStep{at, user, DriverStep::Kind::Act});
}
DriverScript& DriverScript::enterGame(Duration at, int user) {
  return add(DriverStep{at, user, DriverStep::Kind::EnterGame});
}
DriverScript& DriverScript::exitGame(Duration at, int user) {
  return add(DriverStep{at, user, DriverStep::Kind::ExitGame});
}
DriverScript& DriverScript::mute(Duration at, int user, bool muted) {
  return add(DriverStep{
      at, user, muted ? DriverStep::Kind::Mute : DriverStep::Kind::Unmute});
}
DriverScript& DriverScript::wander(Duration at, int user, bool on) {
  return add(DriverStep{at, user, DriverStep::Kind::Wander, 0, 0, on ? 1 : 0});
}

namespace {
struct VerbInfo {
  const char* verb;
  DriverStep::Kind kind;
  int args;  // numeric args after the verb
};
constexpr VerbInfo kVerbs[] = {
    {"launch", DriverStep::Kind::Launch, 0},
    {"join", DriverStep::Kind::JoinEvent, 0},
    {"leave", DriverStep::Kind::LeaveEvent, 0},
    {"walk", DriverStep::Kind::WalkTo, 2},
    {"teleport", DriverStep::Kind::TeleportTo, 2},
    {"turn", DriverStep::Kind::SnapTurn, 1},
    {"face", DriverStep::Kind::FaceTowards, 2},
    {"clearface", DriverStep::Kind::ClearFace, 0},
    {"act", DriverStep::Kind::Act, 0},
    {"game", DriverStep::Kind::EnterGame, 0},
    {"endgame", DriverStep::Kind::ExitGame, 0},
    {"mute", DriverStep::Kind::Mute, 0},
    {"unmute", DriverStep::Kind::Unmute, 0},
    {"wander", DriverStep::Kind::Wander, 1},
};

bool usesCount(DriverStep::Kind kind) {
  return kind == DriverStep::Kind::SnapTurn || kind == DriverStep::Kind::Wander;
}

/// The shortest text that reads back as the same double.
std::string shortest(double v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}
}  // namespace

DriverScript DriverScript::parse(const std::string& text) {
  DriverScript script;
  std::istringstream in{text};
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto fail = [&](const std::string& what) {
      return std::invalid_argument("AutoDriver script line " +
                                   std::to_string(lineNo) + ": " + what);
    };
    // Strip comments and whitespace-only lines.
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls{line};
    double seconds = 0;
    std::string verb;
    if (!(ls >> seconds)) {
      if (ls.eof() || line.find_first_not_of(" \t\r") == std::string::npos) {
        continue;  // blank
      }
      throw fail("expected time");
    }
    if (seconds < 0) throw fail("time must not be negative");
    if (!(ls >> verb)) throw fail("expected verb");
    int user = 0;
    if (verb.front() == '@') {
      const std::string digits = verb.substr(1);
      if (digits.empty() || digits.size() > 6 ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        throw fail("user field '" + verb +
                   "' is not @ and a non-negative integer");
      }
      user = std::stoi(digits);
      if (!(ls >> verb)) throw fail("expected verb");
    }
    const VerbInfo* info = nullptr;
    for (const auto& v : kVerbs) {
      if (verb == v.verb) info = &v;
    }
    if (info == nullptr) throw fail("unknown verb '" + verb + "'");
    double args[2] = {0, 0};
    for (int i = 0; i < info->args; ++i) {
      if (!(ls >> args[i])) {
        throw fail("'" + verb + "' needs " + std::to_string(info->args) +
                   " argument(s)");
      }
    }
    DriverStep step{Duration::seconds(seconds), user, info->kind};
    if (usesCount(info->kind)) {
      step.a = static_cast<int>(args[0]);
    } else {
      step.x = args[0];
      step.y = args[1];
    }
    script.add(step);
  }
  return script;
}

std::string DriverScript::toText() const {
  std::ostringstream out;
  for (const DriverStep& s : steps_) {
    const VerbInfo* info = nullptr;
    for (const auto& v : kVerbs) {
      if (s.kind == v.kind) info = &v;
    }
    out << shortest(s.at.toSeconds());
    if (s.user != 0) out << " @" << s.user;
    out << ' ' << info->verb;
    if (usesCount(s.kind)) {
      out << ' ' << s.a;
    } else if (info->args == 2) {
      out << ' ' << shortest(s.x) << ' ' << shortest(s.y);
    }
    out << '\n';
  }
  return out.str();
}

// --------------------------------------------------------------- AutoDriver

TimePoint AutoDriver::play(const DriverScript& script) {
  const std::size_t users = bed_.users().size();
  for (const DriverStep& step : script.steps()) {
    if (step.user < 0 || static_cast<std::size_t>(step.user) >= users) {
      throw std::invalid_argument(
          "AutoDriver: a step at " + shortest(step.at.toSeconds()) +
          " s drives user " + std::to_string(step.user) +
          ", but the testbed has " + std::to_string(users) + " users");
    }
  }
  if (actions_.size() < users) actions_.resize(users);
  TimePoint last = TimePoint::epoch();
  for (const DriverStep& step : script.steps()) {
    const TimePoint at = TimePoint::epoch() + step.at;
    last = std::max(last, at);
    bed_.sim().schedule(at, [this, step] { apply(step); });
  }
  return last;
}

const std::vector<std::uint64_t>& AutoDriver::actionsPerformed(int user) const {
  static const std::vector<std::uint64_t> kNone;
  return user >= 0 && static_cast<std::size_t>(user) < actions_.size()
             ? actions_[static_cast<std::size_t>(user)]
             : kNone;
}

void AutoDriver::apply(const DriverStep& step) {
  PlatformClient& client = *bed_.user(static_cast<std::size_t>(step.user)).client;
  switch (step.kind) {
    case DriverStep::Kind::Launch: client.launch(); return;
    case DriverStep::Kind::JoinEvent: client.joinEvent(); return;
    case DriverStep::Kind::LeaveEvent: client.leaveEvent(); return;
    case DriverStep::Kind::WalkTo: client.motion().walkTo(step.x, step.y); return;
    case DriverStep::Kind::TeleportTo:
      client.motion().teleportTo(step.x, step.y);
      return;
    case DriverStep::Kind::SnapTurn: client.motion().turnSteps(step.a); return;
    case DriverStep::Kind::FaceTowards: client.setFaceTarget(step.x, step.y); return;
    case DriverStep::Kind::ClearFace: client.clearFaceTarget(); return;
    case DriverStep::Kind::Act: {
      const std::uint64_t id = bed_.nextActionId();
      actions_[static_cast<std::size_t>(step.user)].push_back(id);
      client.performVisibleAction(id);
      return;
    }
    case DriverStep::Kind::EnterGame: client.enterGameMode(); return;
    case DriverStep::Kind::ExitGame: client.exitGameMode(); return;
    case DriverStep::Kind::Mute: client.setMuted(true); return;
    case DriverStep::Kind::Unmute: client.setMuted(false); return;
    case DriverStep::Kind::Wander: client.setWandering(step.a != 0); return;
  }
}

}  // namespace msim
