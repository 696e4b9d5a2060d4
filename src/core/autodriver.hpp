#pragma once

// AutoDriver — scripted session playback (§9).
//
// The paper's authors note they are extending Oculus' AutoDriver tool (which
// "enables the test of VR applications by automatically playing back
// pre-defined inputs") to run large-scale crowd-sourced experiments. This is
// that tool for the simulator: a declarative script of timed inputs — launch,
// join, walk, snap-turn, act, game on/off, mute, leave — each naming the
// Testbed user it drives. It is the one way experiments, benches, examples
// and the CLI send inputs to a PlatformClient.

#include <string>
#include <vector>

#include "core/testbed.hpp"

namespace msim {

/// One scripted input.
struct DriverStep {
  enum class Kind : std::uint8_t {
    Launch,
    JoinEvent,
    LeaveEvent,
    WalkTo,        // x, y
    TeleportTo,    // x, y
    SnapTurn,      // steps of 22.5° (a = step count, signed)
    FaceTowards,   // x, y
    ClearFace,
    Act,           // perform a visible action (latency-probe marker)
    EnterGame,
    ExitGame,
    Mute,
    Unmute,
    Wander,        // a != 0 -> on
  };

  Duration at;  // relative to playback start
  int user{0};  // Testbed::user(i) this step drives
  Kind kind{Kind::Launch};
  double x{0};
  double y{0};
  int a{0};
};

/// A reusable input script. Steps stay in (time, listing) order: a step
/// lands after every step listed before it at the same or an earlier time.
class DriverScript {
 public:
  DriverScript& launch(Duration at, int user);
  DriverScript& join(Duration at, int user);
  DriverScript& leave(Duration at, int user);
  DriverScript& walkTo(Duration at, int user, double x, double y);
  DriverScript& teleportTo(Duration at, int user, double x, double y);
  DriverScript& snapTurn(Duration at, int user, int steps);
  DriverScript& faceTowards(Duration at, int user, double x, double y);
  DriverScript& clearFace(Duration at, int user);
  DriverScript& act(Duration at, int user);
  DriverScript& enterGame(Duration at, int user);
  DriverScript& exitGame(Duration at, int user);
  DriverScript& mute(Duration at, int user, bool muted);
  DriverScript& wander(Duration at, int user, bool on);
  /// Any step, e.g. one copied from another script.
  DriverScript& add(const DriverStep& step);

  /// Parses the line format emitted by toText(): one step per line,
  ///   <seconds> [@<user>] <verb> [args...]
  /// e.g. "0 launch", "5 @1 join", "12.5 walk 3 -2", "250 turn 8". A line
  /// without a user field drives user 0. Unknown verbs, malformed lines,
  /// negative times and user fields that are not a non-negative integer
  /// throw std::invalid_argument.
  [[nodiscard]] static DriverScript parse(const std::string& text);
  [[nodiscard]] std::string toText() const;

  [[nodiscard]] const std::vector<DriverStep>& steps() const { return steps_; }
  [[nodiscard]] bool empty() const { return steps_.empty(); }

 private:
  std::vector<DriverStep> steps_;
};

/// Plays scripts against a testbed's users. Each step is its own event,
/// scheduled when play() is called, so same-time steps run in listing
/// order; each Act step draws a fresh action id from the testbed so latency
/// tooling can track it.
class AutoDriver {
 public:
  explicit AutoDriver(Testbed& bed) : bed_{bed} {}

  /// Schedules every step; returns the time of the last one. Throws
  /// std::invalid_argument, scheduling nothing, if a step names a user the
  /// testbed does not have.
  TimePoint play(const DriverScript& script);

  /// Action ids issued by `user`'s Act steps, in order.
  [[nodiscard]] const std::vector<std::uint64_t>& actionsPerformed(
      int user) const;

 private:
  void apply(const DriverStep& step);

  Testbed& bed_;
  std::vector<std::vector<std::uint64_t>> actions_;  // by user index
};

}  // namespace msim
