// Fleet time: a deterministic, injectable simulated clock. Nothing in
// the fleet engine reads wall-clock time -- every time-driven behavior
// (heartbeat cadence, staleness thresholds, soak windows) is measured
// in simulated ticks of one FleetClock, advanced explicitly by whoever
// drives the fleet (a test, a bench, the HealthMonitor loop). That is
// what makes time-driven control flow testable at all: a frozen clock
// means *nothing* happens (no spurious staleness, no flaky deadlines),
// and two runs that advance the clock identically make identical
// decisions, bit for bit.
//
// The tick unit is deliberately abstract (a test may treat it as a
// millisecond, a bench as a second); only differences and thresholds
// ever matter. Ticks are monotonic: the clock only moves forward.
//
// Thread-safety: now()/advance()/advance_to() are atomic and safe from
// any thread -- concurrent actors (a heartbeat loop racing a soaking
// rollout) may both push time forward; advance_to() is a monotonic max,
// so time never runs backwards under any interleaving. Determinism
// claims (bit-identical reports) apply to single-driver usage, same as
// the pooled==serial contract elsewhere: one actor owns time, many may
// read it.
#ifndef EILID_EILID_CLOCK_H
#define EILID_EILID_CLOCK_H

#include <atomic>
#include <cstdint>

namespace eilid {

// Simulated fleet time, in abstract ticks since fleet construction.
using Tick = uint64_t;

class FleetClock {
 public:
  FleetClock() = default;
  FleetClock(const FleetClock&) = delete;
  FleetClock& operator=(const FleetClock&) = delete;

  Tick now() const { return now_.load(std::memory_order_acquire); }

  // Move time forward by `delta` ticks; returns the new now().
  Tick advance(Tick delta);

  // Move time forward to `deadline` if it is in the future (monotonic
  // max -- a deadline already in the past is a no-op); returns now().
  Tick advance_to(Tick deadline);

 private:
  std::atomic<Tick> now_{0};
};

// The catch-up rule every fleet-time scheduler shares: a due tick the
// clock has already passed moves to the first tick >= now on its own
// cadence (due + k * period) -- no backlog stamped with past ticks.
inline Tick catch_up(Tick due, Tick period, Tick now) {
  return due >= now ? due : due + (now - due + period - 1) / period * period;
}

}  // namespace eilid

#endif  // EILID_EILID_CLOCK_H
