#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace lbnn::runtime {

/// All runtime timing is expressed against std::chrono::steady_clock's
/// representation, whichever ClockSource produces the values.
using TimePoint = std::chrono::steady_clock::time_point;
using Duration = std::chrono::steady_clock::duration;

/// Sentinel for "no deadline" on a request.
constexpr TimePoint kNoDeadline = TimePoint::max();

/// Microseconds since the clock's epoch: the runtime's integer time stamps.
inline std::int64_t to_us(TimePoint tp) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp.time_since_epoch())
      .count();
}

/// Time source seam for the serving runtime. Everything that stamps, compares
/// or sleeps on time (Batcher deadlines, Engine admission estimates, report
/// latency/goodput, the timekeeper thread) goes through one of these, so tests
/// can drive a ManualClock instead of sleeping on the wall clock.
///
/// Implementations must be safe to call from any thread.
class ClockSource {
 public:
  virtual ~ClockSource() = default;

  virtual TimePoint now() const = 0;

  /// Sleep on `cv` (with `lk` held, as usual) until `deadline` by THIS clock
  /// or until `pred()` holds. SystemClock maps straight onto cv.wait_until;
  /// ManualClock parks until advance()/set() moves time past the deadline —
  /// no real time passes while the manual clock stands still. Returns pred()
  /// at wakeup, mirroring condition_variable::wait_until.
  template <typename Pred>
  bool wait_until(std::unique_lock<std::mutex>& lk, std::condition_variable& cv,
                  TimePoint deadline, Pred pred) {
    while (!pred() && now() < deadline) {
      if (!wait_step(lk, cv, deadline)) break;  // deadline reached
    }
    return pred();
  }

 protected:
  /// One bounded wait on `cv`. Returns false once `deadline` has been reached
  /// by this clock (the caller's loop then exits), true to re-check the
  /// predicate after a wakeup.
  virtual bool wait_step(std::unique_lock<std::mutex>& lk,
                         std::condition_variable& cv, TimePoint deadline) = 0;
};

/// The production clock: std::chrono::steady_clock.
class SystemClock final : public ClockSource {
 public:
  TimePoint now() const override { return std::chrono::steady_clock::now(); }

  /// Shared process-wide instance (stateless).
  static SystemClock& instance() {
    static SystemClock clock;
    return clock;
  }

 protected:
  bool wait_step(std::unique_lock<std::mutex>& lk, std::condition_variable& cv,
                 TimePoint deadline) override {
    return cv.wait_until(lk, deadline) != std::cv_status::timeout;
  }
};

/// Deterministic test clock: time only moves when the test calls advance() or
/// set(). Sleepers registered through wait_until() are woken on every time
/// change, so a test can drive "the batch timeout fires" as one advance()
/// call with zero real sleeping.
class ManualClock final : public ClockSource {
 public:
  explicit ManualClock(TimePoint start = TimePoint{}) : now_(start) {}

  TimePoint now() const override {
    std::lock_guard<std::mutex> lk(mu_);
    return now_;
  }

  void advance(Duration d) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      now_ += d;
    }
    wake_sleepers();
  }

  void set(TimePoint t) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      now_ = t;
    }
    wake_sleepers();
  }

 protected:
  bool wait_step(std::unique_lock<std::mutex>& lk, std::condition_variable& cv,
                 TimePoint deadline) override {
    {
      std::lock_guard<std::mutex> reg(mu_);
      // The now_ check and the registration are one critical section: a
      // concurrent advance() either already moved time (we see it here and
      // never sleep) or will find this registration in its snapshot.
      if (now_ >= deadline) return false;
      sleepers_.push_back({&cv, lk.mutex()});
    }
    cv.wait(lk);  // woken by the caller's own notify OR by advance()/set()
    {
      std::lock_guard<std::mutex> reg(mu_);
      for (auto it = sleepers_.begin(); it != sleepers_.end(); ++it) {
        if (it->cv == &cv) {
          sleepers_.erase(it);
          break;
        }
      }
      return now_ < deadline;
    }
  }

 private:
  struct Sleeper {
    std::condition_variable* cv;
    std::mutex* mu;  ///< the mutex the sleeper's unique_lock holds
  };

  void wake_sleepers() {
    // Snapshot under mu_, notify outside it (a woken sleeper re-locks mu_ to
    // deregister — holding it here would deadlock). Locking each sleeper's
    // own mutex first closes the lost-wakeup window: a registered sleeper
    // holds that mutex from registration until it parks inside cv.wait, so
    // by the time we acquire it the sleeper is parked and the notify lands.
    std::vector<Sleeper> sleepers;
    {
      std::lock_guard<std::mutex> lk(mu_);
      sleepers = sleepers_;
    }
    for (const Sleeper& s : sleepers) {
      { std::lock_guard<std::mutex> sync(*s.mu); }
      s.cv->notify_all();
    }
  }

  mutable std::mutex mu_;
  TimePoint now_{};
  std::vector<Sleeper> sleepers_;
};

}  // namespace lbnn::runtime
