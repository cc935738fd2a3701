// The one pairing replay of the trace readers.
//
// WindowReplay walks one thread's (timestamp-monotonic) records and keeps the
// stack of windows (event.hpp, kWindows) open on that thread.  Each record
// first closes the windows it ends, innermost first, then opens the ones it
// begins, outermost first.  A closer pairs with the topmost open window of
// its row, so nested windows of one row (a task that helps with a stolen
// task) pair innermost first.  Every window leaves the stack exactly once,
// reported to the sink with how it ended:
//
//   kPaired    its closer arrived;
//   kEnded     its launch exited first: a failed or empty launch leaves its
//              collect or run phase open at kLaunchExit;
//   kStranded  an enclosing window's closer arrived first, so a drop ate its
//              own closer;
//   kOpen      the thread's records ended first (the session stopped
//              mid-slice).
//
// A closer with no open window of its row (a drop ate the opener, or the
// window opened before the session) is reported as an orphan.  Exact pairing
// needs no luck: batchify never nests, and a worker holds at most one batch
// flag and launches only the domain it is trapped on, so one stack per
// thread sees every launch of that thread whole.
#pragma once

#include <cstddef>
#include <vector>

#include "trace/event.hpp"
#include "trace/trace_record.hpp"

namespace batcher::trace {

struct OpenWindow {
  Window window;
  TraceRecord open;  // the record that opened it
};

enum class End : std::uint8_t { kPaired, kEnded, kStranded, kOpen };

// The worker-time bucket an open window charges; an empty batch's run window
// charges none (it runs no BOP).
inline Bucket bucket_of(const OpenWindow& w) {
  if (w.window == Window::kRun && w.open.a32 == 0) return Bucket::kNone;
  return window_info(w.window).bucket;
}

class WindowReplay {
 public:
  bool is_open(Window w) const {
    for (const OpenWindow& o : stack_) {
      if (o.window == w) return true;
    }
    return false;
  }

  // The bucket of the innermost open window that has one.
  Bucket bucket() const {
    for (std::size_t i = stack_.size(); i > 0; --i) {
      const Bucket b = bucket_of(stack_[i - 1]);
      if (b != Bucket::kNone) return b;
    }
    return Bucket::kNone;
  }

  // Applies one record.  The sink gets
  //   closed(const OpenWindow&, const TraceRecord* closer, End)
  //     while the window is still open (closer is null for kOpen),
  //   orphan(Window, const TraceRecord& closer), and
  //   opened(const OpenWindow&) after the push.
  template <class Sink>
  void step(const TraceRecord& r, Sink& sink) {
    const auto e = static_cast<EventId>(r.event);
    for (std::size_t w = kNumWindows; w > 0; --w) {
      if (kWindows[w - 1].closer != e) continue;
      close(static_cast<Window>(w - 1), r, sink);
    }
    for (std::size_t w = 0; w < kNumWindows; ++w) {
      if (kWindows[w].opener != e) continue;
      stack_.push_back({static_cast<Window>(w), r});
      sink.opened(stack_.back());
    }
  }

  // Ends the thread's records: whatever is still open ends kOpen, innermost
  // first.
  template <class Sink>
  void finish(Sink& sink) {
    for (; !stack_.empty(); stack_.pop_back()) {
      sink.closed(stack_.back(), nullptr, End::kOpen);
    }
  }

 private:
  template <class Sink>
  void close(Window w, const TraceRecord& r, Sink& sink) {
    if (w == Window::kLaunch) {
      // kLaunchExit ends the phase a failed or empty launch left open, also
      // when a drop ate the launch's kLaunchEnter.
      while (!stack_.empty() && stack_.back().window != Window::kLaunch &&
             window_info(stack_.back().window).track == Track::kDomain) {
        sink.closed(stack_.back(), &r, End::kEnded);
        stack_.pop_back();
      }
    }
    std::size_t i = stack_.size();
    while (i > 0 && stack_[i - 1].window != w) --i;
    if (i == 0) {
      sink.orphan(w, r);
      return;
    }
    for (; stack_.size() > i; stack_.pop_back()) {
      sink.closed(stack_.back(), &r, End::kStranded);
    }
    sink.closed(stack_.back(), &r, End::kPaired);
    stack_.pop_back();
  }

  std::vector<OpenWindow> stack_;
};

}  // namespace batcher::trace
