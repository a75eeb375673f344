// In-memory span recorder for the traced benchmark run. Spans carry a name,
// start, end, thread and the span that caused them; they stay in memory and
// are written once, at exit, as Chrome trace-event JSON (opens in Perfetto
// or chrome://tracing). Per-layer time is derived from the spans: the summed
// duration of a layer's spans. Every span a per-layer figure is taken from is
// a leaf (a flow stage or one single-layer call), so its duration is its self
// time; the parent links serve the trace viewer.
//
// A disabled tracer records nothing, so the untraced run pays one branch
// per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span on the calling thread; its parent is the innermost span
  /// the same thread still has open. Returns -1 when disabled.
  int begin(std::string name);
  void end(int id);

  /// The innermost span the calling thread has open (-1 if none).
  [[nodiscard]] int current() const;

  /// Record an already completed span, e.g. a stage a worker thread
  /// reported through a progress callback. Thread-safe.
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              int parent);

  /// Summed duration and span count per span name.
  struct LayerTotals {
    double seconds = 0.0;
    long count = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTotals> layers() const;

  /// Write every span as a Chrome trace-event JSON document.
  void write_chrome_json(const std::string& path) const;

 private:
  struct SpanRec {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint64_t tid = 0;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<SpanRec> spans_;  ///< guarded by mutex_; index = span id
};

/// RAII span; a no-op on a null or disabled tracer.
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name)) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
