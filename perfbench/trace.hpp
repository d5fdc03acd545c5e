// In-memory span recorder for the benchmark's traced run.
//
// The benchmark wraps each call it makes into a layer of the program
// (sched, runtime, sim, matrix, service, model) in a Scope. A span
// records its name, wall start and end, its parent (the innermost span
// open on the same thread when it began) and the id of the product or
// job it belongs to. Spans stay in memory until the run ends; the
// analysis below (nesting check, self times) and the Chrome trace-event
// writer read them there. A disabled Trace records nothing, so the
// untraced phase pays one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // string literal: the layer boundary
  int parent = -1;        // index into Trace::spans(), -1 for a root
  int op = -1;            // product or job id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
};

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on construction and closes it on destruction. Scopes
  /// on one thread must nest (they do: they are stack objects).
  class Scope {
   public:
    Scope(Trace& trace, const char* name, int op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  /// Every span recorded so far. Call only once every recording thread
  /// has finished.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int open(const char* name, int op);
  void close(int index);

  bool enabled_;
  std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// Result of checking and reducing a finished trace.
struct TraceSummary {
  /// Spans that do not lie inside their parent's interval or belong to
  /// another op than their parent, plus spans left open.
  std::size_t nesting_violations = 0;
  /// Spans whose self time came out negative (must stay 0).
  std::size_t negative_self = 0;
  /// Per span name: per op, the summed duration and summed self time
  /// (duration minus the union of the intervals its children cover),
  /// in seconds, and the number of spans.
  struct PerOp {
    double total_s = 0.0;
    double self_s = 0.0;
    std::size_t count = 0;
  };
  std::map<std::string, std::map<int, PerOp>> by_name;
};

TraceSummary summarize(const std::vector<Span>& spans);

/// Writes at most `max_events` spans (in recording order) as Chrome
/// trace-event JSON ("X" events, microseconds; tid = op id), with
/// `metadata` as the top-level "otherData" object. Returns false when
/// the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans,
                        std::size_t max_events,
                        const std::map<std::string, std::string>& metadata);

/// Monotonic nanoseconds (the clock every span uses).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
