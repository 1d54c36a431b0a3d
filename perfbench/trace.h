// In-memory span recorder for the traced benchmark run.
//
// The harness opens a span around every call it makes into a library
// layer (named "<layer>.<call>", e.g. "graph.commit") and around each
// pass or epoch ("run.<kind>"). Spans nest strictly — the harness is
// single-threaded — so a span's parent is the innermost span open when it
// began. Nothing is written until the run ends: then the spans go out as
// Chrome trace-event JSON plus a plain-text table of self time (a span's
// duration minus the part its child spans cover) per span name and per
// layer.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span; `group` names the pass or epoch it belongs to
  /// (e.g. "audit#3"). Returns the span id.
  int Begin(const char* name, const std::string& group, Clock::time_point at);
  void End(int id, Clock::time_point at);

  /// Chrome trace-event JSON ("X" events, microseconds) with each span's
  /// id, parent and group in args.
  bool WriteChromeTrace(const std::string& path) const;
  /// Self time per span name and per layer, largest first.
  std::string SelfTimeTable() const;

 private:
  struct Span {
    const char* name;
    std::string group;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
