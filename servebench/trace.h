#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace servebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names: one root per request, the service call it made, and the
/// layer calls the benchmark times from outside on the same inputs.
enum SpanName : uint16_t {
  kRequest,
  kServiceServe,
  kServiceList,
  kGraphToggle,
  kGraphPublish,
  kUtilityCompute,
  kUtilityPatch,
  kUtilitySensitivity,
  kCoreSamplerBuild,
  kCoreDraw,
  kCoreZeroResolve,
  kCorePeel,
  kCoreCharge,
  kPersistLedgerAppend,
  kPersistWalAppend,
  kNumSpanNames,
};

inline const char* SpanNameString(uint16_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "request",          "service.serve",        "service.list",
      "graph.toggle",     "graph.publish",        "utility.compute",
      "utility.patch",    "utility.sensitivity",  "core.sampler_build",
      "core.draw",        "core.zero_resolve",    "core.peel",
      "core.charge",      "persist.ledger_append", "persist.wal_append",
  };
  return kNames[name];
}

struct Span {
  uint16_t name;
  int32_t parent;  // index of the parent span in the same tracer, -1 = root
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans of one caller thread, kept in memory and written out once at the
/// end of the run.
class Tracer {
 public:
  int32_t Begin(uint16_t name, int32_t parent, uint64_t request) {
    spans_.push_back(Span{name, parent, request, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Closes span `index` and returns its duration in ns.
  int64_t End(int32_t index) {
    Span& span = spans_[index];
    span.end_ns = NowNs();
    return span.end_ns - span.start_ns;
  }
  /// Times fn() as a span; returns the duration in ns.
  template <typename Fn>
  int64_t Time(uint16_t name, int32_t parent, uint64_t request, Fn&& fn) {
    const int32_t index = Begin(name, parent, request);
    fn();
    return End(index);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends this tracer's spans as TSV rows: thread, name, start and end
  /// (ns since `origin`), parent row id within the thread, request id.
  void Write(std::ofstream& out, int thread, int64_t origin) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << thread << '\t' << i << '\t' << SpanNameString(s.name) << '\t'
          << (s.start_ns - origin) << '\t' << (s.end_ns - origin) << '\t'
          << s.parent << '\t' << s.request << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
