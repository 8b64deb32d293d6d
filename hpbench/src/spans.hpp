#pragma once
// In-memory span recorder for the traced run.
//
// The benchmark wraps every call it makes into a library layer (model,
// linalg, dag, bounds, core, baselines, sched, online, fault, serve) in a
// span: layer, function name, start, end, parent span and request id.
// Spans stay in memory until the run ends and are then written out as one
// JSON document. A layer's self time is its spans' duration minus the
// part covered by their direct children; the benchmark's own phase spans
// use the pseudo-layer "bench".
//
// One recorder per thread: the serve generator records into its own and
// the main thread appends it after joining.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace hpb {

struct Span {
  const char* layer = "";  ///< static string
  const char* name = "";   ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;    ///< index in the same recorder, -1 = root
  std::int64_t request = -1;   ///< serve request id, -1 = none
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span under the innermost open one; -1 when disabled.
  int open(const char* layer, const char* name, std::int64_t request = -1);
  /// Close the span `index` returned by open(); ignores -1.
  void close(int index);

  /// Append another recorder's spans (parents re-based; roots stay roots).
  void append(const SpanRecorder& other);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time in seconds per layer.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Write `{"meta": <meta_json>, "spans": [...]}`; false on I/O error.
  bool write_json(const std::string& path, const std::string& meta_json) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; also the benchmark's stopwatch, so the traced and untraced
/// runs time calls the same way.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* layer, const char* name,
            std::int64_t request = -1)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(layer, name, request)
                                   : -1),
        start_(Clock::now()) {}
  ~SpanScope() { stop(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Close the span now; returns its duration in seconds. Idempotent.
  double stop() {
    if (!stopped_) {
      seconds_ = seconds_since(start_);
      if (recorder_ != nullptr) recorder_->close(index_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanRecorder* recorder_;
  int index_;
  Clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace hpb
