#pragma once
// Self-profiling of the engine hot paths: named phases, wall-clock (or
// deterministic tick) timing, and a single-writer MetricsCollector that
// turns RAII PhaseScopes into per-phase call counts, duration histograms
// and collapsed call-path totals (export_flame.hpp).
//
// Overhead discipline. A PhaseScope on a null collector is one pointer
// test; under -DHP_OBS_OFF it compiles to nothing, like obs::Probe. With a
// collector attached, every entry counts its call (an increment and a
// mask test), but only *sampled* entries read the clock: high-frequency
// phases default to timing 1 in 2^k entries (deterministic count-based
// sampling, not random — runs stay reproducible), while coarse per-run
// phases are always timed. Scaled totals multiply the sampled time back up
// by calls/sampled, and the per-phase histograms hold the sampled
// durations. The BENCH_obs.json baseline enforces that the whole
// arrangement costs <= 2% throughput on the reference workloads.
//
// Determinism. Timing never influences scheduling decisions, so schedules
// are bitwise identical with and without a collector. The *metrics output*
// itself is nondeterministic under the default steady clock; tests that
// want byte-stable output attach a TickClock, which advances a fixed
// amount per reading.

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace hp::obs {

/// Instrumented engine phases. Names (phase_name) are stable identifiers
/// used in metric names and flamegraph frames.
enum class Phase : std::uint8_t {
  kEngine,          ///< one whole scheduler run
  kKeyBuild,        ///< SoA key build (task_soa / sort-key packing)
  kSort,            ///< counting/radix sort of the ready keys
  kDispatch,        ///< idle-worker dispatch (queue pops + placement)
  kReadyUpdate,     ///< ready-queue insertion / successor release
  kSpoliationScan,  ///< victim scan of Algorithm 1's spoliation rule
  kHeftRank,        ///< HEFT upward-rank ordering
  kHeftGapSearch,   ///< HEFT per-task worker/gap scan
  kDualHpBisection, ///< DualHP lambda binary search
};

inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::kDualHpBisection) + 1;

/// Stable snake_case name, e.g. "heft_gap_search".
[[nodiscard]] const char* phase_name(Phase phase) noexcept;

/// Time source for the collector. Virtualized so tests swap the wall clock
/// for a deterministic one without touching the engines.
class MetricClock {
 public:
  virtual ~MetricClock() = default;
  /// Monotone, nanoseconds. Called only for sampled scope entries/exits.
  virtual std::uint64_t now_ns() = 0;
};

/// std::chrono::steady_clock — the default.
class SteadyClock final : public MetricClock {
 public:
  std::uint64_t now_ns() override {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
};

/// Deterministic clock: every reading advances by a fixed tick, so any run
/// with the same scope sequence produces byte-identical metrics.
class TickClock final : public MetricClock {
 public:
  explicit TickClock(std::uint64_t tick_ns = 100) : tick_ns_(tick_ns) {}
  std::uint64_t now_ns() override { return ++readings_ * tick_ns_; }
  [[nodiscard]] std::uint64_t readings() const noexcept { return readings_; }

 private:
  std::uint64_t tick_ns_;
  std::uint64_t readings_ = 0;
};

/// Per-phase tallies. `calls` counts every scope entry; `sampled` the
/// entries that read the clock; `sampled_ns` their total duration.
struct PhaseStats {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::uint64_t sampled_ns = 0;

  /// Sampled time scaled back up by the sampling ratio — the estimate of
  /// the phase's true total.
  [[nodiscard]] double scaled_total_ns() const noexcept {
    if (sampled == 0) return 0.0;
    return static_cast<double>(sampled_ns) * static_cast<double>(calls) /
           static_cast<double>(sampled);
  }
};

/// Single-writer sink for PhaseScopes: per-phase stats and duration
/// histograms, plus collapsed call-path totals for the flamegraph
/// exporter. One instance per engine run (or per thread, merged after).
class MetricsCollector {
 public:
  /// `clock` may be null: an owned SteadyClock is used. The clock is
  /// borrowed and must outlive the collector.
  explicit MetricsCollector(MetricClock* clock = nullptr);

  /// Sample 1 in 2^shift entries of `phase` (0 = every entry). Defaults:
  /// per-item phases (dispatch, ready-update, spoliation-scan,
  /// heft-gap-search, dualhp-bisection) use kDefaultSampleShift; per-run
  /// phases are always timed.
  void set_sample_shift(Phase phase, unsigned shift);
  [[nodiscard]] unsigned sample_shift(Phase phase) const noexcept;
  static constexpr unsigned kDefaultSampleShift = 6;  ///< 1 in 64

  // -- hot path (called by PhaseScope) ------------------------------------
  /// Count a scope entry; true when this entry should be timed. Defined
  /// in-class so the unsampled common case is a handful of inlined
  /// instructions, not a function call per scope.
  bool enter(Phase phase) noexcept {
    const auto p = static_cast<std::size_t>(phase);
    PhaseStats& st = stats_[p];
    const std::uint64_t mask = (std::uint64_t{1} << shift_[p]) - 1;
    const bool timed = (st.calls & mask) == 0;
    ++st.calls;
    if (depth_ < kMaxDepth) {
      // Push the frame even when unsampled so sampled children keep their
      // full ancestry in the path key.
      path_stack_[depth_ + 1] =
          (path_stack_[depth_] << 4) | (static_cast<std::uint64_t>(phase) + 1);
    }
    ++depth_;  // beyond kMaxDepth: collapse into the prefix
    return timed;
  }
  /// Close the matching entry. `elapsed_ns` is meaningful when `timed`.
  void leave(Phase phase, bool timed, std::uint64_t elapsed_ns) {
    if (timed) record_sample(phase, elapsed_ns);
    if (depth_ > 0) --depth_;
  }
  [[nodiscard]] std::uint64_t now_ns() { return clock_->now_ns(); }

  // -- results ------------------------------------------------------------
  [[nodiscard]] const PhaseStats& stats(Phase phase) const noexcept;
  /// Sampled durations of `phase` in nanoseconds.
  [[nodiscard]] const Histogram& phase_histogram(Phase phase) const noexcept;

  /// One collapsed call path (root-first) with its sampled time. Paths are
  /// keyed by 4-bit frames packed into a word, decoded via decode_path.
  struct PathTotal {
    std::uint64_t key = 0;
    std::uint64_t sampled_ns = 0;
  };
  [[nodiscard]] const std::vector<PathTotal>& paths() const noexcept {
    return paths_;
  }
  static void decode_path(std::uint64_t key, std::vector<Phase>* out);

  /// Fold another collector's tallies in (parallel engines: one collector
  /// per thread, merged at the end).
  void merge(const MetricsCollector& other);

  /// Write phase_<name>_calls / phase_<name>_sampled counters, a
  /// phase_<name>_total_ns gauge (scaled estimate) and a phase_<name>_ns
  /// histogram per non-empty phase into `registry`.
  void export_to(MetricsRegistry* registry) const;

 private:
  /// Sampled-entry slow path: stats, histogram and path attribution.
  void record_sample(Phase phase, std::uint64_t elapsed_ns);
  void add_path(std::uint64_t key, std::uint64_t elapsed_ns);

  SteadyClock owned_clock_;
  MetricClock* clock_;
  std::array<PhaseStats, kNumPhases> stats_{};
  std::array<std::uint8_t, kNumPhases> shift_{};
  std::vector<Histogram> histograms_;

  // Live scope stack as packed path keys; paths deeper than kMaxDepth
  // collapse into their depth-kMaxDepth prefix (never happens with the
  // static nesting of today's engines).
  static constexpr unsigned kMaxDepth = 15;
  std::array<std::uint64_t, kMaxDepth + 1> path_stack_{};
  unsigned depth_ = 0;
  std::vector<PathTotal> paths_;
};

/// RAII phase timer. Constructing on a null collector costs one pointer
/// test; under -DHP_OBS_OFF the whole scope compiles away.
class PhaseScope {
 public:
#ifdef HP_OBS_OFF
  PhaseScope(MetricsCollector* collector, Phase phase) noexcept {
    (void)collector;
    (void)phase;
  }
#else
  PhaseScope(MetricsCollector* collector, Phase phase)
      : collector_(collector), phase_(phase) {
    if (collector_ == nullptr) return;
    timed_ = collector_->enter(phase_);
    if (timed_) start_ns_ = collector_->now_ns();
  }
  ~PhaseScope() {
    if (collector_ == nullptr) return;
    collector_->leave(phase_, timed_,
                      timed_ ? collector_->now_ns() - start_ns_ : 0);
  }
#endif
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

#ifndef HP_OBS_OFF
 private:
  MetricsCollector* collector_ = nullptr;
  Phase phase_ = Phase::kEngine;
  bool timed_ = false;
  std::uint64_t start_ns_ = 0;
#endif
};

}  // namespace hp::obs
