// Wall-clock self-profiling, rigorously quarantined from simulated state.
//
// The simulator's own artifacts are deterministic and cycle-denominated;
// this layer answers the one question they cannot: where does *real* time
// go?  Three consumers drive the design (see DESIGN.md "Self-profiling"):
//
//  1. The sharded engine reports per-SM busy time and per-round worker
//     busy/barrier-wait time, aggregated into a ShardSkew — the max/mean
//     round imbalance ratio is the exact number the work-stealing decision
//     in ROADMAP item 1 needs before it can be justified.
//  2. tbpointd and the content store report request-lifecycle and GC spans
//     into deterministic-bucket latency histograms (fixed power-of-two
//     microsecond bounds, so two runs of the same build always bucket the
//     same way and histograms merge bucket-by-bucket).
//  3. tbp-report renders the sealed tbp-prof-v1 sidecar (sidecar.hpp) and
//     gates *_ratio / *_seconds regressions with `tbp-report compare`.
//
// Quarantine rules, enforced by tests and by tbp-lint's prof-quarantine
// rule family:
//
//  - Every clock read flows through support/walltime (the lint-allowlisted
//    doorway); this layer never touches <chrono> directly.
//  - Profiling output lives ONLY in the tbp-prof-v1 sidecar and the trace
//    wall-clock track — never in sealed manifests.  Run manifests are
//    byte-identical with profiling on and off
//    (tests/prof/quarantine_test.cpp + the CI prof-smoke job pin this).
//  - Prof values may only reach `*_seconds` / `*_ratio` reporting fields
//    (the lint sink rule), so a wall-clock number can never masquerade as
//    a simulated quantity downstream.
//
// Recording is gated at runtime only: a null ProfSession pointer makes
// every ScopedSpan and shard-skew hook a no-op without reading a clock.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace tbp::prof {

/// Fixed microsecond bucket upper bounds for latency histograms: powers of
/// two from 1us to ~67s.  Fixed at compile time so every histogram of every
/// run buckets identically and merges bucket-by-bucket.
[[nodiscard]] std::span<const std::uint64_t> latency_bounds() noexcept;

/// Fixed bucket upper bounds for imbalance ratios, in milli-ratio units
/// (1000 = perfectly balanced, 2000 = the slowest worker ran 2x the mean).
[[nodiscard]] std::span<const std::uint64_t> ratio_bounds() noexcept;

/// Deterministic percentile estimate over a fixed-bucket histogram: the
/// upper bound of the first bucket whose cumulative count reaches
/// ceil(q * total).  Values in the overflow bucket saturate to the last
/// bound.  0 for empty histograms.
[[nodiscard]] std::uint64_t percentile_upper_bound(const obs::Histogram& hist,
                                                   double q) noexcept;

/// One launch's (or an aggregate of many launches') shard load-skew record
/// from the sharded engine.  A "round" is one barrier-to-barrier crew step
/// (epochs contain many rounds); busy is wall time spent inside per-SM
/// stepping, wait is the round wall time a worker did not spend busy —
/// barrier spin plus scheduling noise.
struct ShardSkew {
  std::uint32_t n_workers = 0;
  std::uint32_t n_sms = 0;
  std::uint64_t rounds = 0;
  /// Total coordinator wall time across rounds.
  double wall_seconds = 0.0;
  std::vector<double> sm_busy_seconds;      ///< indexed by SM id
  std::vector<double> worker_busy_seconds;  ///< indexed by worker
  std::vector<double> worker_wait_seconds;  ///< indexed by worker
  /// Per-round imbalance ratio max(busy) / mean(busy): 1.0 is perfectly
  /// balanced; the max and mean over rounds are the work-stealing signal.
  double max_imbalance_ratio = 0.0;
  double imbalance_ratio_sum = 0.0;
  std::uint64_t imbalance_samples = 0;
  /// Per-round ratios in milli-ratio units over ratio_bounds().
  obs::Histogram imbalance_milli;

  /// Folds one round's per-worker busy times (slot per worker) and the
  /// round's wall time into the aggregate.
  void note_round(std::span<const double> round_busy_seconds,
                  double round_wall_seconds);

  /// Element-wise sum with `other` (vectors grow to the larger size, so
  /// launches with different geometry still aggregate).
  void merge(const ShardSkew& other);

  [[nodiscard]] double mean_imbalance_ratio() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return rounds == 0; }
};

/// Thread-safe cold-path aggregation point for one process/run.  Parallel
/// launches absorb their ShardSkew records and service stages record spans
/// concurrently; everything serializes on one mutex because every call is
/// per-launch / per-request, never per-cycle.
class ProfSession {
 public:
  struct SpanStats {
    obs::Histogram latency_us;  ///< over latency_bounds()
    double total_seconds = 0.0;
    std::uint64_t count = 0;
  };

  /// A raw span instance for the chrome trace wall-clock track; ts is
  /// microseconds since the session was constructed.  Only the first
  /// kMaxRawSpans spans are kept (histograms keep counting past the cap).
  struct RawSpan {
    std::string name;
    std::uint64_t ts_us = 0;
    std::uint64_t dur_us = 0;
  };

  static constexpr std::size_t kMaxRawSpans = 4096;

  ProfSession();

  /// Records one span occurrence.  `start_seconds` is an absolute
  /// tbp::timing::monotonic_seconds() reading taken when the span began;
  /// `duration_seconds` its measured length.
  void record_span(std::string_view name, double start_seconds,
                   double duration_seconds);

  /// Merges one launch's skew record into the session aggregate.
  void absorb_skew(const ShardSkew& skew);

  [[nodiscard]] ShardSkew skew_snapshot() const;
  [[nodiscard]] std::map<std::string, SpanStats> span_snapshot() const;
  [[nodiscard]] std::vector<RawSpan> raw_spans() const;

 private:
  mutable std::mutex mutex_;
  double origin_seconds_ = 0.0;  ///< monotonic epoch; const after construction
  ShardSkew skew_;                            // TBP_GUARDED_BY(mutex_)
  std::map<std::string, SpanStats> spans_;    // TBP_GUARDED_BY(mutex_)
  std::vector<RawSpan> raw_;                  // TBP_GUARDED_BY(mutex_)
};

/// Wall-clock span bracket over an optional ProfSession: records one span
/// on finish()/destruction, reads no clock at all when profiling is off or
/// no session is attached.  `name` must outlive the bracket (string
/// literals at every call site).
class ScopedSpan {
 public:
  ScopedSpan(ProfSession* session, std::string_view name);

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { finish(); }

  /// Records the span now (idempotent); the destructor records otherwise.
  void finish();

  /// Drops the bracket without recording (e.g. a GC pass that found
  /// nothing to do and should not pollute the latency histogram).
  void cancel() noexcept { session_ = nullptr; }

 private:
  ProfSession* session_;
  std::string_view name_;
  double start_;
};

}  // namespace tbp::prof
