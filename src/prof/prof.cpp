#include "prof/prof.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>

#include "support/walltime.hpp"

namespace tbp::prof {
namespace {

// 1us .. 2^26us (~67s): service requests, GC passes and whole-launch spans
// all land inside; anything slower saturates into the overflow bucket.
constexpr std::size_t kLatencyBuckets = 27;

constexpr std::array<std::uint64_t, kLatencyBuckets> make_latency_bounds() {
  std::array<std::uint64_t, kLatencyBuckets> bounds{};
  std::uint64_t bound = 1;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = bound;
    bound *= 2;
  }
  return bounds;
}

constexpr std::array<std::uint64_t, kLatencyBuckets> kLatencyBounds =
    make_latency_bounds();

// 1.0x (balanced) up to 10x; a ratio past 10x means the crew is effectively
// serialized on one worker and the exact value stops mattering.
constexpr std::array<std::uint64_t, 14> kRatioBounds = {
    1000, 1050, 1100, 1200, 1350, 1500, 1750,
    2000, 2500, 3000, 4000, 5000, 7000, 10000};

// Saturating seconds -> microseconds for histogram recording.
std::uint64_t micros_from_seconds(double seconds) noexcept {
  if (!(seconds > 0.0)) return 0;
  const double us = seconds * 1e6;
  if (us >= 1.8e19) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(us);
}

void add_resized(std::vector<double>* into, const std::vector<double>& from) {
  if (into->size() < from.size()) into->resize(from.size(), 0.0);
  for (std::size_t i = 0; i < from.size(); ++i) (*into)[i] += from[i];
}

}  // namespace

std::span<const std::uint64_t> latency_bounds() noexcept {
  return kLatencyBounds;
}

std::span<const std::uint64_t> ratio_bounds() noexcept { return kRatioBounds; }

std::uint64_t percentile_upper_bound(const obs::Histogram& hist,
                                     double q) noexcept {
  const std::uint64_t total = hist.total();
  if (total == 0 || hist.bounds().empty()) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto need = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(total)));
  const std::uint64_t target = need == 0 ? 1 : need;
  std::uint64_t seen = 0;
  const auto bounds = hist.bounds();
  const auto counts = hist.counts();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    seen += counts[i];
    if (seen >= target) return bounds[i];
  }
  // Overflow bucket: saturate to the last finite bound.
  return bounds[bounds.size() - 1];
}

void ShardSkew::note_round(std::span<const double> round_busy_seconds,
                           double round_wall_seconds) {
  rounds += 1;
  if (round_wall_seconds > 0.0) wall_seconds += round_wall_seconds;
  if (worker_busy_seconds.size() < round_busy_seconds.size()) {
    worker_busy_seconds.resize(round_busy_seconds.size(), 0.0);
    worker_wait_seconds.resize(round_busy_seconds.size(), 0.0);
  }
  double busy_sum = 0.0;
  double busy_max = 0.0;
  for (std::size_t w = 0; w < round_busy_seconds.size(); ++w) {
    const double busy = std::max(0.0, round_busy_seconds[w]);
    worker_busy_seconds[w] += busy;
    worker_wait_seconds[w] += std::max(0.0, round_wall_seconds - busy);
    busy_sum += busy;
    busy_max = std::max(busy_max, busy);
  }
  if (round_busy_seconds.empty() || busy_sum <= 0.0) return;
  const double mean = busy_sum / static_cast<double>(round_busy_seconds.size());
  const double ratio = busy_max / mean;
  max_imbalance_ratio = std::max(max_imbalance_ratio, ratio);
  imbalance_ratio_sum += ratio;
  imbalance_samples += 1;
  if (imbalance_milli.bounds().empty()) {
    imbalance_milli = obs::Histogram(
        std::vector<std::uint64_t>(kRatioBounds.begin(), kRatioBounds.end()));
  }
  imbalance_milli.record(static_cast<std::uint64_t>(ratio * 1000.0));
}

void ShardSkew::merge(const ShardSkew& other) {
  if (other.empty() && other.sm_busy_seconds.empty()) return;
  n_workers = std::max(n_workers, other.n_workers);
  n_sms = std::max(n_sms, other.n_sms);
  rounds += other.rounds;
  wall_seconds += other.wall_seconds;
  add_resized(&sm_busy_seconds, other.sm_busy_seconds);
  add_resized(&worker_busy_seconds, other.worker_busy_seconds);
  add_resized(&worker_wait_seconds, other.worker_wait_seconds);
  max_imbalance_ratio = std::max(max_imbalance_ratio, other.max_imbalance_ratio);
  imbalance_ratio_sum += other.imbalance_ratio_sum;
  imbalance_samples += other.imbalance_samples;
  if (imbalance_milli.bounds().empty()) {
    imbalance_milli = other.imbalance_milli;
  } else {
    // Bounds are compile-time constants; a mismatch means histograms from
    // different builds were mixed, and other's samples drop rather than
    // corrupt the aggregate.
    (void)imbalance_milli.merge(other.imbalance_milli);
  }
}

double ShardSkew::mean_imbalance_ratio() const noexcept {
  if (imbalance_samples == 0) return 0.0;
  return imbalance_ratio_sum / static_cast<double>(imbalance_samples);
}

ProfSession::ProfSession() : origin_seconds_(timing::monotonic_seconds()) {}

void ProfSession::record_span(std::string_view name, double start_seconds,
                              double duration_seconds) {
  const double clamped = std::max(0.0, duration_seconds);
  const std::scoped_lock lock(mutex_);
  SpanStats& stats = spans_[std::string(name)];
  if (stats.latency_us.bounds().empty()) {
    stats.latency_us = obs::Histogram(
        std::vector<std::uint64_t>(kLatencyBounds.begin(), kLatencyBounds.end()));
  }
  stats.latency_us.record(micros_from_seconds(clamped));
  stats.total_seconds += clamped;
  stats.count += 1;
  if (raw_.size() < kMaxRawSpans) {
    raw_.push_back(RawSpan{
        std::string(name),
        micros_from_seconds(std::max(0.0, start_seconds - origin_seconds_)),
        micros_from_seconds(clamped)});
  }
}

void ProfSession::absorb_skew(const ShardSkew& skew) {
  const std::scoped_lock lock(mutex_);
  skew_.merge(skew);
}

ShardSkew ProfSession::skew_snapshot() const {
  const std::scoped_lock lock(mutex_);
  return skew_;
}

std::map<std::string, ProfSession::SpanStats> ProfSession::span_snapshot()
    const {
  const std::scoped_lock lock(mutex_);
  return spans_;
}

std::vector<ProfSession::RawSpan> ProfSession::raw_spans() const {
  const std::scoped_lock lock(mutex_);
  return raw_;
}

ScopedSpan::ScopedSpan(ProfSession* session, std::string_view name)
    : session_(session), name_(name), start_(0.0) {
  if (session_ != nullptr) start_ = timing::monotonic_seconds();
}

void ScopedSpan::finish() {
  if (session_ == nullptr) return;
  session_->record_span(name_, start_, timing::monotonic_seconds() - start_);
  session_ = nullptr;
}

}  // namespace tbp::prof
