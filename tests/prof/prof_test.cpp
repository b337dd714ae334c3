// Unit coverage for the profiling primitives: deterministic percentile
// estimates over fixed-bucket histograms, ShardSkew aggregation/merge
// algebra, ProfSession span accounting, the ScopedSpan bracket, and the
// sealed tbp-prof-v1 sidecar roundtrip (including the chrome-trace
// wall-clock track).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace_event.hpp"
#include "prof/prof.hpp"
#include "prof/sidecar.hpp"
#include "support/atomic_file.hpp"

namespace tbp::prof {
namespace {

TEST(ProfBucketsTest, BoundsAreStrictlyIncreasing) {
  const auto lat = latency_bounds();
  ASSERT_FALSE(lat.empty());
  EXPECT_EQ(lat.front(), 1u) << "first latency bucket is <= 1us";
  for (std::size_t i = 1; i < lat.size(); ++i) {
    EXPECT_LT(lat[i - 1], lat[i]);
  }
  const auto ratio = ratio_bounds();
  ASSERT_FALSE(ratio.empty());
  EXPECT_GE(ratio.front(), 1000u) << "1000 milli = perfectly balanced";
  for (std::size_t i = 1; i < ratio.size(); ++i) {
    EXPECT_LT(ratio[i - 1], ratio[i]);
  }
}

TEST(ProfPercentileTest, EmptyHistogramYieldsZero) {
  obs::Histogram hist({1, 2, 4});
  EXPECT_EQ(percentile_upper_bound(hist, 0.5), 0u);
  EXPECT_EQ(percentile_upper_bound(hist, 0.99), 0u);
}

TEST(ProfPercentileTest, PicksFirstBucketReachingTheRank) {
  obs::Histogram hist({10, 20, 40});
  // 6 values <= 10, 3 in (10, 20], 1 in (20, 40].
  for (int i = 0; i < 6; ++i) hist.record(5);
  for (int i = 0; i < 3; ++i) hist.record(15);
  hist.record(30);
  EXPECT_EQ(percentile_upper_bound(hist, 0.50), 10u);  // rank 5 of 10
  EXPECT_EQ(percentile_upper_bound(hist, 0.90), 20u);  // rank 9
  EXPECT_EQ(percentile_upper_bound(hist, 1.00), 40u);  // rank 10
}

TEST(ProfPercentileTest, OverflowValuesSaturateToLastBound) {
  obs::Histogram hist({10, 20});
  hist.record(1000);  // overflow bucket
  EXPECT_EQ(percentile_upper_bound(hist, 0.5), 20u)
      << "overflow saturates to the last bound, not infinity";
}

TEST(ShardSkewTest, NoteRoundAccumulatesBusyWaitAndRatios) {
  ShardSkew skew;
  skew.n_workers = 2;
  skew.n_sms = 2;
  skew.worker_busy_seconds.assign(2, 0.0);
  skew.worker_wait_seconds.assign(2, 0.0);

  // Round 1: worker 0 busy 0.3s, worker 1 busy 0.1s, round wall 0.4s.
  const double round1[] = {0.3, 0.1};
  skew.note_round(round1, 0.4);
  // Round 2: perfectly balanced.
  const double round2[] = {0.2, 0.2};
  skew.note_round(round2, 0.25);

  EXPECT_EQ(skew.rounds, 2u);
  EXPECT_DOUBLE_EQ(skew.wall_seconds, 0.65);
  EXPECT_DOUBLE_EQ(skew.worker_busy_seconds[0], 0.5);
  EXPECT_DOUBLE_EQ(skew.worker_busy_seconds[1], 0.3);
  // Wait = round wall - own busy, accumulated per round.
  EXPECT_NEAR(skew.worker_wait_seconds[0], (0.4 - 0.3) + (0.25 - 0.2), 1e-12);
  EXPECT_NEAR(skew.worker_wait_seconds[1], (0.4 - 0.1) + (0.25 - 0.2), 1e-12);
  // Round 1 ratio: max 0.3 / mean 0.2 = 1.5; round 2 ratio: 1.0.
  EXPECT_NEAR(skew.max_imbalance_ratio, 1.5, 1e-12);
  EXPECT_NEAR(skew.mean_imbalance_ratio(), 1.25, 1e-12);
  EXPECT_EQ(skew.imbalance_samples, 2u);
  EXPECT_EQ(skew.imbalance_milli.total(), 2u);
  EXPECT_FALSE(skew.empty());
}

TEST(ShardSkewTest, MergeSumsAndGrowsToLargerGeometry) {
  ShardSkew a;
  a.n_workers = 1;
  a.n_sms = 2;
  a.rounds = 3;
  a.wall_seconds = 1.0;
  a.sm_busy_seconds = {0.5, 0.25};
  a.worker_busy_seconds = {0.75};
  a.worker_wait_seconds = {0.25};
  a.max_imbalance_ratio = 1.2;
  a.imbalance_ratio_sum = 3.3;
  a.imbalance_samples = 3;

  ShardSkew b;
  b.n_workers = 2;
  b.n_sms = 4;
  b.rounds = 1;
  b.wall_seconds = 0.5;
  b.sm_busy_seconds = {0.1, 0.1, 0.1, 0.1};
  b.worker_busy_seconds = {0.2, 0.2};
  b.worker_wait_seconds = {0.05, 0.05};
  b.max_imbalance_ratio = 2.0;
  b.imbalance_ratio_sum = 2.0;
  b.imbalance_samples = 1;

  a.merge(b);
  EXPECT_EQ(a.n_workers, 2u);
  EXPECT_EQ(a.n_sms, 4u);
  EXPECT_EQ(a.rounds, 4u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 1.5);
  ASSERT_EQ(a.sm_busy_seconds.size(), 4u);
  EXPECT_DOUBLE_EQ(a.sm_busy_seconds[0], 0.6);
  EXPECT_DOUBLE_EQ(a.sm_busy_seconds[3], 0.1);
  ASSERT_EQ(a.worker_busy_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(a.worker_busy_seconds[0], 0.95);
  EXPECT_DOUBLE_EQ(a.max_imbalance_ratio, 2.0);
  EXPECT_NEAR(a.mean_imbalance_ratio(), 5.3 / 4.0, 1e-12);
}

TEST(ProfSessionTest, SpansAggregateByNameWithPercentiles) {
  ProfSession session;
  session.record_span("svc.sim", 0.0, 0.001);   // 1000us
  session.record_span("svc.sim", 0.0, 0.002);   // 2000us
  session.record_span("svc.gc", 0.0, 0.0001);   // 100us

  const auto spans = session.span_snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const ProfSession::SpanStats& sim = spans.at("svc.sim");
  EXPECT_EQ(sim.count, 2u);
  EXPECT_NEAR(sim.total_seconds, 0.003, 1e-12);
  EXPECT_EQ(sim.latency_us.total(), 2u);
  EXPECT_EQ(spans.at("svc.gc").count, 1u);

  const auto raw = session.raw_spans();
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_EQ(raw[0].name, "svc.sim");
  EXPECT_EQ(raw[0].dur_us, 1000u);
}

TEST(ProfSessionTest, ScopedSpanRecordsOnceAndCancelDropsIt) {
  ProfSession session;
  {
    ScopedSpan span(&session, "bracket");
    span.finish();
    span.finish();  // idempotent: destructor must not double-record
  }
  {
    ScopedSpan span(&session, "dropped");
    span.cancel();
  }
  ScopedSpan null_span(nullptr, "no-session");  // must be a safe no-op
  null_span.finish();

  const auto spans = session.span_snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.at("bracket").count, 1u);
}

TEST(ProfSidecarTest, SealedRoundtripPreservesSkewAndSpans) {
  ProfSession session;
  ShardSkew skew;
  skew.n_workers = 2;
  skew.n_sms = 4;
  skew.worker_busy_seconds.assign(2, 0.0);
  skew.worker_wait_seconds.assign(2, 0.0);
  skew.sm_busy_seconds = {0.1, 0.2, 0.3, 0.4};
  const double round[] = {0.6, 0.4};
  skew.note_round(round, 1.0);
  session.absorb_skew(skew);
  session.record_span("svc.sim", 0.0, 0.5);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "prof.json").string();
  ASSERT_TRUE(write_prof_sidecar(session, path).ok());

  const Result<std::string> bytes =
      io::read_file_limited(std::filesystem::path(path));
  ASSERT_TRUE(bytes.ok()) << bytes.status().to_string();
  const Result<obs::JsonValue> body = obs::open_json(*bytes, kProfSchema);
  ASSERT_TRUE(body.ok()) << body.status().to_string();

  const obs::JsonValue* skew_v = body->find("skew");
  ASSERT_NE(skew_v, nullptr);
  EXPECT_EQ(skew_v->find("rounds")->as_u64(), 1u);
  EXPECT_EQ(skew_v->find("n_workers")->as_u64(), 2u);
  EXPECT_EQ(skew_v->find("n_sms")->as_u64(), 4u);
  EXPECT_NEAR(skew_v->find("max_imbalance_ratio")->as_double(), 1.2, 1e-9);
  ASSERT_EQ(skew_v->find("sm_busy_seconds")->items().size(), 4u);

  const obs::JsonValue* spans = body->find("spans");
  ASSERT_NE(spans, nullptr);
  const obs::JsonValue* sim = spans->find("svc.sim");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->find("count")->as_u64(), 1u);
  EXPECT_NEAR(sim->find("total_seconds")->as_double(), 0.5, 1e-9);
  EXPECT_GT(sim->find("p99_seconds")->as_double(), 0.0);
}

TEST(ProfSidecarTest, WallClockTrackEmitsSpansUnderReservedPid) {
  ProfSession session;
  session.record_span("a", 0.0, 0.001);
  session.record_span("b", 0.0, 0.002);

  obs::TraceBuffer buffer;
  append_wall_clock_track(session, &buffer);
  ASSERT_FALSE(buffer.empty());
  bool saw_span = false;
  for (const obs::TraceEvent& event : buffer.events()) {
    EXPECT_EQ(event.pid, kWallClockTracePid);
    if (event.name == "a" || event.name == "b") saw_span = true;
  }
  EXPECT_TRUE(saw_span);

  obs::TraceBuffer empty_buffer;
  const ProfSession empty_session;
  append_wall_clock_track(empty_session, &empty_buffer);
  EXPECT_TRUE(empty_buffer.empty()) << "empty session must add no track";
}

}  // namespace
}  // namespace tbp::prof
