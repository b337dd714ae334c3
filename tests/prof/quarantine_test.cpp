// The profiling quarantine contract, end to end: attaching a ProfSession
// to a sharded comparison changes NOTHING in the experiment artifacts —
// the manifest bytes are identical with profiling attached or detached —
// while the session itself fills with real skew and span data.  This is the
// test-side half of the guarantee; the CI prof-smoke job pins the same
// property at the binary level (fig9 --prof vs not, cmp).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "harness/experiment.hpp"
#include "harness/manifest.hpp"
#include "obs/report.hpp"
#include "prof/prof.hpp"
#include "sim/config.hpp"
#include "support/atomic_file.hpp"
#include "support/parallel.hpp"
#include "workloads/workload.hpp"

namespace tbp::prof {
namespace {

sim::GpuConfig small_config() {
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 4;
  return config;
}

workloads::Workload small_workload() {
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  return workloads::make_workload("stream", scale);
}

/// Runs the sharded four-way comparison with an optional prof session and
/// writes its manifest; returns the file's bytes.
std::string manifest_bytes(ProfSession* session, const std::string& path) {
  par::set_global_jobs(4);
  harness::ComparisonOptions options;
  options.target_units = 60;
  options.sim_jobs = 2;
  options.prof = session;
  const harness::ExperimentRow row =
      harness::run_comparison(small_workload(), small_config(), options);
  obs::JsonValue config_value = obs::JsonValue::object();
  config_value.set("workload", std::string("stream"));
  const obs::JsonValue body = harness::manifest_body(
      "test", "quarantine", config_value, {&row, 1}, obs::MetricsSnapshot{});
  EXPECT_TRUE(harness::write_manifest(body, path).ok());
  const Result<std::string> bytes =
      io::read_file_limited(std::filesystem::path(path));
  EXPECT_TRUE(bytes.ok()) << bytes.status().to_string();
  return bytes.ok() ? *bytes : std::string();
}

TEST(ProfQuarantineTest, ManifestBytesIdenticalWithAndWithoutProfiling) {
  const std::string dir = ::testing::TempDir();
  ProfSession session;
  const std::string with_prof =
      manifest_bytes(&session, dir + "/manifest_prof.json");
  const std::string without_prof =
      manifest_bytes(nullptr, dir + "/manifest_noprof.json");
  ASSERT_FALSE(with_prof.empty());
  EXPECT_EQ(with_prof, without_prof)
      << "a ProfSession must be a pure observer: identical manifests";

  // And no wall-clock field leaked into the body at all.
  EXPECT_EQ(with_prof.find("seconds"), std::string::npos)
      << "wall-clock fields belong in the tbp-prof-v1 sidecar";
}

TEST(ProfQuarantineTest, AttachedSessionCollectsShardSkew) {
  const std::string dir = ::testing::TempDir();
  ProfSession session;
  ASSERT_FALSE(manifest_bytes(&session, dir + "/manifest_skew.json").empty());

  const ShardSkew skew = session.skew_snapshot();
  EXPECT_FALSE(skew.empty()) << "sim_jobs=2 must record shard rounds";
  EXPECT_EQ(skew.n_workers, 2u);
  EXPECT_EQ(skew.n_sms, 4u);
  EXPECT_GT(skew.rounds, 0u);
  EXPECT_GT(skew.wall_seconds, 0.0);
  EXPECT_GE(skew.max_imbalance_ratio, 1.0)
      << "max/mean busy is >= 1 by construction whenever a round ran";
  ASSERT_EQ(skew.worker_busy_seconds.size(), 2u);
  ASSERT_EQ(skew.sm_busy_seconds.size(), 4u);
}

}  // namespace
}  // namespace tbp::prof
