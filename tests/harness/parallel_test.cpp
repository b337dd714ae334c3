// Serial-vs-parallel property tests: the pipeline's determinism contract
// says every jobs value produces bit-identical results (only the wall-clock
// timing fields may differ).  These tests hold run_comparison, run_tbpoint
// and the CSV export to that standard, and prove the once-per-key cache
// guard collapses concurrent requests for one key into one computation.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/tbpoint.hpp"
#include "harness/cache.hpp"
#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "profile/profiler.hpp"
#include "sim/config.hpp"
#include "support/parallel.hpp"
#include "workloads/workload.hpp"

namespace tbp::harness {
namespace {

ComparisonOptions small_options(std::size_t jobs) {
  ComparisonOptions options;
  options.target_units = 60;
  options.jobs = jobs;
  return options;
}

sim::GpuConfig small_config() {
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 4;
  return config;
}

/// Every field that is part of the determinism contract — everything except
/// the wall-clock `*_seconds` measurements and the `from_cache` marker.
void expect_rows_bit_identical(const ExperimentRow& a, const ExperimentRow& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.irregular, b.irregular);
  EXPECT_EQ(a.n_launches, b.n_launches);
  EXPECT_EQ(a.total_blocks, b.total_blocks);
  EXPECT_EQ(a.total_warp_insts, b.total_warp_insts);
  EXPECT_EQ(a.full_ipc, b.full_ipc);  // bitwise, not NEAR
  for (const auto& [ma, mb] :
       {std::pair{&a.random, &b.random}, std::pair{&a.simpoint, &b.simpoint},
        std::pair{&a.tbpoint, &b.tbpoint},
        std::pair{&a.systematic, &b.systematic}}) {
    EXPECT_EQ(ma->ipc, mb->ipc);
    EXPECT_EQ(ma->err_pct, mb->err_pct);
    EXPECT_EQ(ma->sample_pct, mb->sample_pct);
  }
  EXPECT_EQ(a.inter_skip_share, b.inter_skip_share);
  EXPECT_EQ(a.simpoint_k, b.simpoint_k);
  EXPECT_EQ(a.tbp_clusters, b.tbp_clusters);
  EXPECT_EQ(a.unit_insts, b.unit_insts);
}

TEST(ParallelComparisonTest, SerialAndParallelRowsAreBitIdentical) {
  par::set_global_jobs(8);
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  const workloads::Workload workload = workloads::make_workload("stream", scale);
  const sim::GpuConfig config = small_config();

  const ExperimentRow serial =
      run_comparison(workload, config, small_options(1));
  const ExperimentRow parallel =
      run_comparison(workload, config, small_options(8));
  // The launch-isolation bugfix in one assertion: the serial and the
  // per-launch-simulator parallel paths agree on the full-simulation IPC.
  EXPECT_EQ(serial.full_ipc, parallel.full_ipc);
  expect_rows_bit_identical(serial, parallel);
}

TEST(ParallelComparisonTest, IrregularWorkloadAgreesToo) {
  par::set_global_jobs(8);
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  const workloads::Workload workload = workloads::make_workload("bfs", scale);
  const sim::GpuConfig config = small_config();
  expect_rows_bit_identical(run_comparison(workload, config, small_options(1)),
                            run_comparison(workload, config, small_options(4)));
}

TEST(ParallelTbpointTest, SerialAndParallelRunsAgree) {
  par::set_global_jobs(4);
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  const workloads::Workload workload = workloads::make_workload("hotspot", scale);
  const auto sources = workload.sources();
  profile::ApplicationProfile profile;
  for (const auto* source : sources) {
    profile.launches.push_back(profile::profile_launch(*source));
  }
  const sim::GpuConfig config = small_config();

  core::TBPointOptions serial_options;
  serial_options.jobs = 1;
  core::TBPointOptions parallel_options;
  parallel_options.jobs = 4;
  const core::TBPointRun serial =
      core::run_tbpoint(sources, profile, config, serial_options);
  const core::TBPointRun parallel =
      core::run_tbpoint(sources, profile, config, parallel_options);

  EXPECT_EQ(serial.app.predicted_ipc, parallel.app.predicted_ipc);
  EXPECT_EQ(serial.app.total_warp_insts, parallel.app.total_warp_insts);
  EXPECT_EQ(serial.app.simulated_warp_insts, parallel.app.simulated_warp_insts);
  ASSERT_EQ(serial.reps.size(), parallel.reps.size());
  for (std::size_t r = 0; r < serial.reps.size(); ++r) {
    EXPECT_EQ(serial.reps[r].launch_index, parallel.reps[r].launch_index);
    EXPECT_EQ(serial.reps[r].sim.cycles, parallel.reps[r].sim.cycles);
    EXPECT_EQ(serial.reps[r].sim.sim_warp_insts,
              parallel.reps[r].sim.sim_warp_insts);
    EXPECT_EQ(serial.reps[r].prediction.predicted_ipc,
              parallel.reps[r].prediction.predicted_ipc);
  }
}

TEST(ParallelCsvTest, CsvBytesAreIdenticalAcrossJobsValues) {
  // The acceptance check in miniature: cold runs at jobs 1 and jobs 8,
  // timing fields zeroed (they are wall-clock and legitimately differ),
  // byte-compare the CSV.
  par::set_global_jobs(8);
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  const sim::GpuConfig config = small_config();
  const std::vector<std::string> names = {"stream", "hotspot"};

  const auto rows_at = [&](std::size_t jobs) {
    std::vector<ExperimentRow> rows(names.size());
    par::parallel_for(names.size(), jobs, [&](std::size_t i) {
      const workloads::Workload workload =
          workloads::make_workload(names[i], scale);
      rows[i] = run_comparison(workload, config, small_options(jobs));
      rows[i].full_sim_seconds = 0.0;
      rows[i].tbp_seconds = 0.0;
    });
    return rows;
  };

  std::ostringstream serial_csv;
  std::ostringstream parallel_csv;
  write_rows_csv(rows_at(1), serial_csv);
  write_rows_csv(rows_at(8), parallel_csv);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

TEST(OncePerKeyTest, ConcurrentRequestsCostOneComputation) {
  const std::string dir = ::testing::TempDir() + "/tbp_once_per_key";
  std::filesystem::remove_all(dir);
  par::set_global_jobs(4);

  workloads::WorkloadScale scale;
  scale.divisor = 32;
  const sim::GpuConfig config = small_config();
  const ComparisonOptions options = small_options(1);

  const std::size_t before = run_comparison_invocations();
  constexpr std::size_t kThreads = 4;
  std::vector<ExperimentRow> rows(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        rows[t] = cached_comparison("stream", scale, config, options, dir);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  // One owner computed; the other three shared its row without touching
  // run_comparison (and without re-reading the disk entry).
  EXPECT_EQ(run_comparison_invocations(), before + 1);
  for (std::size_t t = 1; t < kThreads; ++t) {
    expect_rows_bit_identical(rows[0], rows[t]);
  }

  // A later call hits the on-disk entry and is marked as cached.
  const ExperimentRow reloaded =
      cached_comparison("stream", scale, config, options, dir);
  EXPECT_EQ(run_comparison_invocations(), before + 1);
  EXPECT_TRUE(reloaded.from_cache);
  expect_rows_bit_identical(rows[0], reloaded);

  // The once-per-key guard must drain: a completed key left in the map
  // would pin every row of a sweep in memory for the process lifetime.
  EXPECT_EQ(cache_in_flight_for_test(), 0u);
}

TEST(ModelFingerprintTest, SameAcrossCallsThreadsAndJobs) {
  // The fingerprint is computed once per process, whichever thread asks
  // first; every caller sees the same 32 hex chars, and the canary does
  // not show up in run_comparison_invocations().
  const std::size_t before = run_comparison_invocations();
  constexpr std::size_t kThreads = 4;
  std::vector<std::string> seen(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() { seen[t] = model_fingerprint(); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(run_comparison_invocations(), before);
  ASSERT_EQ(seen[0].size(), 32u);
  for (const std::string& fingerprint : seen) EXPECT_EQ(fingerprint, seen[0]);
  EXPECT_EQ(model_fingerprint(), seen[0]);

  // --jobs is not part of the address: a row saved by a jobs=4 comparison
  // is the entry a jobs=1 lookup of the same experiment finds.
  const std::string dir = ::testing::TempDir() + "/tbp_fingerprint_jobs";
  std::filesystem::remove_all(dir);
  par::set_global_jobs(4);
  workloads::WorkloadScale scale;
  scale.divisor = 32;
  const ExperimentRow computed = cached_comparison(
      "stream", scale, small_config(), small_options(4), dir);
  EXPECT_FALSE(computed.from_cache);
  const ExperimentRow reloaded = cached_comparison(
      "stream", scale, small_config(), small_options(1), dir);
  EXPECT_TRUE(reloaded.from_cache);
  expect_rows_bit_identical(computed, reloaded);
  EXPECT_EQ(run_comparison_invocations(), before + 1);
}

}  // namespace
}  // namespace tbp::harness
