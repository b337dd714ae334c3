// The accuracy-attribution invariant: the three error components telescope
// to the total error, in cycle space and (after the shared linear map) in
// IPC space, on real pipeline runs over synthetic applications.
#include "core/attribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "profile/profiler.hpp"
#include "sim/gpu.hpp"
#include "trace/generator.hpp"

namespace tbp::core {
namespace {

trace::BlockBehavior behavior(std::uint32_t iterations) {
  trace::BlockBehavior b;
  b.loop_iterations = iterations;
  b.alu_per_iteration = 4;
  b.mem_per_iteration = 1;
  b.stores_per_iteration = 1;
  b.lines_per_access = 2;
  b.pattern = trace::AddressPattern::kStreaming;
  return b;
}

struct App {
  std::vector<std::unique_ptr<trace::SyntheticLaunch>> launches;
  profile::ApplicationProfile profile;

  void add_launch(std::uint32_t n_blocks, std::uint32_t iterations,
                  std::uint64_t seed) {
    launches.push_back(std::make_unique<trace::SyntheticLaunch>(
        trace::make_synthetic_kernel_info("attr_test"), n_blocks, seed,
        [iterations](std::uint32_t) { return behavior(iterations); }));
    profile.launches.push_back(profile::profile_launch(*launches.back()));
  }

  [[nodiscard]] std::vector<const trace::LaunchTraceSource*> sources() const {
    std::vector<const trace::LaunchTraceSource*> out;
    for (const auto& l : launches) out.push_back(l.get());
    return out;
  }

  /// Ground truth: one fresh simulator per launch, exactly like the
  /// harness's full-simulation arm.
  [[nodiscard]] std::vector<LaunchExact> exact(
      const sim::GpuConfig& config) const {
    std::vector<LaunchExact> out;
    for (const auto& l : launches) {
      sim::GpuSimulator simulator(config);
      const sim::LaunchResult r = simulator.run_launch(*l);
      out.push_back(LaunchExact{r.cycles, r.sim_warp_insts});
    }
    return out;
  }
};

sim::GpuConfig small_config() {
  sim::GpuConfig config = sim::fermi_config();
  config.n_sms = 2;
  return config;
}

void expect_components_telescope(const ErrorAttribution& attr) {
  ASSERT_TRUE(attr.valid);
  const double component_sum =
      attr.inter_cycles + attr.warmup_cycles + attr.reconstruction_cycles;
  const double scale = std::max(1.0, std::abs(attr.exact_total_cycles));
  EXPECT_NEAR(component_sum, attr.total_error_cycles(), 1e-9 * scale);

  const double ipc_sum = attr.inter_ipc_error() + attr.warmup_ipc_error() +
                         attr.reconstruction_ipc_error();
  const double ipc_scale = std::max(1e-12, std::abs(attr.exact_ipc));
  EXPECT_NEAR(ipc_sum, attr.ipc_error(), 1e-9 * ipc_scale);

  const double pct_sum = attr.inter_error_pct() + attr.warmup_error_pct() +
                         attr.reconstruction_error_pct();
  EXPECT_NEAR(pct_sum, attr.total_error_pct(), 1e-7);
}

TEST(AttributionTest, ComponentsSumToTotalOnMixedApp) {
  App app;
  app.add_launch(300, 6, 7);
  app.add_launch(300, 6, 8);   // same shape, different seed: clustered
  app.add_launch(100, 12, 9);  // heavier per-block work: separate cluster
  const sim::GpuConfig config = small_config();
  const TBPointRun run = run_tbpoint(app.sources(), app.profile, config, {});
  const std::vector<LaunchExact> exact = app.exact(config);

  const ErrorAttribution attr = attribute_errors(app.profile, run, exact);
  expect_components_telescope(attr);

  // The decomposition is anchored to the same ground truth the harness
  // reports: total error must match the direct exact-vs-predicted delta.
  double exact_cycles = 0.0;
  for (const LaunchExact& l : exact) {
    exact_cycles += static_cast<double>(l.cycles);
  }
  const double direct_exact_ipc =
      static_cast<double>(app.profile.total_warp_insts()) / exact_cycles;
  EXPECT_NEAR(attr.exact_ipc, direct_exact_ipc, 1e-12);

  // A sampled heterogeneous app has real error somewhere; the decomposition
  // must place it (all-zero components would mean we attributed nothing).
  EXPECT_GT(std::abs(attr.inter_cycles) + std::abs(attr.warmup_cycles) +
                std::abs(attr.reconstruction_cycles),
            0.0);
  EXPECT_EQ(attr.clusters.size(), run.reps.size());
}

TEST(AttributionTest, InterErrorVanishesWithoutInterLaunchSampling) {
  App app;
  app.add_launch(300, 6, 7);
  app.add_launch(100, 12, 9);
  TBPointOptions options;
  options.enable_inter = false;  // identity clustering: every launch is a rep
  const sim::GpuConfig config = small_config();
  const TBPointRun run =
      run_tbpoint(app.sources(), app.profile, config, options);
  const std::vector<LaunchExact> exact = app.exact(config);

  const ErrorAttribution attr = attribute_errors(app.profile, run, exact);
  expect_components_telescope(attr);
  // scale == 1 and the cluster's only member is its representative, so the
  // projection term is identically zero for every cluster.
  EXPECT_NEAR(attr.inter_cycles, 0.0, 1e-9 * attr.exact_total_cycles);
  for (const ClusterAttribution& c : attr.clusters) {
    EXPECT_EQ(c.n_launches, 1u);
    EXPECT_NEAR(c.scale, 1.0, 1e-12);
    EXPECT_EQ(c.mean_distance_to_rep, 0.0);
  }
}

TEST(AttributionTest, FullSimulationOfRepsLeavesOnlyInterError) {
  App app;
  for (int i = 0; i < 4; ++i) app.add_launch(60, 6, 7 + static_cast<std::uint64_t>(i));
  TBPointOptions options;
  options.enable_intra = false;  // representatives simulate all their insts
  const sim::GpuConfig config = small_config();
  const TBPointRun run =
      run_tbpoint(app.sources(), app.profile, config, options);
  const std::vector<LaunchExact> exact = app.exact(config);

  const ErrorAttribution attr = attribute_errors(app.profile, run, exact);
  expect_components_telescope(attr);
  // No fast-forwarded stretches: nothing to re-weigh, no warm-up residual.
  EXPECT_EQ(attr.regions.size(), 0u);
  EXPECT_EQ(attr.reconstruction_cycles, 0.0);
  EXPECT_NEAR(attr.warmup_cycles, 0.0, 1e-9 * attr.exact_total_cycles);
}

TEST(AttributionTest, DegenerateInputsAreInvalidNotUb) {
  const ErrorAttribution empty =
      attribute_errors(profile::ApplicationProfile{}, TBPointRun{}, {});
  EXPECT_FALSE(empty.valid);
  EXPECT_EQ(empty.total_error_cycles(), 0.0);
  EXPECT_EQ(empty.ipc_error(), 0.0);
  EXPECT_EQ(empty.total_error_pct(), 0.0);
}

TEST(AttributionTest, RecordAttributionWritesCounters) {
  App app;
  app.add_launch(300, 6, 7);
  app.add_launch(100, 12, 9);
  const sim::GpuConfig config = small_config();
  const TBPointRun run = run_tbpoint(app.sources(), app.profile, config, {});
  const ErrorAttribution attr =
      attribute_errors(app.profile, run, app.exact(config));
  ASSERT_TRUE(attr.valid);

  obs::MetricsShard shard;
  record_attribution(attr, &shard);
  EXPECT_EQ(shard.counters().count("core.attr.valid"), 1u);
  EXPECT_EQ(shard.counters().count("core.attr.total.err_ppb"), 1u);
  EXPECT_EQ(shard.counters().count("core.attr.inter.err_ppb"), 1u);
  EXPECT_EQ(shard.counters().count("core.attr.warmup.err_ppb"), 1u);
  EXPECT_EQ(shard.counters().count("core.attr.reconstruction.err_ppb"), 1u);
  // Null shard is a no-op, not a crash.
  record_attribution(attr, nullptr);
}

TEST(AttributionTest, DeterministicAcrossRuns) {
  App app;
  app.add_launch(200, 6, 7);
  app.add_launch(200, 9, 8);
  const sim::GpuConfig config = small_config();
  const TBPointRun run_a = run_tbpoint(app.sources(), app.profile, config, {});
  const TBPointRun run_b = run_tbpoint(app.sources(), app.profile, config, {});
  const ErrorAttribution a = attribute_errors(app.profile, run_a, app.exact(config));
  const ErrorAttribution b = attribute_errors(app.profile, run_b, app.exact(config));
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_DOUBLE_EQ(a.inter_cycles, b.inter_cycles);
  EXPECT_DOUBLE_EQ(a.warmup_cycles, b.warmup_cycles);
  EXPECT_DOUBLE_EQ(a.reconstruction_cycles, b.reconstruction_cycles);
}

}  // namespace
}  // namespace tbp::core
