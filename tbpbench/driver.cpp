// tbpbench driver: runs one benchmark workload against the library's public
// entry points and writes the raw measurements as one JSON document.
//
//   tbpbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR --out FILE
//
// Workloads (see README.md in this directory for the rationale):
//
//   fig9-mem      harness::run_comparison on a bfs launch subset and lbm,
//                 jobs=1, sim_jobs=1 — the memory-bound simulator path.
//   fig9-compute  harness::run_comparison on kmeans, jobs=nproc — the
//                 compute-bound path through the thread pool.
//   shard-sim     sim::GpuSimulator::run_launch over a fixed mri subset and
//                 every lbm launch, sim_jobs=nproc — the sharded engine.
//   service-mix   service::Daemon over a fresh spool and store: batches of
//                 submit_request / drain_once / try_read_response.
//
// The driver only measures and checks; medians, percentiles, span self
// times and ratios are computed by report.py from the document, so that
// arithmetic is unit-tested in one place.  With --trace 0 every timed
// iteration calls the public entry points untraced.  With --trace 1 a few
// untraced iterations are followed by traced ones that re-drive the same
// pipeline one public call at a time, with a span around each call and the
// program's own obs / prof / service / store counters read from outside.
#include <malloc.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baselines/ideal_simpoint.hpp"
#include "baselines/random_sampling.hpp"
#include "baselines/systematic_sampling.hpp"
#include "core/inter_launch.hpp"
#include "core/reconstruction.hpp"
#include "core/region.hpp"
#include "core/region_sampler.hpp"
#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "prof/prof.hpp"
#include "profile/profiler.hpp"
#include "service/daemon.hpp"
#include "service/request.hpp"
#include "service/spool.hpp"
#include "sim/config.hpp"
#include "sim/gpu.hpp"
#include "stats/error.hpp"
#include "support/parallel.hpp"
#include "support/walltime.hpp"
#include "trace/occupancy.hpp"
#include "workloads/workload.hpp"

namespace {

using tbp::obs::JsonValue;
namespace fs = std::filesystem;

// Set-up repeats for kSetupSeconds, at least kMinSetups and at most
// kMaxSetups times; report.py takes the median.  The simulation workloads
// set up in about a millisecond, and the host's speed changes within tens
// of milliseconds, so 15 back-to-back repeats saw one state of it: their
// median over ten runs moved by 25% (fig9-mem) and 40% (shard-sim) between
// two sets of runs.  A second of repeats samples a longer stretch.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 4096;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMaxFailureMessages = 20;
// Input variants per run of the simulation workloads (see Job).
constexpr std::size_t kVariants = 4;

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and run id, kept in memory and written
// with the document.  A null Tracer records nothing and reads no clock.

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t run = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

class Tracer {
 public:
  explicit Tracer(double origin) : origin_(origin) {}

  [[nodiscard]] std::int64_t open() {
    const std::scoped_lock lock(mutex_);
    return next_id_++;
  }

  void close(SpanRecord record) {
    const std::scoped_lock lock(mutex_);
    spans_.push_back(std::move(record));
  }

  [[nodiscard]] double now() const {
    return tbp::timing::monotonic_seconds() - origin_;
  }

  [[nodiscard]] JsonValue to_json() const {
    JsonValue out = JsonValue::array();
    for (const SpanRecord& s : spans_) {
      JsonValue span = JsonValue::object();
      span.set("id", s.id);
      span.set("parent", s.parent);
      span.set("run", s.run);
      span.set("name", s.name);
      span.set("start", s.start);
      span.set("end", s.end);
      out.items().push_back(std::move(span));
    }
    return out;
  }

 private:
  double origin_;
  std::mutex mutex_;
  std::int64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Where a span sits: its tracer (null = untraced), run id and parent.
struct SpanContext {
  Tracer* tracer = nullptr;
  std::int64_t run = 0;
  std::int64_t parent = -1;
};

class Span {
 public:
  Span(const SpanContext& ctx, std::string_view name) : tracer_(ctx.tracer) {
    if (tracer_ == nullptr) return;
    record_.id = tracer_->open();
    record_.parent = ctx.parent;
    record_.run = ctx.run;
    record_.name = std::string(name);
    record_.start = tracer_->now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ == nullptr) return;
    record_.end = tracer_->now();
    tracer_->close(std::move(record_));
  }

  /// Context for spans nested under this one.
  [[nodiscard]] SpanContext child(const SpanContext& ctx) const {
    return SpanContext{ctx.tracer, ctx.run, tracer_ == nullptr ? -1 : record_.id};
  }

 private:
  Tracer* tracer_;
  SpanRecord record_;
};

// ---------------------------------------------------------------------------
// Operation accounting: every row, launch or request is one operation; an
// operation that fails any output check counts once as failed.

class Checks {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }

  /// Records the outcome of one attempted operation's checks.
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    failed_ += 1;
    if (messages_.size() < kMaxFailureMessages) messages_.push_back(what);
  }

  void to_json(JsonValue& doc) const {
    doc.set("ops_attempted", attempted_);
    doc.set("ops_failed", failed_);
    JsonValue messages = JsonValue::array();
    for (const std::string& m : messages_) messages.items().push_back(m);
    doc.set("failures", std::move(messages));
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Raw counters of one traced iteration, summed by name.
using Counters = std::map<std::string, double>;

/// Adds the shard's `prefix` counters, machine-wide ones only (the
/// simulator also exports a per-SM copy under sim.sm.NN.).
void add_snapshot(Counters& counters, const tbp::obs::MetricsShard& shard,
                  std::string_view prefix) {
  for (const auto& [name, value] : shard.counters()) {
    if (name.starts_with(prefix) && !name.starts_with("sim.sm.")) {
      counters[name] += static_cast<double>(value);
    }
  }
}

struct Iteration {
  std::size_t variant = 0;  ///< which input variant the iteration ran
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  bool traced = false;
  JsonValue extra = JsonValue::object();  ///< workload-specific timings
  Counters counters;                      ///< traced iterations only
};

/// One benchmark workload.  setup() may run several times; the timed
/// iterations use the state of the last call.  A job may build several
/// input variants from the seed; iteration i runs variant i % variants(),
/// and the timed part runs whole rounds of variants, so a run's median
/// spans several inputs instead of hanging on one.
class Job {
 public:
  virtual ~Job() = default;
  [[nodiscard]] virtual std::size_t variants() const { return 1; }
  virtual void setup(const SpanContext& ctx) = 0;
  virtual Iteration iterate(std::size_t index, Checks& checks) = 0;
  virtual Iteration iterate_traced(const SpanContext& ctx, std::size_t index,
                                   Checks& checks) = 0;
  /// Post-run checks and the outputs pinned at the default seed.
  virtual void finish(Checks& checks, JsonValue& doc) = 0;
};

/// The workload seed of input variant `v`: the run seed itself for variant
/// 0, a fixed mix of it for the others.
std::uint64_t variant_seed(std::uint64_t seed, std::size_t v) {
  return v == 0 ? seed : seed ^ (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL);
}

// ---------------------------------------------------------------------------
// fig9-mem / fig9-compute: the four-way comparison, untraced through
// harness::run_comparison, traced through the same pipeline call by call.

struct RowSpec {
  std::string name;
  std::uint32_t divisor = 8;
  std::vector<std::size_t> launches;  ///< empty = every launch
};

struct RowValues {
  double full_ipc = 0.0;
  double full_cycles = 0.0;
  double tbpoint_ipc = 0.0;
  double tbpoint_err_pct = 0.0;
  double tbpoint_sample_pct = 0.0;
  std::uint64_t total_warp_insts = 0;
  std::uint64_t full_retired_warp_insts = 0;

  [[nodiscard]] bool same_results(const RowValues& o) const {
    return full_ipc == o.full_ipc && full_cycles == o.full_cycles &&
           tbpoint_ipc == o.tbpoint_ipc && tbpoint_err_pct == o.tbpoint_err_pct &&
           tbpoint_sample_pct == o.tbpoint_sample_pct &&
           total_warp_insts == o.total_warp_insts;
  }
  [[nodiscard]] JsonValue to_json() const {
    JsonValue out = JsonValue::object();
    out.set("full_ipc", full_ipc);
    out.set("full_cycles", full_cycles);
    out.set("tbpoint_ipc", tbpoint_ipc);
    out.set("tbpoint_err_pct", tbpoint_err_pct);
    out.set("tbpoint_sample_pct", tbpoint_sample_pct);
    out.set("total_warp_insts", total_warp_insts);
    return out;
  }
};

class ComparisonJob final : public Job {
 public:
  ComparisonJob(std::vector<RowSpec> rows, std::uint64_t seed, std::size_t jobs)
      : specs_(std::move(rows)), seed_(seed), jobs_(jobs) {
    options_.jobs = jobs_;
    options_.sim_jobs = 1;
  }

  [[nodiscard]] std::size_t variants() const override { return kVariants; }

  void setup(const SpanContext& ctx) override {
    inputs_.clear();
    inputs_.resize(kVariants);
    for (std::size_t v = 0; v < kVariants; ++v) {
      for (const RowSpec& spec : specs_) {
        tbp::workloads::Workload w;
        {
          Span span(ctx, "workloads.make_workload");
          w = tbp::workloads::make_workload(
              spec.name, tbp::workloads::WorkloadScale{
                             .divisor = spec.divisor, .seed = variant_seed(seed_, v)});
        }
        if (!spec.launches.empty()) {
          std::vector<std::unique_ptr<tbp::trace::SyntheticLaunch>> kept;
          for (std::size_t i : spec.launches) kept.push_back(std::move(w.launches.at(i)));
          w.launches = std::move(kept);
        }
        w.name += "/" + std::to_string(v);  // the row label
        inputs_[v].push_back(std::move(w));
      }
    }
  }

  Iteration iterate(std::size_t index, Checks& checks) override {
    const std::vector<tbp::workloads::Workload>& workloads = inputs_[index % kVariants];
    Iteration it;
    double full_s = 0.0;
    double tbp_s = 0.0;
    std::uint64_t winsts = 0;
    const double start = tbp::timing::monotonic_seconds();
    std::vector<tbp::harness::ExperimentRow> rows;
    rows.reserve(workloads.size());
    for (const tbp::workloads::Workload& w : workloads) {
      rows.push_back(tbp::harness::run_comparison(w, config_, options_));
    }
    it.wall_s = tbp::timing::monotonic_seconds() - start;
    for (const tbp::harness::ExperimentRow& row : rows) {
      full_s += row.full_sim_seconds;
      tbp_s += row.tbp_seconds;
      winsts += row.full_retired_warp_insts;
      check_row(row.workload, values_of(row), checks);
    }
    it.ops = rows.size();
    it.extra.set("full_sim_s", full_s);
    it.extra.set("tbpoint_s", tbp_s);
    it.extra.set("sim_winsts", winsts);
    return it;
  }

  Iteration iterate_traced(const SpanContext& ctx, std::size_t index,
                           Checks& checks) override {
    const std::vector<tbp::workloads::Workload>& workloads = inputs_[index % kVariants];
    Iteration it;
    const double start = tbp::timing::monotonic_seconds();
    {
      Span root(ctx, "bench.iteration");
      const SpanContext inner = root.child(ctx);
      for (const tbp::workloads::Workload& w : workloads) {
        const RowValues values = redrive(w, inner, it.counters);
        check_row(w.name, values, checks);
      }
    }
    it.wall_s = tbp::timing::monotonic_seconds() - start;
    it.ops = workloads.size();
    it.traced = true;
    return it;
  }

  void finish(Checks& /*checks*/, JsonValue& doc) override {
    JsonValue outputs = JsonValue::object();
    for (const auto& [name, values] : reference_) outputs.set(name, values.to_json());
    doc.set("outputs", std::move(outputs));
  }

 private:
  static RowValues values_of(const tbp::harness::ExperimentRow& row) {
    RowValues v;
    v.full_ipc = row.full_ipc;
    v.full_cycles = row.attribution.exact_total_cycles;
    v.tbpoint_ipc = row.tbpoint.ipc;
    v.tbpoint_err_pct = row.tbpoint.err_pct;
    v.tbpoint_sample_pct = row.tbpoint.sample_pct;
    v.total_warp_insts = row.total_warp_insts;
    v.full_retired_warp_insts = row.full_retired_warp_insts;
    return v;
  }

  /// Per row: the profiler and the full simulation agree on the warp
  /// instruction count, and every computation of the row (untraced or
  /// re-driven) yields the same results bit for bit.
  void check_row(const std::string& name, const RowValues& values, Checks& checks) {
    checks.attempt();
    auto [ref, inserted] = reference_.try_emplace(name, values);
    const bool counts_agree =
        values.total_warp_insts == values.full_retired_warp_insts;
    const bool matches = inserted || values.same_results(ref->second);
    checks.expect(counts_agree && matches,
                  name + (counts_agree ? ": results differ from the first "
                                         "computation of the row"
                                       : ": profiler and simulator warp "
                                         "instruction counts differ"));
  }

  /// harness::run_comparison, one public call at a time, each in a span.
  RowValues redrive(const tbp::workloads::Workload& w, const SpanContext& ctx,
                    Counters& counters) {
    const std::vector<const tbp::trace::LaunchTraceSource*> sources = w.sources();
    const std::size_t n = sources.size();

    tbp::profile::ApplicationProfile app;
    app.launches.resize(n);
    tbp::par::parallel_for(n, jobs_, [&](std::size_t i) {
      Span span(ctx, "profile.profile_launch");
      app.launches[i] = tbp::profile::profile_launch(*sources[i]);
    });
    RowValues values;
    values.total_warp_insts = app.total_warp_insts();
    counters["profile.warp_insts"] += static_cast<double>(values.total_warp_insts);

    // Ground truth, metered into fixed units exactly as run_comparison does.
    const tbp::harness::ComparisonOptions& o = options_;
    tbp::sim::GpuConfig full_config = config_;
    full_config.fixed_unit_insts = std::clamp<std::uint64_t>(
        values.total_warp_insts / std::max<std::size_t>(o.target_units, 1),
        o.min_unit_insts, o.max_unit_insts);
    std::vector<tbp::sim::LaunchResult> full(n);
    std::vector<tbp::obs::MetricsShard> full_shards(n);
    tbp::par::parallel_for(n, jobs_, [&](std::size_t i) {
      tbp::sim::GpuSimulator simulator(full_config);
      tbp::sim::RunOptions run;
      run.sim_jobs = o.sim_jobs;
      run.observe.metrics = &full_shards[i];
      Span span(ctx, "sim.full.run_launch");
      full[i] = simulator.run_launch(*sources[i], run);
    });
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    std::vector<tbp::sim::FixedUnit> units;
    for (std::size_t i = 0; i < n; ++i) {
      cycles += full[i].cycles;
      insts += full[i].sim_warp_insts;
      units.insert(units.end(), full[i].fixed_units.begin(), full[i].fixed_units.end());
      add_snapshot(counters, full_shards[i], "sim.");
    }
    values.full_retired_warp_insts = insts;
    values.full_cycles = static_cast<double>(cycles);
    values.full_ipc = cycles == 0 ? 0.0
                                  : static_cast<double>(insts) /
                                        static_cast<double>(cycles);
    counters["sim.full.cycles"] += static_cast<double>(cycles);
    counters["sim.full.warp_insts"] += static_cast<double>(insts);
    counters["sim.full.dram_channel_cycles"] +=
        static_cast<double>(cycles) * config_.n_channels;

    {
      Span span(ctx, "baselines.random_sampling");
      (void)tbp::baselines::random_sampling(units, o.random);
    }
    {
      Span span(ctx, "baselines.systematic_sampling");
      (void)tbp::baselines::systematic_sampling(units, o.systematic);
    }
    {
      Span span(ctx, "baselines.ideal_simpoint");
      const tbp::baselines::SimpointResult simpoint =
          tbp::baselines::ideal_simpoint(units, o.simpoint);
      counters["baselines.simpoint_k"] += static_cast<double>(simpoint.selected_k);
    }

    // TBPoint: core::run_tbpoint's steps.
    const tbp::core::TBPointOptions& t = o.tbpoint;
    tbp::core::InterLaunchResult inter;
    {
      Span span(ctx, "core.cluster_launches");
      inter = tbp::core::cluster_launches(app, t.inter);
    }
    counters["core.clusters"] += static_cast<double>(inter.clusters.size());
    const std::size_t n_reps = inter.representatives.size();
    std::vector<tbp::core::LaunchPrediction> predictions(n_reps);
    std::vector<Counters> rep_counters(n_reps);
    tbp::par::parallel_for(n_reps, jobs_, [&](std::size_t r) {
      const std::size_t li = inter.representatives[r];
      const tbp::profile::LaunchProfile& profile = app.launches[li];
      Counters& c = rep_counters[r];
      const std::uint32_t occupancy = tbp::trace::system_occupancy(
          sources[li]->kernel(), config_.sm_resources, config_.n_sms);
      tbp::core::RegionIdentification regions;
      if (t.enable_intra && occupancy > 0) {
        Span span(ctx, "core.identify_regions");
        regions = tbp::core::identify_regions(profile, occupancy, t.intra);
      } else {
        regions.table = tbp::core::RegionTable{
            static_cast<std::uint32_t>(profile.blocks.size()), {}};
      }
      c["core.regions"] += static_cast<double>(regions.table.regions().size());
      c["core.region_blocks"] += static_cast<double>(regions.table.blocks_in_regions());
      c["core.rep_blocks"] += static_cast<double>(profile.blocks.size());
      c["core.rep_warp_insts"] += static_cast<double>(profile.total_warp_insts());

      tbp::core::RegionSamplerOptions sampler_options = t.sampler;
      if (sampler_options.simulate_final_tail_blocks == 0) {
        sampler_options.simulate_final_tail_blocks = occupancy;
      }
      tbp::core::RegionSampler sampler(profile, regions.table, sampler_options);
      tbp::obs::MetricsShard sampler_shard;
      sampler.attach_observation(&sampler_shard, nullptr, 0, 0);
      tbp::sim::RunOptions run;
      run.controller = &sampler;
      run.sim_jobs = o.sim_jobs;
      tbp::sim::LaunchResult result;
      {
        Span span(ctx, "sim.sampled.run_launch");
        tbp::sim::GpuSimulator simulator(config_);
        result = simulator.run_launch(*sources[li], run);
      }
      sampler.finalize();
      add_snapshot(c, sampler_shard, "core.sampler.");
      c["sim.sampled.cycles"] += static_cast<double>(result.cycles);
      c["sim.sampled.warp_insts"] += static_cast<double>(result.sim_warp_insts);
      Span span(ctx, "core.predict");
      predictions[r] = tbp::core::predict_launch(profile, result, sampler.skipped_regions());
    });
    for (const Counters& c : rep_counters) {
      for (const auto& [name, value] : c) counters[name] += value;
    }
    tbp::core::ApplicationPrediction prediction;
    {
      Span span(ctx, "core.predict");
      prediction = tbp::core::combine_predictions(app, inter, predictions);
    }
    values.tbpoint_ipc = prediction.predicted_ipc;
    values.tbpoint_err_pct =
        tbp::stats::relative_error_pct(prediction.predicted_ipc, values.full_ipc);
    values.tbpoint_sample_pct = 100.0 * prediction.sample_fraction();
    return values;
  }

  std::vector<RowSpec> specs_;
  std::uint64_t seed_;
  std::size_t jobs_;
  tbp::sim::GpuConfig config_ = tbp::sim::fermi_config();
  tbp::harness::ComparisonOptions options_;
  std::vector<std::vector<tbp::workloads::Workload>> inputs_;  ///< per variant
  std::map<std::string, RowValues> reference_;  ///< per row label
};

// ---------------------------------------------------------------------------
// shard-sim: full simulation of single launches with SM sharding.

/// Every `stride`-th block of a launch: the launch at a fraction of its
/// size with its block-position structure (mri's density plateaus) kept.
class StridedLaunch final : public tbp::trace::LaunchTraceSource {
 public:
  StridedLaunch(const tbp::trace::LaunchTraceSource& base, std::uint32_t stride)
      : base_(&base), stride_(stride) {}
  [[nodiscard]] const tbp::trace::KernelInfo& kernel() const override {
    return base_->kernel();
  }
  [[nodiscard]] std::uint32_t n_blocks() const override {
    return base_->n_blocks() / stride_;
  }
  [[nodiscard]] tbp::trace::BlockTrace block_trace(std::uint32_t id) const override {
    return base_->block_trace(id * stride_);
  }

 private:
  const tbp::trace::LaunchTraceSource* base_;
  std::uint32_t stride_;
};

struct LaunchValues {
  std::uint64_t cycles = 0;
  std::uint64_t warp_insts = 0;
  std::uint64_t thread_insts = 0;
  std::vector<std::uint64_t> mem;

  static LaunchValues of(const tbp::sim::LaunchResult& r) {
    const tbp::sim::MemoryStats& m = r.mem;
    return LaunchValues{
        r.cycles, r.sim_warp_insts, r.sim_thread_insts,
        {m.l1.hits, m.l1.misses, m.l2.hits, m.l2.misses, m.l1_mshr_stalls,
         m.l2_mshr_overflows, m.dram.row_hits, m.dram.row_misses,
         m.dram.scheduling_decisions}};
  }
  bool operator==(const LaunchValues&) const = default;
};

class ShardJob final : public Job {
 public:
  // mri keeps all 18 158 blocks at every scale; one dense and one sparse
  // launch at 1/16 of their blocks keep a pass near a second.
  static constexpr std::uint32_t kMriStride = 16;
  static constexpr std::size_t kMriLaunches[] = {1, 2};
  static constexpr std::uint32_t kLbmDivisor = 64;

  ShardJob(std::uint64_t seed, std::uint32_t sim_jobs) : seed_(seed), sim_jobs_(sim_jobs) {}

  [[nodiscard]] std::size_t variants() const override { return kVariants; }

  void setup(const SpanContext& ctx) override {
    models_.clear();
    launches_.clear();
    launches_.resize(kVariants);
    labels_.clear();
    for (std::size_t v = 0; v < kVariants; ++v) {
      const std::uint64_t seed = variant_seed(seed_, v);
      tbp::workloads::Workload mri;
      tbp::workloads::Workload lbm;
      {
        Span span(ctx, "workloads.make_workload");
        mri = tbp::workloads::make_workload("mri", {.divisor = 8, .seed = seed});
      }
      {
        Span span(ctx, "workloads.make_workload");
        lbm = tbp::workloads::make_workload("lbm", {.divisor = kLbmDivisor, .seed = seed});
      }
      const std::string suffix = "/" + std::to_string(v);
      for (std::size_t i : kMriLaunches) {
        launches_[v].push_back(std::make_unique<StridedLaunch>(*mri.launches.at(i), kMriStride));
        labels_.push_back("mri/" + std::to_string(i) + suffix);
      }
      for (std::size_t i = 0; i < lbm.launches.size(); ++i) {
        launches_[v].push_back(std::make_unique<StridedLaunch>(*lbm.launches[i], 1));
        labels_.push_back("lbm/" + std::to_string(i) + suffix);
      }
      models_.push_back(std::move(mri));
      models_.push_back(std::move(lbm));
    }
  }

  Iteration iterate(std::size_t index, Checks& checks) override {
    const std::size_t v = index % kVariants;
    Iteration it;
    std::uint64_t winsts = 0;
    std::vector<LaunchValues> values;
    const double start = tbp::timing::monotonic_seconds();
    for (const auto& launch : launches_[v]) {
      tbp::sim::GpuSimulator simulator(config_);
      tbp::sim::RunOptions run;
      run.sim_jobs = sim_jobs_;
      const tbp::sim::LaunchResult result = simulator.run_launch(*launch, run);
      values.push_back(LaunchValues::of(result));
    }
    it.wall_s = tbp::timing::monotonic_seconds() - start;
    for (const LaunchValues& lv : values) winsts += lv.warp_insts;
    observed_.emplace_back(v, std::move(values));
    it.ops = launches_[v].size();
    checks.attempt(it.ops);
    it.extra.set("full_sim_s", it.wall_s);
    it.extra.set("sim_winsts", winsts);
    return it;
  }

  Iteration iterate_traced(const SpanContext& ctx, std::size_t index,
                           Checks& checks) override {
    const std::size_t v = index % kVariants;
    Iteration it;
    tbp::prof::ProfSession prof;
    std::vector<LaunchValues> values;
    const double start = tbp::timing::monotonic_seconds();
    {
      Span root(ctx, "bench.iteration");
      const SpanContext inner = root.child(ctx);
      for (const auto& launch : launches_[v]) {
        tbp::obs::MetricsShard shard;
        tbp::sim::GpuSimulator simulator(config_);
        tbp::sim::RunOptions run;
        run.sim_jobs = sim_jobs_;
        run.observe.metrics = &shard;
        run.prof = &prof;
        tbp::sim::LaunchResult result;
        {
          Span span(inner, "sim.full.run_launch");
          result = simulator.run_launch(*launch, run);
        }
        add_snapshot(it.counters, shard, "sim.");
        it.counters["sim.full.cycles"] += static_cast<double>(result.cycles);
        it.counters["sim.full.warp_insts"] += static_cast<double>(result.sim_warp_insts);
        it.counters["sim.full.dram_channel_cycles"] +=
            static_cast<double>(result.cycles) * config_.n_channels;
        values.push_back(LaunchValues::of(result));
      }
    }
    it.wall_s = tbp::timing::monotonic_seconds() - start;
    const tbp::prof::ShardSkew skew = prof.skew_snapshot();
    it.counters["sim.shard.rounds"] = static_cast<double>(skew.rounds);
    it.counters["sim.shard.busy_s"] = sum(skew.worker_busy_seconds);
    it.counters["sim.shard.wait_s"] = sum(skew.worker_wait_seconds);
    it.counters["sim.shard.imbalance_ratio"] = skew.mean_imbalance_ratio();
    observed_.emplace_back(v, std::move(values));
    it.ops = launches_[v].size();
    checks.attempt(it.ops);
    it.traced = true;
    return it;
  }

  /// Every sharded result must equal the sim_jobs=1 result of its launch.
  void finish(Checks& checks, JsonValue& doc) override {
    std::vector<const StridedLaunch*> all;  // every variant's launches, in label order
    for (const auto& variant : launches_) {
      for (const auto& launch : variant) all.push_back(launch.get());
    }
    std::vector<LaunchValues> serial(all.size());
    tbp::par::parallel_for(all.size(), sim_jobs_, [&](std::size_t k) {
      tbp::sim::GpuSimulator simulator(config_);
      serial[k] = LaunchValues::of(simulator.run_launch(*all[k]));
    });
    const std::size_t per_variant = launches_.front().size();
    for (const auto& [v, pass] : observed_) {
      for (std::size_t i = 0; i < pass.size(); ++i) {
        const std::size_t k = v * per_variant + i;
        checks.expect(pass[i] == serial[k],
                      labels_[k] + ": sharded result differs from sim_jobs=1");
      }
    }
    JsonValue outputs = JsonValue::object();
    for (std::size_t i = 0; i < serial.size(); ++i) {
      JsonValue v = JsonValue::object();
      v.set("cycles", serial[i].cycles);
      v.set("warp_insts", serial[i].warp_insts);
      v.set("ipc", static_cast<double>(serial[i].warp_insts) /
                       static_cast<double>(serial[i].cycles));
      outputs.set(labels_[i], std::move(v));
    }
    doc.set("outputs", std::move(outputs));
  }

 private:
  static double sum(const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  }

  std::uint64_t seed_;
  std::uint32_t sim_jobs_;
  tbp::sim::GpuConfig config_ = tbp::sim::fermi_config();
  std::vector<tbp::workloads::Workload> models_;  ///< owners of the launches
  std::vector<std::vector<std::unique_ptr<StridedLaunch>>> launches_;  ///< per variant
  std::vector<std::string> labels_;
  std::vector<std::pair<std::size_t, std::vector<LaunchValues>>> observed_;  ///< (variant, pass)
};

// ---------------------------------------------------------------------------
// service-mix: a closed loop from one client through the spool.

class ServiceJob final : public Job {
 public:
  // Per batch: every warm spec once (store reads), kCold new specs (store
  // writes), each cold spec kDuplicates more times (in-batch dedup).
  static constexpr std::size_t kWarm = 8;
  static constexpr std::size_t kCold = 4;
  static constexpr std::size_t kDuplicates = 1;
  static constexpr std::uint32_t kDivisor = 32;
  static constexpr const char* kSpecWorkloads[] = {"kmeans", "black"};

  ServiceJob(std::uint64_t seed, std::size_t jobs, fs::path work_dir, bool profiled)
      : seed_(seed), jobs_(jobs), work_dir_(std::move(work_dir)), profiled_(profiled) {}

  void setup(const SpanContext& /*ctx*/) override {
    spool_ = work_dir_ / ("spool-" + std::to_string(setups_++));
    fs::remove_all(spool_);
    tbp::service::DaemonOptions options;
    options.spool_dir = spool_;
    options.jobs = jobs_;
    options.prof = profiled_ ? &prof_ : nullptr;
    daemon_ = std::make_unique<tbp::service::Daemon>(options);
    must(daemon_->open(), "open daemon");
    expected_.clear();
    warm_.clear();
    for (std::size_t i = 0; i < kWarm; ++i) warm_.push_back(spec(0xffff, i));
    // Build the store: one drain over the warm specs.
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < kWarm; ++i) {
      ids.push_back("warm-" + std::to_string(i));
      must(tbp::service::submit_request(spool_, ids.back(),
                                        tbp::service::spec_canonical_line(warm_[i])),
           "submit");
    }
    must(daemon_->drain_once().status(), "drain");
    warm_bytes_.clear();
    for (std::size_t i = 0; i < kWarm; ++i) {
      tbp::Result<std::string> bytes = tbp::service::try_read_response(spool_, ids[i]);
      must(bytes.status(), "read warm response");
      warm_bytes_.push_back(*bytes);
      expected_[tbp::service::spec_canonical_line(warm_[i])] = *bytes;
    }
  }

  Iteration iterate(std::size_t index, Checks& checks) override {
    return batch(index, SpanContext{}, checks);
  }

  Iteration iterate_traced(const SpanContext& ctx, std::size_t /*index*/,
                           Checks& checks) override {
    const tbp::service::ServiceStats s0 = daemon_->stats();
    const tbp::store::StoreStats t0 = daemon_->response_store().stats();
    const auto p0 = prof_.span_snapshot();
    Iteration it;
    {
      Span root(ctx, "bench.iteration");
      it = batch(traced_batches_++ + 1000000, root.child(ctx), checks);
    }
    const tbp::service::ServiceStats s1 = daemon_->stats();
    const tbp::store::StoreStats t1 = daemon_->response_store().stats();
    const auto p1 = prof_.span_snapshot();
    Counters& c = it.counters;
    c["service.claimed"] = static_cast<double>(s1.claimed - s0.claimed);
    c["service.deduped"] = static_cast<double>(s1.deduped - s0.deduped);
    c["service.simulations"] = static_cast<double>(s1.simulations - s0.simulations);
    c["store.hits"] = static_cast<double>(t1.hits - t0.hits);
    c["store.misses"] = static_cast<double>(t1.misses - t0.misses);
    c["store.puts"] = static_cast<double>(t1.puts - t0.puts);
    for (const char* name : {"service.probe", "service.simulate", "service.store_write"}) {
      c[std::string(name) + "_s"] = span_total(p1, name) - span_total(p0, name);
    }
    it.traced = true;
    return it;
  }

  void finish(Checks& /*checks*/, JsonValue& doc) override {
    JsonValue latencies = JsonValue::array();
    for (double l : latency_s_) latencies.items().push_back(l);
    doc.set("request_latency_s", std::move(latencies));
    JsonValue outputs = JsonValue::object();
    for (std::size_t i = 0; i < kWarm; ++i) {
      tbp::Result<JsonValue> body = tbp::obs::open_json(warm_bytes_[i], "tbp-manifest-v1");
      if (!body.has_value()) continue;
      const JsonValue* rows = body->find("workloads");
      if (rows == nullptr || !rows->is_array() || rows->items().empty()) continue;
      const JsonValue& row = rows->items().front();
      JsonValue v = JsonValue::object();
      for (const char* key : {"exact_ipc", "predicted_ipc", "error_pct", "sample_pct"}) {
        if (const JsonValue* f = row.find(key)) v.set(key, f->as_double());
      }
      if (const JsonValue* a = row.find("attribution")) {
        if (const JsonValue* f = a->find("exact_total_cycles")) {
          v.set("exact_total_cycles", f->as_double());
        }
      }
      outputs.set("warm/" + std::to_string(i), std::move(v));
    }
    doc.set("outputs", std::move(outputs));
    daemon_.reset();
    fs::remove_all(work_dir_);
  }

 private:
  static void must(const tbp::Status& status, const char* what) {
    if (status.ok()) return;
    std::fprintf(stderr, "tbpbench: %s: %s\n", what, status.to_string().c_str());
    std::exit(1);
  }

  static double span_total(const std::map<std::string, tbp::prof::ProfSession::SpanStats>& spans,
                           const std::string& name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_seconds;
  }

  /// Spec `i` of batch `b`: the workload alternates, the seed is unique to
  /// (run seed, batch, index), so a cold spec is never in the store yet.
  [[nodiscard]] tbp::service::RequestSpec spec(std::size_t b, std::size_t i) const {
    tbp::service::RequestSpec s;
    s.workload = kSpecWorkloads[i % std::size(kSpecWorkloads)];
    s.scale.divisor = kDivisor;
    s.scale.seed = seed_ ^ ((static_cast<std::uint64_t>(b) << 20) + i + 1) * 0x9e3779b97f4a7c15ULL;
    return s;
  }

  Iteration batch(std::size_t b, const SpanContext& ctx, Checks& checks) {
    struct Request {
      std::string id;
      std::string line;
      double submitted = 0.0;
    };
    std::vector<Request> requests;
    for (std::size_t i = 0; i < kWarm; ++i) {
      requests.push_back({"", tbp::service::spec_canonical_line(warm_[i])});
    }
    for (std::size_t i = 0; i < kCold; ++i) {
      const std::string line = tbp::service::spec_canonical_line(spec(b, i));
      for (std::size_t d = 0; d <= kDuplicates; ++d) requests.push_back({"", line});
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i].id = "b" + std::to_string(b) + "-" + std::to_string(i);
    }

    Iteration it;
    const double start = tbp::timing::monotonic_seconds();
    for (Request& r : requests) {
      r.submitted = tbp::timing::monotonic_seconds();
      Span span(ctx, "service.submit");
      must(tbp::service::submit_request(spool_, r.id, r.line), "submit");
    }
    {
      Span span(ctx, "service.drain_once");
      must(daemon_->drain_once().status(), "drain");
    }
    std::vector<std::string> responses(requests.size());
    std::vector<double> latency(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Span span(ctx, "service.read_response");
      tbp::Result<std::string> bytes =
          tbp::service::try_read_response(spool_, requests[i].id);
      latency[i] = tbp::timing::monotonic_seconds() - requests[i].submitted;
      if (bytes.has_value()) responses[i] = *std::move(bytes);
    }
    it.wall_s = tbp::timing::monotonic_seconds() - start;

    // Every response is a result document, byte-identical to every other
    // response for the same spec.
    for (std::size_t i = 0; i < requests.size(); ++i) {
      checks.attempt();
      const bool answered = !responses[i].empty() &&
                            tbp::service::response_error(responses[i]).ok();
      auto [ref, inserted] = expected_.try_emplace(requests[i].line, responses[i]);
      checks.expect(answered && (inserted || ref->second == responses[i]),
                    requests[i].id + (answered ? ": response differs from an "
                                                 "earlier response for its spec"
                                               : ": no result response"));
      std::error_code ignored;
      fs::remove(tbp::service::response_path(spool_, requests[i].id), ignored);
    }
    // The cold specs of this batch are never requested again.
    for (std::size_t i = 0; i < kCold; ++i) {
      expected_.erase(tbp::service::spec_canonical_line(spec(b, i)));
    }
    latency_s_.insert(latency_s_.end(), latency.begin(), latency.end());
    it.ops = requests.size();
    return it;
  }

  std::uint64_t seed_;
  std::size_t jobs_;
  fs::path work_dir_;
  bool profiled_;
  int setups_ = 0;
  std::size_t traced_batches_ = 0;
  fs::path spool_;
  tbp::prof::ProfSession prof_;
  std::unique_ptr<tbp::service::Daemon> daemon_;
  std::vector<tbp::service::RequestSpec> warm_;
  std::vector<std::string> warm_bytes_;
  std::map<std::string, std::string> expected_;  ///< canonical line -> bytes
  std::vector<double> latency_s_;
};

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  fs::path work_dir;
  fs::path out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "tbpbench_driver: %s\nusage: tbpbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --out FILE\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 0);
      if (end == value.c_str() || *end != '\0') usage("invalid --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        usage("invalid --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (argc % 2 == 0) usage("missing flag value");
  if (args.workload.empty() || !have_seed || args.seconds <= 0 ||
      args.work_dir.empty() || args.out.empty()) {
    usage("missing a required flag");
  }
  return args;
}

std::unique_ptr<Job> make_job(const Args& args, std::size_t nproc) {
  if (args.workload == "fig9-mem") {
    // bfs keeps its 10 619 blocks at every scale; its eight smallest
    // frontier levels (launches 0-3 and 10-13) keep the row near 1.5 s.
    return std::make_unique<ComparisonJob>(
        std::vector<RowSpec>{{"bfs", 8, {0, 1, 2, 3, 10, 11, 12, 13}},
                             {"lbm", 64, {}}},
        args.seed, 1);
  }
  if (args.workload == "fig9-compute") {
    return std::make_unique<ComparisonJob>(
        std::vector<RowSpec>{{"kmeans", 2, {}}}, args.seed, nproc);
  }
  if (args.workload == "shard-sim") {
    return std::make_unique<ShardJob>(args.seed, static_cast<std::uint32_t>(nproc));
  }
  if (args.workload == "service-mix") {
    return std::make_unique<ServiceJob>(args.seed, nproc, args.work_dir / "service",
                                        args.trace);
  }
  return nullptr;
}

double peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

/// Re-executes the driver with address-space randomisation off, so that
/// every process gets the same memory layout: with it on, one process's
/// median simulation time drifts by up to ±20% from the next one's.
/// Returns only when randomisation is already off or cannot be changed.
void disable_aslr(char** argv) {
  const int persona = personality(0xffffffff);
  if (persona == -1 || (persona & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) == -1) return;
  execv("/proc/self/exe", argv);
}

/// Keeps freed heap memory in the process.  By default glibc hands freed
/// memory back to the kernel and re-faults it on the next set-up, and when
/// it does so depends on its adaptive thresholds: shard-sim's set-up took
/// 5.5 ms per repeat in one process and dropped to 3 ms half-way through
/// another, while without the page faults it takes 1.2-2 ms throughout.
void keep_heap() {
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // the largest glibc allows; fixes it
}

}  // namespace

int main(int argc, char** argv) {
  disable_aslr(argv);
  keep_heap();
  const Args args = parse_args(argc, argv);
  const std::size_t nproc = tbp::par::default_jobs();
  tbp::par::set_global_jobs(nproc);
  std::unique_ptr<Job> job = make_job(args, nproc);
  if (job == nullptr) usage("unknown workload");
  fs::create_directories(args.work_dir);

  Tracer tracer(tbp::timing::monotonic_seconds());
  Checks checks;
  JsonValue doc = JsonValue::object();
  doc.set("workload", args.workload);
  doc.set("seed", args.seed);
  doc.set("trace", args.trace);
  doc.set("nproc", static_cast<std::uint64_t>(nproc));

  JsonValue setup_s = JsonValue::array();
  const double setup_start = tbp::timing::monotonic_seconds();
  for (int k = 0; k < kMinSetups ||
                  (k < kMaxSetups &&
                   tbp::timing::monotonic_seconds() - setup_start < kSetupSeconds);
       ++k) {
    const SpanContext ctx{args.trace ? &tracer : nullptr, -1 - k, -1};
    const double start = tbp::timing::monotonic_seconds();
    job->setup(ctx);
    setup_s.items().push_back(tbp::timing::monotonic_seconds() - start);
  }
  doc.set("setup_s", std::move(setup_s));

  // Untraced iterations fill the run (a traced run keeps 40% of it for
  // them, the baseline of the trace overhead); at least one round of each.
  std::vector<Iteration> iterations;
  const double untraced_budget = args.trace ? 0.4 * args.seconds : args.seconds;
  const double start = tbp::timing::monotonic_seconds();
  double elapsed = 0.0;
  std::uint64_t untraced_ops = 0;
  // Whole rounds of variants only, traced or not, so that every input
  // weighs the same and the set of inputs never depends on timing.
  const std::size_t round = job->variants();
  for (std::size_t i = 0; i == 0 || elapsed < untraced_budget || i % round != 0; ++i) {
    iterations.push_back(job->iterate(i, checks));
    iterations.back().variant = i % round;
    untraced_ops += iterations.back().ops;
    elapsed = tbp::timing::monotonic_seconds() - start;
  }
  doc.set("timed_s", elapsed);
  doc.set("timed_ops", untraced_ops);
  if (args.trace) {
    for (std::size_t run = 0;
         run == 0 || tbp::timing::monotonic_seconds() - start < args.seconds ||
         run % round != 0;
         ++run) {
      iterations.push_back(job->iterate_traced(
          SpanContext{&tracer, static_cast<std::int64_t>(run), -1}, run, checks));
      iterations.back().variant = run % round;
    }
  }
  // Peak memory of set-up and the timed part; the checks below may add to it.
  const double rss_kb = peak_rss_kb();
  job->finish(checks, doc);

  JsonValue its = JsonValue::array();
  JsonValue counters = JsonValue::array();
  for (Iteration& it : iterations) {
    JsonValue v = std::move(it.extra);
    v.set("variant", static_cast<std::uint64_t>(it.variant));
    v.set("wall_s", it.wall_s);
    v.set("ops", it.ops);
    v.set("traced", it.traced);
    its.items().push_back(std::move(v));
    if (!it.traced) continue;
    JsonValue values = JsonValue::object();
    for (const auto& [name, value] : it.counters) values.set(name, value);
    JsonValue c = JsonValue::object();
    c.set("variant", static_cast<std::uint64_t>(it.variant));
    c.set("values", std::move(values));
    counters.items().push_back(std::move(c));
  }
  doc.set("iterations", std::move(its));
  doc.set("counters", std::move(counters));
  doc.set("spans", tracer.to_json());
  checks.to_json(doc);
  doc.set("peak_rss_kb", rss_kb);

  const tbp::Status wrote = tbp::obs::write_json_file(doc, args.out.string());
  if (!wrote.ok()) {
    std::fprintf(stderr, "tbpbench: %s\n", wrote.to_string().c_str());
    return 1;
  }
  return 0;
}
