#include "sim/gpu.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "sim/launch_engine.hpp"
#include "trace/occupancy.hpp"

namespace tbp::sim {
namespace {

/// FR-FCFS queue-depth histogram bucket edges (requests at each scheduling
/// decision; power-of-two spacing covers idle through saturated channels).
constexpr std::uint64_t kQueueDepthBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

/// "sim.sm.NN." counter-name prefix, zero-padded so names sort by SM id.
std::string sm_prefix(std::uint32_t sm_id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "sim.sm.%02u.", sm_id);
  return buf;
}

void flush_stall_stats(obs::MetricsShard& shard, const std::string& prefix,
                       const SmStallStats& stats) {
  shard.add(prefix + "issued_cycles", stats.issued_cycles);
  shard.add(prefix + "stall.memory", stats.stall_memory);
  shard.add(prefix + "stall.scoreboard", stats.stall_scoreboard);
  shard.add(prefix + "stall.barrier", stats.stall_barrier);
  shard.add(prefix + "stall.idle", stats.stall_idle);
  shard.add(prefix + "stall.wedged", stats.stall_wedged);
  shard.add(prefix + "stall.other", stats.stall_other);
}

}  // namespace

std::string WatchdogDiagnostic::to_string() const {
  std::ostringstream out;
  out << "launch made no forward progress for " << stalled_cycles
      << " cycles at cycle " << cycle << " (dispatched " << dispatched_blocks
      << "/" << n_blocks << " blocks, " << warp_insts << " warp insts issued)";
  for (const SmDebugState& sm : sms) {
    out << "\n  SM " << sm.sm_id << ": blocks [";
    for (std::size_t i = 0; i < sm.active_blocks.size(); ++i) {
      if (i > 0) out << ' ';
      out << sm.active_blocks[i];
    }
    out << "], warps: " << sm.warps_ready << " ready, "
        << sm.warps_wait_latency << " wait-latency, " << sm.warps_wait_mem
        << " wait-mem, " << sm.warps_wait_barrier << " wait-barrier, "
        << sm.warps_wedged << " wedged, " << sm.warps_done << " done";
  }
  return out.str();
}

namespace detail {

Status LaunchEngine::init() {
  const trace::KernelInfo& kernel = launch.kernel();
  occupancy = trace::sm_occupancy(kernel, config.sm_resources);
  if (occupancy == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "kernel " + kernel.name + " exceeds per-SM resources");
  }

  if (config.fixed_unit_insts > 0) {
    meter.fixed_unit_bbv.assign(kernel.n_basic_blocks, 0);
  }

  sms.reserve(config.n_sms);
  for (std::uint32_t s = 0; s < config.n_sms; ++s) {
    sms.emplace_back(s, config, memory, meter);
    sms.back().configure_launch(occupancy, kernel.warps_per_block());
  }

  result.sm_occupancy = occupancy;
  result.system_occupancy = occupancy * config.n_sms;

  controller = options.controller != nullptr ? options.controller
                                             : &default_controller;
  n_blocks = launch.n_blocks();

  shard = options.observe.metrics;
  timeline = options.observe.trace;
  trace_pid = options.observe.pid;
  if (shard != nullptr) {
    stall_stats.resize(sms.size());
    for (std::size_t s = 0; s < sms.size(); ++s) {
      sms[s].enable_stall_accounting(&stall_stats[s]);
    }
    memory.set_queue_depth_histogram(
        shard->histogram("sim.dram.queue_depth", kQueueDepthBounds));
  }
  if (timeline != nullptr) {
    tb_dispatch.resize(n_blocks);
    for (std::uint32_t s = 0; s < config.n_sms; ++s) {
      timeline->thread_name(trace_pid, s, "SM " + std::to_string(s));
    }
    // One synthetic row past the SMs for machine-wide unit boundaries.
    timeline->thread_name(trace_pid, config.n_sms, "sampling-units");
  }
  return Status();
}

bool LaunchEngine::next_simulated_block(std::uint64_t now) {
  while (next_block < n_blocks) {
    if (!pending_action.has_value()) {
      pending_action = controller->on_block_dispatch(next_block, now);
    }
    if (*pending_action != BlockAction::kSkip) return true;
    pending_action.reset();
    result.skipped_blocks.push_back(next_block);
    controller->on_block_retire(next_block, now, /*was_skipped=*/true);
    ++next_block;
  }
  return false;
}

void LaunchEngine::dispatch_pending_into(std::uint32_t sm_id, std::uint64_t now) {
  pending_action.reset();
  sms[sm_id].dispatch_block(next_block, launch.block_trace(next_block), now);
  units.on_dispatch(next_block, now, meter);
  if (timeline != nullptr) {
    tb_dispatch[next_block] = TbDispatch{.cycle = now, .sm = sm_id};
  }
  ++next_block;
}

void LaunchEngine::dispatch_serial() {
  while (next_simulated_block(cycle)) {
    const std::uint32_t n_sms = static_cast<std::uint32_t>(sms.size());
    std::uint32_t target = n_sms;
    for (std::uint32_t s = 0; s < n_sms; ++s) {
      if (sms[s].has_free_slot()) {
        target = s;
        break;
      }
    }
    if (target == n_sms) break;  // all slots busy; the cached action waits
    dispatch_pending_into(target, cycle);
  }
}

void LaunchEngine::process_retirement(std::uint32_t block_id, std::uint64_t now) {
  ++retired_blocks;
  controller->on_block_retire(block_id, now, /*was_skipped=*/false);
  if (timeline != nullptr) {
    const TbDispatch& start = tb_dispatch[block_id];
    timeline->complete(
        "TB " + std::to_string(block_id), "tb", trace_pid, start.sm,
        start.cycle, now - start.cycle,
        {{"block", obs::json_number(std::uint64_t{block_id})}});
  }
  SamplingUnit unit;
  if (units.on_retire(block_id, now, meter, unit)) {
    units.note_close(now, meter);
    result.tb_units.push_back(unit);
    controller->on_sampling_unit(unit);
  }
}

void LaunchEngine::check_fixed_unit(std::uint64_t now) {
  if (config.fixed_unit_insts > 0 &&
      meter.warp_insts - fixed_unit_start_insts >= config.fixed_unit_insts) {
    close_fixed_unit(now);
  }
}

void LaunchEngine::close_fixed_unit(std::uint64_t now) {
  FixedUnit unit;
  unit.start_cycle = fixed_unit_start_cycle;
  unit.end_cycle = now;
  unit.warp_insts = meter.warp_insts - fixed_unit_start_insts;
  unit.thread_insts = meter.thread_insts - fixed_unit_start_threads;
  unit.bbv = meter.fixed_unit_bbv;
  if (timeline != nullptr) {
    timeline->instant(
        "fixed-unit " + std::to_string(result.fixed_units.size()), "unit",
        trace_pid, config.n_sms, now,
        {{"warp_insts", obs::json_number(unit.warp_insts)}});
  }
  result.fixed_units.push_back(std::move(unit));
  std::fill(meter.fixed_unit_bbv.begin(), meter.fixed_unit_bbv.end(), 0u);
  fixed_unit_start_cycle = now;
  fixed_unit_start_insts = meter.warp_insts;
  fixed_unit_start_threads = meter.thread_insts;
}

Status LaunchEngine::watchdog_after_cycle(std::uint64_t now) {
  if (meter.warp_insts != seen_warp_insts || next_block != seen_next_block ||
      retired_blocks != seen_retired_blocks) {
    seen_warp_insts = meter.warp_insts;
    seen_next_block = next_block;
    seen_retired_blocks = retired_blocks;
    last_progress_cycle = now;
    return Status();
  }
  if (now - last_progress_cycle >= options.stall_cycle_limit) {
    // Deadlock/livelock: every warp is parked (barrier mismatch, wedged
    // stream, controller bug) and nothing can ever move again.
    const WatchdogDiagnostic diag =
        fill_diagnostic(now, now - last_progress_cycle);
    return Status(StatusCode::kDeadlock, diag.to_string());
  }
  return Status();
}

Status LaunchEngine::timeout_status() {
  const WatchdogDiagnostic diag =
      fill_diagnostic(cycle, cycle - last_progress_cycle);
  return Status(StatusCode::kTimeout,
                "simulation exceeded max_cycles (" +
                    std::to_string(options.max_cycles) + "); " +
                    diag.to_string());
}

bool LaunchEngine::all_sms_idle() const {
  for (const SmCore& sm : sms) {
    if (!sm.idle()) return false;
  }
  return true;
}

WatchdogDiagnostic LaunchEngine::fill_diagnostic(std::uint64_t at,
                                                 std::uint64_t stalled) {
  WatchdogDiagnostic diag;
  diag.triggered = true;
  diag.cycle = at;
  diag.stalled_cycles = stalled;
  diag.dispatched_blocks = next_block;
  diag.n_blocks = n_blocks;
  diag.warp_insts = meter.warp_insts;
  diag.sms.reserve(sms.size());
  for (const SmCore& sm : sms) diag.sms.push_back(sm.debug_state());
  if (diagnostic != nullptr) *diagnostic = diag;
  return diag;
}

Status LaunchEngine::run_serial() {
  std::vector<MemCompletion> completions;
  while (next_block < n_blocks || !all_sms_idle()) {
    dispatch_serial();

    for (SmCore& sm : sms) sm.issue(cycle);

    completions.clear();
    memory.tick(cycle, completions);
    for (const MemCompletion& c : completions) {
      sms[c.sm_id].on_mem_complete(c.token, cycle);
    }

    for (SmCore& sm : sms) {
      for (std::uint32_t block_id : sm.retired()) {
        process_retirement(block_id, cycle);
      }
      sm.retired().clear();
    }

    check_fixed_unit(cycle);

    Status watchdog = watchdog_after_cycle(cycle);
    if (!watchdog.ok()) return watchdog;

    ++cycle;
    if (cycle >= options.max_cycles) return timeout_status();
  }
  return Status();
}

Result<LaunchResult> LaunchEngine::collect_result() {
  // Close the trailing partial fixed unit so every instruction is in a unit.
  if (config.fixed_unit_insts > 0 && meter.warp_insts > fixed_unit_start_insts) {
    close_fixed_unit(cycle);
  }
  // Same for the block-delimited units: account for the drain tail.
  {
    SamplingUnit tail;
    if (units.close_tail(cycle, meter, tail)) result.tb_units.push_back(tail);
  }

  result.cycles = cycle;
  result.sim_warp_insts = meter.warp_insts;
  result.sim_thread_insts = meter.thread_insts;
  result.per_sm.reserve(sms.size());
  for (const SmCore& sm : sms) {
    result.per_sm.push_back(SmLaunchStats{
        .warp_insts = sm.warp_insts(),
        .thread_insts = sm.thread_insts(),
    });
  }
  result.mem = memory.stats();

  // Flush the accumulated struct counters into named metrics — once per
  // launch, so the hot loops above never touched a string.
  if (shard != nullptr) {
    SmStallStats machine;
    for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(sms.size()); ++s) {
      const SmStallStats& st = stall_stats[s];
      flush_stall_stats(*shard, sm_prefix(s), st);
      machine.issued_cycles += st.issued_cycles;
      machine.stall_memory += st.stall_memory;
      machine.stall_scoreboard += st.stall_scoreboard;
      machine.stall_barrier += st.stall_barrier;
      machine.stall_idle += st.stall_idle;
      machine.stall_wedged += st.stall_wedged;
      machine.stall_other += st.stall_other;
    }
    flush_stall_stats(*shard, "sim.", machine);

    const MemoryStats& mem = result.mem;
    shard->add("sim.l1.hits", mem.l1.hits);
    shard->add("sim.l1.misses", mem.l1.misses);
    shard->add("sim.l1.evictions", mem.l1.evictions);
    shard->add("sim.l1.mshr_merges", mem.l1_mshr_merges);
    shard->add("sim.l1.mshr_stalls", mem.l1_mshr_stalls);
    shard->add("sim.l2.hits", mem.l2.hits);
    shard->add("sim.l2.misses", mem.l2.misses);
    shard->add("sim.l2.evictions", mem.l2.evictions);
    shard->add("sim.l2.mshr_merges", mem.l2_mshr_merges);
    shard->add("sim.l2.mshr_stalls", mem.l2_mshr_overflows);
    shard->add("sim.dram.row_hits", mem.dram.row_hits);
    shard->add("sim.dram.row_misses", mem.dram.row_misses);
    shard->add("sim.dram.loads", mem.dram.loads);
    shard->add("sim.dram.stores", mem.dram.stores);
    shard->add("sim.dram.scheduling_decisions", mem.dram.scheduling_decisions);

    shard->add("sim.launch.count", 1);
    shard->add("sim.launch.cycles", result.cycles);
    shard->add("sim.launch.warp_insts", result.sim_warp_insts);
    shard->add("sim.launch.thread_insts", result.sim_thread_insts);
    shard->add("sim.launch.blocks", n_blocks);
    shard->add("sim.launch.skipped_blocks", result.skipped_blocks.size());
  }
  return std::move(result);
}

}  // namespace detail

GpuSimulator::GpuSimulator(const GpuConfig& config) : config_(config) {}

LaunchResult GpuSimulator::run_launch(const trace::LaunchTraceSource& launch,
                                      const RunOptions& options) {
  Result<LaunchResult> result = run_launch_checked(launch, options);
  if (!result.has_value()) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    std::abort();
  }
  return *std::move(result);
}

Result<LaunchResult> GpuSimulator::run_launch_checked(
    const trace::LaunchTraceSource& launch, const RunOptions& options,
    WatchdogDiagnostic* diagnostic) {
  detail::LaunchEngine engine(config_, launch, options, diagnostic);
  Status setup = engine.init();
  if (!setup.ok()) return setup;

  // The sharded engine's epoch scheme needs >= 1 cycle of interconnect
  // latency (the epoch quantum) and more than one SM to shard; everything
  // else — including empty launches — runs the serial loop.
  const bool sharded = options.sim_jobs > 1 && config_.n_sms > 1 &&
                       config_.lat.interconnect > 0 && engine.n_blocks > 0;
  Status run = sharded ? detail::run_sharded(engine) : engine.run_serial();
  if (!run.ok()) return run;
  return engine.collect_result();
}

}  // namespace tbp::sim
