// The intra-launch SM-sharded launch engine (DESIGN.md "Intra-launch
// parallel simulation").
//
// Worker threads advance disjoint SM shards cycle-by-cycle through a fixed
// epoch of at most `lat.interconnect` cycles — the minimum latency of any
// cross-SM interaction, so within one epoch an SM's execution depends only
// on state that existed at the epoch boundary.  Everything that crosses an
// SM boundary is buffered per SM (issue/retire event logs, memory-request
// outboxes) and replayed by the coordinator in exactly the serial engine's
// order: dispatch at the committed frontier, issues and retires in
// cycle-major SM-id-minor order, buffered requests in (cycle, issue-phase-
// before-retry-phase, SM id) order, and the shared L2/DRAM ticks at the
// epoch boundary.  The replay drives the same LaunchEngine helpers at the
// same logical cycles as run_serial, which is what makes every cycle
// count, metric, sampling unit, and manifest byte identical to a serial
// run — the property tests/sim/sharded_engine_test.cpp and the fuzzer's
// differential oracle hold it to.
//
// Within an epoch an SM runs freely until it retires a block (a retire can
// free a slot the serial dispatcher would refill, so the SM must stop until
// the coordinator's committed frontier catches up and re-dispatches) or it
// goes idle with no blocks left to dispatch.  The commit frontier advances
// to the minimum position of the unfinished SMs after every round, so a
// dispatch point is evaluated exactly when the serial engine would have
// evaluated a dispatch that could succeed.
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "prof/prof.hpp"
#include "sim/launch_engine.hpp"
#include "support/parallel.hpp"
#include "support/walltime.hpp"

namespace tbp::sim::detail {
namespace {

/// Per-SM shard state owned by the engine; workers touch only their own
/// SMs' entries between barriers.
struct SmShard {
  std::uint64_t pos = 0;       ///< next un-simulated cycle for this SM
  bool retire_stopped = false; ///< halted on a block retire, awaiting commit
  bool finished = false;       ///< idle in drain mode: never runs again
  std::uint64_t idle_start = 0;  ///< pos at which the SM went idle for good
  std::vector<SmIssueEvent> issues;    ///< this epoch's issue log
  std::vector<SmRetireEvent> retires;  ///< this epoch's retire log
  std::size_t issue_cursor = 0;        ///< commit-replay progress
  std::size_t retire_cursor = 0;
  std::size_t inbox_cursor = 0;        ///< fills consumed from the inbox
  std::vector<MemCompletion> completions;  ///< per-SM scratch
};

/// A fixed crew of worker threads running the same task every round, with
/// the caller participating as worker 0.  Rounds are bracketed by two spin
/// barriers, so everything the coordinator writes between rounds is visible
/// to the workers (and vice versa) without any per-field synchronization.
class ShardCrew {
 public:
  ShardCrew(std::size_t n_workers, std::function<void(std::size_t)> task)
      : task_(std::move(task)), start_(n_workers), done_(n_workers) {
    threads_.reserve(n_workers - 1);
    for (std::size_t w = 1; w < n_workers; ++w) {
      threads_.emplace_back([this, w] {
        for (;;) {
          start_.arrive_and_wait();
          if (stop_.load(std::memory_order_acquire)) return;
          task_(w);
          done_.arrive_and_wait();
        }
      });
    }
  }

  ShardCrew(const ShardCrew&) = delete;
  ShardCrew& operator=(const ShardCrew&) = delete;

  ~ShardCrew() {
    stop_.store(true, std::memory_order_release);
    start_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
  }

  /// One synchronized round: every worker (caller included) runs the task
  /// once; returns after all of them finished.
  void round() {
    start_.arrive_and_wait();
    task_(0);
    done_.arrive_and_wait();
  }

 private:
  const std::function<void(std::size_t)> task_;
  par::SpinBarrier start_;
  par::SpinBarrier done_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

Status run_sharded(LaunchEngine& eng) {
  const std::uint32_t n_sms = static_cast<std::uint32_t>(eng.sms.size());
  // The epoch quantum: no request issued at cycle c can affect shared state
  // before c + interconnect, and no shared-state event can reach an SM
  // before another interconnect crossing, so SMs may run `quantum` cycles
  // between synchronization points without seeing anything early.
  const std::uint64_t quantum = eng.config.lat.interconnect;
  assert(quantum > 0 && n_sms > 1 && eng.n_blocks > 0);

  std::vector<SmShard> shards(n_sms);
  std::vector<std::vector<TimedFill>> inboxes(n_sms);
  for (std::uint32_t s = 0; s < n_sms; ++s) {
    eng.sms[s].set_shard_logs(&shards[s].issues, &shards[s].retires);
  }
  eng.memory.set_shard_mode(true);

  // Epoch-scoped values the workers read; written by the coordinator only
  // between rounds (the crew barriers order the accesses).
  std::uint64_t epoch_end = 0;
  bool drain_mode = false;  ///< all blocks dispatched or skipped

  const std::size_t n_workers =
      std::min<std::size_t>(eng.options.sim_jobs, n_sms);

  // Wall-clock self-profiling (pure observer, src/prof): per-SM busy time
  // and per-round worker busy slots, aggregated into a ShardSkew absorbed
  // at launch end.  The round_busy slots follow the same barrier-ordered
  // discipline as the epoch-scoped values above — each worker writes only
  // its own slot during a round, the coordinator reads them between rounds
  // — and nothing here feeds back into simulated state.
  prof::ProfSession* prof_session = eng.options.prof;
  prof::ShardSkew skew;
  std::vector<double> round_busy;
  if (prof_session != nullptr) {
    skew.n_workers = static_cast<std::uint32_t>(n_workers);
    skew.n_sms = n_sms;
    skew.sm_busy_seconds.assign(n_sms, 0.0);
    round_busy.assign(n_workers, 0.0);
  }

  // Worker task: advance every SM in [lo, hi) to epoch_end, its retire
  // stop, or its final idle cycle.  Touches only per-SM state (the SM core,
  // its memory port, its shard entry), so shards never race.
  auto run_range = [&](std::size_t worker) {
    const std::uint32_t lo =
        static_cast<std::uint32_t>(worker * n_sms / n_workers);
    const std::uint32_t hi =
        static_cast<std::uint32_t>((worker + 1) * n_sms / n_workers);
    if (prof_session != nullptr) round_busy[worker] = 0.0;
    for (std::uint32_t s = lo; s < hi; ++s) {
      SmShard& shard = shards[s];
      if (shard.finished || shard.retire_stopped) continue;
      SmCore& sm = eng.sms[s];
      const double busy_start =
          prof_session != nullptr ? timing::monotonic_seconds() : 0.0;
      while (shard.pos < epoch_end) {
        if (drain_mode && sm.idle()) {
          // Nothing left to dispatch and nothing resident: the SM is idle
          // for the rest of the launch (accounted post-hoc below).
          shard.finished = true;
          shard.idle_start = shard.pos;
          break;
        }
        const std::uint64_t c = shard.pos;
        const std::size_t retires_before = shard.retires.size();
        sm.issue(c);
        shard.completions.clear();
        eng.memory.sm_local_tick(s, c, inboxes[s], shard.inbox_cursor,
                                 shard.completions);
        for (const MemCompletion& done : shard.completions) {
          sm.on_mem_complete(done.token, c);
        }
        shard.pos = c + 1;
        if (shard.retires.size() != retires_before) {
          // A retire frees a slot the serial dispatcher may refill at the
          // very next cycle; stop until the commit frontier decides.
          shard.retire_stopped = true;
          break;
        }
      }
      if (prof_session != nullptr) {
        const double busy = timing::monotonic_seconds() - busy_start;
        skew.sm_busy_seconds[s] += busy;
        round_busy[worker] += busy;
      }
    }
  };

  ShardCrew crew(n_workers, run_range);

  // A dispatch point at committed cycle `now`: exactly the serial greedy
  // dispatch, except only SMs whose shard position *is* `now` are eligible.
  // That is not a restriction: an SM that ran ahead of `now` has no free
  // slots (a retire stops an SM immediately, and every dispatch point
  // refills all eligible free slots while blocks remain), so the serial
  // engine would find no slot on it either.
  auto dispatch_point = [&](std::uint64_t now) {
    if (!drain_mode) {
      while (eng.next_simulated_block(now)) {
        std::uint32_t target = n_sms;
        for (std::uint32_t s = 0; s < n_sms; ++s) {
          if (shards[s].pos == now && eng.sms[s].has_free_slot()) {
            target = s;
            break;
          }
        }
        if (target == n_sms) break;
        eng.dispatch_pending_into(target, now);
      }
      if (eng.next_block == eng.n_blocks) drain_mode = true;
    }
    for (std::uint32_t s = 0; s < n_sms; ++s) {
      SmShard& shard = shards[s];
      if (shard.finished || !shard.retire_stopped) continue;
      // In drain mode a freed slot can never be refilled, so a stopped SM
      // resumes regardless of where the frontier is; otherwise it resumes
      // only once the frontier reaches it (it was refilled above if the
      // dispatcher wanted the slot).
      if (drain_mode || shard.pos == now) {
        shard.retire_stopped = false;
        if (drain_mode && eng.sms[s].idle()) {
          shard.finished = true;
          shard.idle_start = shard.pos;
        }
      }
    }
  };

  bool launch_done = false;
  std::uint64_t end_cycle = 0;
  std::uint64_t epoch_start = 0;

  while (!launch_done) {
    // Clamp the epoch so the deadlock-detection cycle and max_cycles are
    // epoch boundaries: when the watchdog or the budget fires during
    // commit, every SM has advanced exactly through the trigger cycle and
    // the live diagnostic snapshot matches the serial engine's.
    epoch_end = std::max(
        epoch_start + 1,
        std::min({epoch_start + quantum, eng.options.max_cycles,
                  eng.last_progress_cycle + eng.options.stall_cycle_limit + 1}));

    for (std::uint32_t s = 0; s < n_sms; ++s) {
      SmShard& shard = shards[s];
      assert(shard.issue_cursor == shard.issues.size());
      assert(shard.retire_cursor == shard.retires.size());
      shard.issues.clear();
      shard.retires.clear();
      shard.issue_cursor = 0;
      shard.retire_cursor = 0;
      assert(shard.inbox_cursor == inboxes[s].size() || shard.finished ||
             shard.retire_stopped);
      inboxes[s].clear();
      shard.inbox_cursor = 0;
    }
    eng.memory.route_fills(epoch_end, inboxes);

    std::uint64_t committed = epoch_start;
    dispatch_point(committed);

    for (;;) {
      if (prof_session == nullptr) {
        crew.round();
      } else {
        const double round_start = timing::monotonic_seconds();
        crew.round();
        skew.note_round(round_busy, timing::monotonic_seconds() - round_start);
      }

      std::uint64_t sync = epoch_end;
      for (const SmShard& shard : shards) {
        if (!shard.finished) sync = std::min(sync, shard.pos);
      }

      // Commit: replay [committed, sync) in the serial engine's exact
      // event order and drive the shared helpers at those cycles.
      for (std::uint64_t c = committed; c < sync; ++c) {
        for (SmShard& shard : shards) {
          while (shard.issue_cursor < shard.issues.size() &&
                 shard.issues[shard.issue_cursor].cycle == c) {
            const SmIssueEvent& ev = shard.issues[shard.issue_cursor];
            eng.meter.record_raw(ev.bb_id, ev.active_threads);
            ++shard.issue_cursor;
          }
        }
        for (SmShard& shard : shards) {
          while (shard.retire_cursor < shard.retires.size() &&
                 shard.retires[shard.retire_cursor].cycle == c) {
            eng.process_retirement(shard.retires[shard.retire_cursor].block_id,
                                   c);
            ++shard.retire_cursor;
          }
        }
        eng.check_fixed_unit(c);
        Status watchdog = eng.watchdog_after_cycle(c);
        if (!watchdog.ok()) return watchdog;
        eng.cycle = c + 1;
        if (eng.cycle >= eng.options.max_cycles) return eng.timeout_status();
        if (eng.next_block == eng.n_blocks &&
            eng.retired_blocks + eng.result.skipped_blocks.size() ==
                eng.n_blocks) {
          // Every block retired or was skipped; the serial loop would exit
          // at the top of cycle c + 1.
          launch_done = true;
          end_cycle = eng.cycle;
          break;
        }
      }
      if (launch_done) break;

      committed = sync;
      if (committed == epoch_end) break;
      dispatch_point(committed);
    }

    // Re-serialize this epoch's buffered requests and advance the shared
    // memory system through the epoch's cycles.  Safe at the epoch
    // boundary: every fill these ticks produce is ready >= epoch_end
    // (routed next epoch), and every request buffered this epoch is ready
    // >= epoch_start + interconnect >= epoch_end, so ticking [epoch_start,
    // epoch_end) after the fact consumes exactly what a serial interleaving
    // would have.  On launch end, no event exists at or past the end cycle
    // (an SM only outruns the frontier while it holds live blocks), so the
    // tick range is clamped there.
    const std::uint64_t tick_end = launch_done ? end_cycle : epoch_end;
    eng.memory.drain_outboxes(epoch_start, tick_end);
    for (std::uint64_t c = epoch_start; c < tick_end; ++c) {
      eng.memory.shared_tick(c);
    }
    epoch_start = epoch_end;
  }

  // SMs that went idle before the launch ended stopped simulating; the
  // serial engine keeps ticking them and charges every such cycle to the
  // idle stall bucket.  Settle the difference post-hoc so the per-SM
  // issued + stalled == cycles invariant holds for sharded runs too.
  if (!eng.stall_stats.empty()) {
    for (std::uint32_t s = 0; s < n_sms; ++s) {
      const SmShard& shard = shards[s];
      const std::uint64_t idle_from =
          shard.finished ? shard.idle_start : shard.pos;
      if (eng.sms[s].idle() && end_cycle > idle_from) {
        eng.stall_stats[s].stall_idle += end_cycle - idle_from;
      }
    }
  }

  for (std::uint32_t s = 0; s < n_sms; ++s) {
    eng.sms[s].set_shard_logs(nullptr, nullptr);
  }
  eng.memory.set_shard_mode(false);
  if (prof_session != nullptr) prof_session->absorb_skew(skew);
  return Status();
}

}  // namespace tbp::sim::detail
