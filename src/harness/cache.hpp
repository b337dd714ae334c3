// On-disk result cache for experiment rows, backed by the content-addressed
// store (src/store).
//
// Figures 9, 10 and 11 are views of the same four-way comparison, and the
// hardware-sensitivity sweeps re-run it per configuration; since every run
// is deterministic, rows are cached under a key that fingerprints the
// workload, scale, GPU configuration and every sampling option, so each
// (workload, config) pair is simulated once no matter how many bench
// binaries ask for it.  Delete the cache directory (default
// ./tbpoint_cache) or pass --no-cache to force recomputation.
//
// A row is only as good as the model that computed it, so every store
// address also mixes in model_fingerprint(): a hash of a tiny fixed canary
// comparison run by this binary.  Any change to the simulator, the
// workload generators or a sampler that moves the canary's row moves every
// address, and rows computed by an older model become unreachable misses
// instead of stale hits.  No epoch needs bumping by hand.
//
// Layout: each cache directory holds one ContentStore (sharded objects/
// tree + index journal).  Rows are sealed tbpoint-row-v3 artifacts stored
// as entry payloads; each entry's label is the experiment key plus the
// first 8 hex chars of the model fingerprint (provenance in index
// listings).  Corrupt store entries are quarantined on read, making the
// next lookup a clean miss instead of a persistent failure.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <string_view>

#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "sim/config.hpp"
#include "store/key.hpp"
#include "support/status.hpp"
#include "workloads/workload.hpp"

namespace tbp::harness {

/// Stable fingerprint of every input that affects an ExperimentRow
/// ("<workload>_d<divisor>_s<hexseed>_c<option-hash>").
[[nodiscard]] std::string experiment_key(const std::string& workload_name,
                                         const workloads::WorkloadScale& scale,
                                         const sim::GpuConfig& config,
                                         const ComparisonOptions& options);

/// Fingerprint of the model this binary implements: 32 lowercase hex chars
/// hashing the canary comparison's row as the cache serializes it, with
/// the wall-clock fields zeroed.  Computed once per process, on first call
/// (about 50 ms), which only the result stores make; the canary does not
/// count in run_comparison_invocations().  The same for every call,
/// thread and --jobs value.
[[nodiscard]] const std::string& model_fingerprint();

/// store::make_key for a result computed by `model` (a model_fingerprint()
/// value): the model is hashed with `canonical`, and its first 8 hex chars
/// end the label as provenance.  Both result stores (rows here, tbpointd
/// responses) address entries through it.
[[nodiscard]] store::StoreKey model_store_key(std::string_view kind,
                                              std::string_view codec_version,
                                              std::string_view canonical,
                                              std::string_view label,
                                              std::string_view model);

/// Store address for an experiment key computed by `model`: the row codec
/// version and the model are mixed in, so a row-format bump or a model
/// change starts a fresh namespace instead of serving old rows.
[[nodiscard]] store::StoreKey experiment_store_key(const std::string& key,
                                                   std::string_view model);

/// Where `key`'s row lives inside `cache_dir`'s store under this binary's
/// model (for tests and tooling that corrupt or inspect entries on disk).
[[nodiscard]] std::filesystem::path cached_row_path(const std::string& cache_dir,
                                                    const std::string& key);

/// kNotFound on a plain miss (including a cache directory that does not
/// exist yet — lookups never create it — and a row saved under another
/// model); kCorrupt/kVersionMismatch/kTooLarge when the entry failed
/// validation (the bad entry is quarantined so the next run starts from a
/// clean miss).  An empty `model` means model_fingerprint().
[[nodiscard]] Result<ExperimentRow> load_cached_row(const std::string& cache_dir,
                                                    const std::string& key,
                                                    std::string_view model = {});

/// Atomic write; caching stays best-effort, so callers may discard the
/// returned Status with an explicit (void) cast, but it says why a row
/// could not be persisted.  An empty `model` means model_fingerprint().
[[nodiscard]] Status save_cached_row(const std::string& cache_dir,
                                     const std::string& key,
                                     const ExperimentRow& row,
                                     std::string_view model = {});

/// Cached wrapper around run_comparison: builds the workload and runs the
/// comparison only on a cache miss.  `cache_dir` empty disables caching.
/// Thread-safe with an in-process once-per-key guard: concurrent calls for
/// the same key cost one computation, with the waiters sharing the owner's
/// row (see the parallel bench harness).  Rows loaded from disk come back
/// with `from_cache` set.
[[nodiscard]] ExperimentRow cached_comparison(const std::string& workload_name,
                                              const workloads::WorkloadScale& scale,
                                              const sim::GpuConfig& config,
                                              const ComparisonOptions& options,
                                              const std::string& cache_dir);

/// Number of keys currently held by the once-per-key guard.  The guard
/// must not retain completed keys (they would pin every row of a sweep in
/// memory for the process lifetime); tests assert it drains to zero.
[[nodiscard]] std::size_t cache_in_flight_for_test();

/// Folds the `store.*` counters of every cache store opened by this
/// process into `shard`, in sorted cache-directory order.
void flush_cache_metrics(obs::MetricsShard* shard);

}  // namespace tbp::harness
