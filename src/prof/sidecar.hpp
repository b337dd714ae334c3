// The tbp-prof-v1 sidecar: sealed JSON export of a ProfSession, plus the
// wall-clock track for the chrome://tracing exporter.
//
// Profiling data NEVER enters a run manifest — it rides in this separate
// artifact so manifests stay byte-identical with profiling on or off.  The
// sidecar reuses the sealed-JSON envelope (crc32 + schema tag) so tbp-report
// can validate and render it like any other document.  Body shape:
//
//   {"skew": {"rounds": N, "n_workers": W, "n_sms": S,
//             "wall_seconds": ..., "sm_busy_seconds": [...],
//             "worker_busy_seconds": [...], "worker_wait_seconds": [...],
//             "max_imbalance_ratio": ..., "mean_imbalance_ratio": ...,
//             "imbalance_milli": {"bounds": [...], "counts": [...]}},
//    "spans": {"service.simulate": {"count": N, "total_seconds": ...,
//              "p50_seconds": ..., "p95_seconds": ..., "p99_seconds": ...,
//              "latency_us": {"bounds": [...], "counts": [...]}}, ...}}
//
// All scalar time fields end in _seconds and all skew statistics end in
// _ratio: that suffix discipline is what lets tbp-report compare classify
// every gated field (lower-is-better) and what the tbp-lint prof-quarantine
// rule checks at the emission sites.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/report.hpp"
#include "obs/trace_event.hpp"
#include "prof/prof.hpp"
#include "support/status.hpp"

namespace tbp::prof {

inline constexpr std::string_view kProfSchema = "tbp-prof-v1";

/// Reserved pid for the wall-clock track in chrome traces — far above any
/// launch pid the simulator assigns, so the track sorts last and never
/// collides.  Its ts axis is real microseconds since the ProfSession was
/// constructed (the simulator tracks use cycles; trace viewers only need a
/// monotonic integer axis per track).
inline constexpr std::uint32_t kWallClockTracePid = 0x7f000000;

/// The sidecar body (unsealed) for `session`.
[[nodiscard]] obs::JsonValue prof_body(const ProfSession& session);

/// Just the "spans" object of prof_body: {name: {count, total_seconds,
/// p50/p95/p99_seconds, latency_us}}.  Also embedded by the service stats
/// document (tbp-service-stats-v1).
[[nodiscard]] obs::JsonValue spans_to_value(const ProfSession& session);

/// Seals prof_body under tbp-prof-v1 and writes it atomically to `path`.
[[nodiscard]] Status write_prof_sidecar(const ProfSession& session,
                                        const std::string& path);

/// Appends the wall-clock track to `buffer`: one complete event per raw
/// span (tid per distinct span name, in sorted-name order) plus a summary
/// instant carrying the skew statistics.  No-op for an empty session.
void append_wall_clock_track(const ProfSession& session,
                             obs::TraceBuffer* buffer);

}  // namespace tbp::prof
