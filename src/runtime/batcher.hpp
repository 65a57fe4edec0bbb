// Batching of small same-group all-reduces.
//
// The paper's cost model charges every schedule step a fixed optical
// overhead (tuning + transceiver lock + sync) that dwarfs the serialization
// time of a small gradient: a 2.5 ms retune against tens of microseconds of
// data.  When several queued jobs want an all-reduce over the *same*
// participant set, running them as separate schedules pays that overhead
// once per job per step.  All-reduce is elementwise, so concatenating the
// payloads and running ONE schedule over the combined vector computes every
// tenant's result while paying the per-step overhead once — the classic
// gradient-bucket fusion, applied across tenants.
//
// The batcher only fuses jobs whose payload is at or below a threshold
// (large jobs are bandwidth-bound; fusing them just delays everyone) and
// caps the batch size so one group cannot monopolize an admission slot.
// Fusion happens at admission, among jobs queued at that instant: peers
// that arrive while their lead waits for spectrum ride its batch, and an
// arrival on an idle ring is admitted at once, alone.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/admission.hpp"
#include "util/units.hpp"

namespace wrht::runtime {

struct BatcherConfig {
  bool enabled = true;
  /// Jobs above this payload never fuse (they are bandwidth-bound already).
  util::Bytes max_fuse_payload = util::kilobytes(256);
  /// Upper bound on jobs fused into one execution (including the lead).
  std::uint32_t max_jobs_per_batch = 8;
  /// Upper bound on the CONCATENATED payload of a batch.  Per-job and
  /// per-count caps alone let max_jobs_per_batch jobs each at
  /// max_fuse_payload fuse into a batch many times the "small job" size.
  /// Admission sees only the lead's payload, so this budget is what keeps a
  /// fused execution honestly small.
  util::Bytes max_batch_payload = util::megabytes(1);
};

/// Queue indices of the jobs to fuse with the admitted job at `lead_index`:
/// every other queued job with an identical participant set, the SAME
/// priority as the lead (an execution carries one urgency, so fusing across
/// priorities would let a low-priority rider inherit the lead's rank and
/// dodge preemption — or drag an urgent peer down to a preemptible batch),
/// the SAME substrate pin (a fused peer rides the lead's placement, so
/// mixed pins would run a job on a fabric its tenant forbade),
/// a payload within the fuse threshold, and a min_wavelengths satisfied by
/// the lead's `granted_band_width` (a fused peer executes in the lead's
/// band, so its own admission floor must hold there too) — oldest first,
/// capped at max_jobs_per_batch jobs and max_batch_payload total bytes.
/// Returns {lead_index} alone when the lead itself is too large to fuse or
/// batching is disabled.  Indices are ascending and include lead_index.
[[nodiscard]] std::vector<std::size_t> fusable_peers(
    const JobQueue& queue, std::size_t lead_index,
    std::uint32_t granted_band_width, const BatcherConfig& config);

}  // namespace wrht::runtime
