/**
 * @file
 * Distributed campaign service: a coordinator daemon that schedules a
 * fault-injection campaign over fleets of worker processes.
 *
 * The coordinator owns the campaign's index set [0, trials), carves
 * the not-yet-done indices into contiguous chunks, and hands chunks
 * out as *leases* over the campaign/protocol wire format. Workers
 * execute leased trials on the same fault::TrialExecutor every other
 * execution mode uses (one per worker loop, reused across leases),
 * and stream CRC'd records back; the coordinator ingests
 * them — deduplicating by trial index — into the standard append-only
 * trial store.
 *
 * Worker death is routine, not fatal, along two detection paths:
 *
 *  - **Connection loss** (SIGKILL, crash, network drop): the socket
 *    closes and every chunk leased to that worker returns to the
 *    available pool immediately.
 *  - **Heartbeat lapse** (hung worker, partitioned network): a lease
 *    not renewed within the lease timeout is revoked and re-issued;
 *    if the original worker later delivers anyway, its records are
 *    byte-identical (counter-based per-trial seeding) and the dedup
 *    drops them.
 *
 * Either way the merged store and its formatAggregate output are —
 * by construction — byte-identical to an uninterrupted
 * single-process `encore_campaign run` of the same campaign. The
 * chaos soak in tests/test_campaign_service.cc enforces exactly that
 * with SIGKILLed workers.
 *
 * The coordinator is single-threaded (one poll(2) loop over the
 * listener and every connection); only the trial-store writer's
 * background flusher and the ProgressMeter ticker run on other
 * threads, and both are already lock-/atomic-disciplined.
 */
#ifndef ENCORE_CAMPAIGN_SERVICE_H
#define ENCORE_CAMPAIGN_SERVICE_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/protocol.h"
#include "campaign/runner.h"
#include "support/socket.h"

namespace encore::campaign {

/**
 * Lease bookkeeping over the campaign's missing trials. Pure data
 * structure — no I/O, no clock of its own (callers pass time points),
 * so expiry and re-issue are unit-testable without sleeping.
 *
 * Chunks are maximal contiguous runs of missing indices capped at
 * `chunk_trials`, granted FIFO. A chunk is Available (grantable),
 * Leased (owned by a worker until its deadline), or Done (every trial
 * recorded). markDone() is the single completion path; it accepts
 * completions for *any* chunk state, which is what makes duplicated
 * re-execution after a re-lease harmless.
 */
class LeaseTable
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Grant
    {
        std::uint64_t lease_id = 0;
        std::uint64_t first_trial = 0;
        std::uint64_t count = 0;
    };

    /// `missing` must be sorted ascending (the runner's refill-list
    /// order); `total_trials` bounds the dedup table.
    LeaseTable(const std::vector<std::uint64_t> &missing,
               std::uint64_t total_trials, std::uint64_t chunk_trials,
               Clock::duration lease_timeout);

    /// Grants the next available chunk to `worker`; nullopt when
    /// nothing is grantable right now (all chunks leased or done).
    std::optional<Grant> claim(std::uint64_t worker,
                               Clock::time_point now);

    /// Heartbeat: pushes the lease's deadline out. Unknown (expired,
    /// already settled) ids are ignored.
    void renew(std::uint64_t lease_id, Clock::time_point now);

    /// Records one completed trial. True when the trial was still
    /// pending — the caller should ingest the record; false for
    /// duplicates and out-of-range indices.
    bool markDone(std::uint64_t trial);

    /// Retires `lease_id` if every trial in its chunk is done,
    /// returning true (also true for unknown ids — the holder has
    /// nothing left to contribute and should be granted fresh work).
    /// False while the chunk still has pending trials.
    bool settleLease(std::uint64_t lease_id);

    /// Revokes leases whose deadline passed; their chunks go back to
    /// the front of the available queue. Returns the number revoked.
    std::size_t expireStale(Clock::time_point now);

    /// Revokes every lease held by `worker` (connection died).
    /// Returns the number revoked.
    std::size_t releaseWorker(std::uint64_t worker);

    bool allDone() const { return done_trials_ == missing_trials_; }
    std::uint64_t doneTrials() const { return done_trials_; }
    std::uint64_t pendingTrials() const
    {
        return missing_trials_ - done_trials_;
    }
    /// Chunks granted more than once (over-counting re-issues of the
    /// same chunk) — the chaos metric.
    std::uint64_t reissued() const { return reissued_; }

  private:
    enum class ChunkState : std::uint8_t
    {
        Available,
        Leased,
        Done
    };

    struct Chunk
    {
        std::uint64_t first = 0;
        std::uint64_t count = 0;
        std::uint64_t done = 0;
        ChunkState state = ChunkState::Available;
        std::uint64_t lease_id = 0;
        std::uint64_t worker = 0;
        Clock::time_point deadline{};
        /// How many times this chunk has been granted.
        std::uint32_t grants = 0;
    };

    std::optional<std::size_t> chunkOf(std::uint64_t trial) const;
    void revoke(std::size_t chunk_index);

    std::vector<Chunk> chunks_;        ///< Sorted by `first`.
    std::deque<std::size_t> available_;
    std::map<std::uint64_t, std::size_t> active_; ///< lease → chunk.
    std::vector<std::uint8_t> done_;   ///< Per-trial dedup bitmap.
    std::uint64_t missing_trials_ = 0;
    std::uint64_t done_trials_ = 0;
    std::uint64_t next_lease_id_ = 1;
    std::uint64_t reissued_ = 0;
    Clock::duration lease_timeout_;
};

struct ServiceOptions
{
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; the bound port lands in `port_file`.
    std::uint16_t port = 0;
    /// When non-empty, "host:port\n" is written here once listening —
    /// the rendezvous file workers and tests read.
    std::string port_file;
    /// Trials per lease.
    std::uint64_t chunk_trials = 1024;
    std::chrono::milliseconds lease_timeout{5000};
    /// Trial store path; "" serves without durability.
    std::string store_path;
    TrialStoreWriter::Options store;
    /// Progress/telemetry, same knobs as the local runner.
    bool progress = false;
    std::string heartbeat_path;
    std::chrono::milliseconds progress_interval{500};
    std::string label;
    /// Planner-filtered serve. When set, only `planned_missing`
    /// (sorted ascending trial indices from
    /// CampaignPlanner::trialsToExecute) is leased to workers, and
    /// `planned_base` — the planner's sidecar-reused tallies plus the
    /// exact modelled-masked count — is folded into the aggregate up
    /// front, so the final summary is tally-identical to serving the
    /// whole campaign while distributing only the trials the sidecar
    /// cannot cover.
    bool planned = false;
    std::vector<std::uint64_t> planned_missing;
    fault::CampaignResult planned_base;
    /// Per-trial planner stratum (index = trial); each lease is tagged
    /// with the stratum of its first trial. Empty = every lease tag 0.
    std::vector<std::uint8_t> trial_stratum;
};

struct ServiceSummary
{
    /// Aggregate over every recorded trial — byte-identical (via
    /// formatAggregate) to an uninterrupted local run.
    fault::CampaignResult result;
    std::uint64_t resumed = 0;    ///< Recovered from the store.
    std::uint64_t ingested = 0;   ///< Fresh records from workers.
    std::uint64_t duplicates = 0; ///< Re-executed records dropped.
    std::uint64_t workers_seen = 0;
    std::uint64_t workers_lost = 0;
    std::uint64_t leases_reissued = 0;
    bool complete = false;
    /// False when the JSONL heartbeat stream degraded mid-run.
    bool heartbeat_ok = true;
};

/**
 * The coordinator daemon. Construct with the campaign's spec (what
 * workers must reproduce), the store header (what the store carries —
 * produced by CampaignRunner::header() from a prepared injector), and
 * service options; serve() blocks until every trial is recorded, all
 * workers are drained, and the store is durably finished.
 */
class CampaignService
{
  public:
    CampaignService(CampaignSpec spec, StoreHeader header,
                    ServiceOptions options);

    /// Runs the coordinator to completion. Fatal on an unusable
    /// store, identity mismatch, or socket setup failure.
    ServiceSummary serve();

  private:
    CampaignSpec spec_;
    StoreHeader header_;
    ServiceOptions options_;
};

struct WorkerOptions
{
    /// Threads executing leased trials (0 = hardware concurrency);
    /// never affects results.
    std::size_t jobs = 1;
    std::chrono::milliseconds heartbeat_interval{1000};
    /// Give up when the coordinator goes silent for this long.
    std::chrono::milliseconds idle_timeout{60000};
    /// Records per RESULT-BATCH frame (large leases are split).
    std::size_t max_batch_records = 4096;
    /// Test/chaos hook: sleep this long after every trial so a
    /// SIGKILL can land mid-lease deterministically. Never affects
    /// outcomes, only pacing.
    std::chrono::microseconds throttle{0};
};

struct WorkerSummary
{
    std::uint64_t executed = 0;
    std::uint64_t leases = 0;
    /// True when the coordinator sent the drain signal (count == 0);
    /// false when the connection died or timed out.
    bool drained = false;
};

/// Worker side of the Hello exchange: sends HELLO(label), waits for
/// the coordinator's HELLO carrying the CampaignSpec. nullopt on
/// timeout, connection loss, or a malformed reply.
std::optional<CampaignSpec>
workerHandshake(Socket &socket, FrameReader &reader,
                const std::string &label,
                std::chrono::milliseconds timeout);

/// Executes leases until the coordinator drains this worker or the
/// connection dies. `injector` must be prepare()d and must have
/// reproduced the coordinator's fingerprint (the caller checks —
/// tools/encore_campaign.cc refuses to start otherwise).
WorkerSummary runWorkerLoop(Socket &socket, FrameReader &reader,
                            const fault::FaultInjector &injector,
                            const fault::CampaignConfig &config,
                            const WorkerOptions &options);

/// Blocking convenience: reassembles the next complete frame,
/// polling `socket` until `timeout` elapses. nullopt on timeout,
/// closed/errored connection, or a malformed stream.
std::optional<Frame> readFrame(Socket &socket, FrameReader &reader,
                               std::chrono::milliseconds timeout);

} // namespace encore::campaign

#endif // ENCORE_CAMPAIGN_SERVICE_H
