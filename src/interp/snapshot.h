/**
 * @file
 * Prefix snapshots of an interpreter execution (the micro-checkpoint
 * tier under the fault-injection trial loop).
 *
 * During the golden run, the interpreter calls SnapshotStore::capture()
 * at stride-K barriers measured in *value-producing* dynamic
 * instructions — the coordinate fault targets are drawn in. Each
 * snapshot is the complete machine state at a loop-top boundary
 * (between instructions): the call-frame stack with register files and
 * per-frame recovery state, every execution counter, and the full
 * memory image as a page table over a shared PagePool. Memory pages
 * are stored as deltas — a page left untouched since the previous
 * kept snapshot re-uses that snapshot's pool page — but every snapshot
 * restores in O(live memory), independent of trace position.
 *
 * A trial whose fault target lies at value index T may start from the
 * latest snapshot with value_count <= T: a trial's hooks arm only at T
 * (no filtering, no detection, no taint before it), so its execution
 * prefix is bit-identical to the golden run the snapshots were cut
 * from. Restoring therefore produces exactly the state the trial
 * would have reached by re-executing the prefix — outcomes are
 * bit-identical to full re-execution by construction, and a
 * differential test over every workload enforces it.
 *
 * Snapshots also serve as resync anchors on the way *out* of a trial:
 * after a successful rollback the hooks become pure pass-throughs for
 * the remainder of the run, so the moment the trial's full semantic
 * state equals a golden snapshot past the injection point, the rest
 * of the execution is the golden suffix by determinism. The trial
 * stops there and adopts the golden outcome (bit-identical again —
 * see Interpreter::armGoldenResync, which places the watch at the
 * anchor's value count shifted by the replayed stretches, and
 * findFirstAfter()).
 *
 * Budget policy: when a capture would push the store past
 * `byte_budget`, the capture is discarded (the pool is truncated
 * back), the stride doubles, and the accumulated dirty pages roll into
 * the next attempt. If even the *first* capture exceeds the budget the
 * store disables itself and every trial falls back to full
 * re-execution.
 *
 * Thread-safety: capture() is single-threaded (the golden run);
 * after recording, the store is immutable and findAtOrBefore() is
 * safe from any number of campaign workers (hit/miss counters are
 * relaxed atomics).
 */
#ifndef ENCORE_INTERP_SNAPSHOT_H
#define ENCORE_INTERP_SNAPSHOT_H

#include <atomic>
#include <cstdint>
#include <vector>

#include "interp/memory.h"

namespace encore::interp {

class Interpreter;

/// Barrier sentinel: "no further captures".
constexpr std::uint64_t kNoSnapshotBarrier = ~0ULL;

struct SnapshotConfig
{
    bool enabled = true;
    /// Barrier stride in value-producing dynamic instructions. The
    /// expected re-executed prefix per snapshot-hit trial is stride/2
    /// value instructions. 1024 is the measured sweet spot across the
    /// MediaBench suite: small enough that prefix re-execution and the
    /// resync wait are both negligible, large enough that the store
    /// stays far under its byte budget (the budget/stride-doubling
    /// policy still protects outsized workloads).
    std::uint64_t stride = 1024;
    /// Delta page size in 64-bit words (rounded up to a power of two).
    std::uint32_t page_words = 64;
    /// Resident byte budget for the whole store (pool + snapshots).
    std::uint64_t byte_budget = 64ULL << 20;
};

/// Mirror of one checkpoint-undo record (Interpreter::Undo).
struct SnapUndo
{
    bool is_mem = false;
    ir::ObjectId object = ir::kInvalidObject;
    std::uint32_t offset = 0;
    ir::RegId reg = ir::kInvalidReg;
    std::uint64_t value = 0;
};

/// One saved activation frame. Functions are referenced by their
/// DecodedModule index so a snapshot can be restored into any
/// interpreter running the same decoded cache.
struct SnapFrame
{
    std::uint32_t func_index = 0;
    std::vector<std::uint64_t> regs;
    std::uint32_t block = 0;
    std::uint32_t ip = 0;
    ir::RegId caller_dest = ir::kInvalidReg;
    bool rec_active = false;
    ir::RegionId rec_region = ir::kInvalidRegion;
    std::uint64_t rec_token = 0;
    std::uint32_t rec_recovery_block = 0;
    /// Value count at the active region's `region.enter` (see
    /// Interpreter::armGoldenResync).
    std::uint64_t rec_entry_values = 0;
    std::vector<SnapUndo> rec_log;
};

/// Everything outside Memory: frames plus execution counters.
struct ExecSnapshot
{
    std::vector<SnapFrame> frames;
    std::uint64_t dyn_count = 0;
    std::uint64_t value_count = 0;
    std::uint64_t overhead_count = 0;
    std::uint64_t rollback_count = 0;
    std::uint64_t next_token = 0;
};

struct Snapshot
{
    ExecSnapshot exec;
    MemSnapshot mem;
};

/// Aggregate counters reported per workload (BENCH_injection.json,
/// fig8 --json, and the campaign tools).
struct SnapshotStats
{
    std::uint64_t count = 0;  ///< Snapshots kept.
    std::uint64_t bytes = 0;  ///< Resident bytes (pool + metadata).
    std::uint64_t stride = 0; ///< Final stride after adaptation.
    std::uint64_t stride_doublings = 0;
    std::uint64_t hits = 0;   ///< Trials restored from a snapshot.
    std::uint64_t misses = 0; ///< Trials that fell back to a full run.
    /// Trials whose suffix was cut short by a golden resync: after a
    /// successful rollback the trial's full semantic state matched a
    /// golden snapshot past the injection point, so the remainder of
    /// the run is the golden suffix by determinism and the trial
    /// adopted the golden outcome immediately.
    std::uint64_t resyncs = 0;
    /// Calls into the golden-resync state-equality ladder, summed over
    /// trials (Interpreter::tryGoldenResync). Deterministic: the count
    /// of one trial depends only on its draw.
    std::uint64_t resync_probes = 0;
    /// Replay certificates (interp/replay_profile.h): region-instance
    /// profiles built, and resyncs proven when a long replay re-entered
    /// its region instead of at the anchor. Both deterministic at any
    /// job count; profile bytes are not part of `bytes`.
    std::uint64_t replay_profiles = 0;
    std::uint64_t replay_skips = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

class SnapshotStore
{
  public:
    explicit SnapshotStore(const SnapshotConfig &config);

    const SnapshotConfig &config() const { return config_; }

    /// First barrier (in value instructions) for the recording run, or
    /// kNoSnapshotBarrier when the store is disabled.
    std::uint64_t firstBarrier() const;

    /// Records one snapshot of `interp` (which must be paused at a
    /// loop-top boundary with dirty tracking enabled) and returns the
    /// next barrier, applying the budget/stride policy above.
    std::uint64_t capture(Interpreter &interp);

    /// Latest snapshot with value_count <= target, or nullptr (full
    /// re-execution). Thread-safe after recording; counts hits/misses.
    const Snapshot *findAtOrBefore(std::uint64_t target) const;

    /// findAtOrBefore() without touching the hit/miss counters (replay
    /// profile builds seek with it; those are not trials).
    const Snapshot *latestAtOrBefore(std::uint64_t target) const;

    /// Earliest snapshot with value_count > target, or nullptr. This
    /// is the golden-resync anchor: after a rollback whose detection
    /// point sits at golden-equivalent value index `target`, the trial
    /// watches for its state to converge onto this snapshot.
    /// Thread-safe after recording; does not touch counters.
    const Snapshot *findFirstAfter(std::uint64_t target) const;

    /// Records one golden-resync fast-forward (stats only).
    void
    noteResync() const
    {
        resyncs_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Adds one trial's resync probe count (stats only).
    void
    noteResyncProbes(std::uint64_t probes) const
    {
        resync_probes_.fetch_add(probes, std::memory_order_relaxed);
    }

    const PagePool &pool() const { return pool_; }
    std::size_t size() const { return snapshots_.size(); }
    /// Snapshots in recording order, and the position of one of them.
    const Snapshot &at(std::size_t index) const { return snapshots_[index]; }
    std::size_t
    indexOf(const Snapshot &snap) const
    {
        return static_cast<std::size_t>(&snap - snapshots_.data());
    }
    std::uint64_t bytesUsed() const { return bytes_; }
    /// Final barrier stride (after any budget doublings).
    std::uint64_t stride() const { return stride_; }

    SnapshotStats stats() const;

  private:
    SnapshotConfig config_;
    PagePool pool_;
    std::vector<Snapshot> snapshots_;
    std::uint64_t stride_;
    std::uint64_t stride_doublings_ = 0;
    std::uint64_t bytes_ = 0;
    bool done_ = false;
    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> resyncs_{0};
    mutable std::atomic<std::uint64_t> resync_probes_{0};
};

} // namespace encore::interp

#endif // ENCORE_INTERP_SNAPSHOT_H
