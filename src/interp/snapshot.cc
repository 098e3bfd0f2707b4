#include "interp/snapshot.h"

#include <algorithm>

#include "interp/interpreter.h"

namespace encore::interp {

namespace {

/// Resident metadata bytes of one snapshot beyond its fresh pool
/// pages: page-table entries, frame registers, undo logs, and the
/// local-object shadow copies. Approximate (allocator slack ignored)
/// but monotone in the real footprint, which is all the budget needs.
std::uint64_t
snapshotOverheadBytes(const Snapshot &snap)
{
    std::uint64_t bytes = sizeof(Snapshot);
    bytes += snap.mem.objects.size() * sizeof(MemObjectImage);
    bytes += snap.mem.page_refs.size() * sizeof(std::uint32_t);
    for (const MemFrameImage &frame : snap.mem.frames) {
        bytes += frame.saved.size() * sizeof(SavedLocalImage);
        for (const SavedLocalImage &local : frame.saved)
            bytes += local.contents.size() * sizeof(std::uint64_t);
    }
    for (const SnapFrame &frame : snap.exec.frames) {
        bytes += sizeof(SnapFrame);
        bytes += frame.regs.size() * sizeof(std::uint64_t);
        bytes += frame.rec_log.size() * sizeof(SnapUndo);
    }
    return bytes;
}

} // namespace

SnapshotStore::SnapshotStore(const SnapshotConfig &config)
    : config_(config), stride_(config.stride)
{
    std::uint32_t pw = 1;
    while (pw < config_.page_words && pw < (1u << 20))
        pw <<= 1;
    pool_.page_words = pw;
    if (!config_.enabled || config_.stride == 0)
        done_ = true;
}

std::uint64_t
SnapshotStore::firstBarrier() const
{
    return done_ ? kNoSnapshotBarrier : stride_;
}

std::uint64_t
SnapshotStore::capture(Interpreter &interp)
{
    if (done_)
        return kNoSnapshotBarrier;

    const std::size_t pool_before = pool_.words.size();
    Snapshot snap;
    interp.saveExecState(snap.exec);
    const Snapshot *prev = snapshots_.empty() ? nullptr : &snapshots_.back();
    interp.memoryRef().capture(snap.mem, prev ? &prev->mem : nullptr,
                               pool_);

    const std::uint64_t snap_bytes =
        (pool_.words.size() - pool_before) * sizeof(std::uint64_t) +
        snapshotOverheadBytes(snap);

    if (bytes_ + snap_bytes > config_.byte_budget) {
        // Over budget: discard this capture (truncate the fresh pages
        // back off the pool) and keep the dirty flags accumulating
        // into the next, coarser attempt.
        pool_.words.resize(pool_before);
        if (snapshots_.empty()) {
            // Even one full image does not fit: this workload's state
            // is too large for the budget — disable the tier entirely
            // rather than record nothing forever.
            done_ = true;
            return kNoSnapshotBarrier;
        }
        stride_ *= 2;
        ++stride_doublings_;
        return snap.exec.value_count + stride_;
    }

    interp.memoryRef().clearDirty();
    bytes_ += snap_bytes;
    const std::uint64_t next = snap.exec.value_count + stride_;
    snapshots_.push_back(std::move(snap));
    return next;
}

const Snapshot *
SnapshotStore::findAtOrBefore(std::uint64_t target) const
{
    const Snapshot *snap = latestAtOrBefore(target);
    (snap ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return snap;
}

const Snapshot *
SnapshotStore::latestAtOrBefore(std::uint64_t target) const
{
    auto it = std::upper_bound(
        snapshots_.begin(), snapshots_.end(), target,
        [](std::uint64_t t, const Snapshot &s) {
            return t < s.exec.value_count;
        });
    return it == snapshots_.begin() ? nullptr : &*(it - 1);
}

const Snapshot *
SnapshotStore::findFirstAfter(std::uint64_t target) const
{
    auto it = std::upper_bound(
        snapshots_.begin(), snapshots_.end(), target,
        [](std::uint64_t t, const Snapshot &s) {
            return t < s.exec.value_count;
        });
    return it == snapshots_.end() ? nullptr : &*it;
}

SnapshotStats
SnapshotStore::stats() const
{
    SnapshotStats stats;
    stats.count = snapshots_.size();
    stats.bytes = bytes_;
    stats.stride = stride_;
    stats.stride_doublings = stride_doublings_;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.resyncs = resyncs_.load(std::memory_order_relaxed);
    stats.resync_probes = resync_probes_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace encore::interp
