/**
 * @file
 * Replay certificates: golden region-instance profiles that let a
 * post-rollback replay end at region re-entry instead of at the
 * golden-resync anchor.
 *
 * After a same-instance rollback the trial re-executes its region from
 * `region.enter` and (on a converged replay) resyncs with the golden
 * run at the first snapshot past the detection point — the anchor, see
 * Interpreter::armGoldenResync. Where a region is a whole loop nest,
 * that replay is most of what a trial costs, and it is pure
 * re-derivation of golden values. A ReplayProfile proves the replay's
 * result without running it.
 *
 * For one golden region instance the profile holds
 *  - E, the golden state right after the instance's `region.enter`
 *    (frames with registers and recovery state; allocation flags and
 *    the local-object shadow stack of memory), and
 *  - a first-access table: for every location the golden run touches
 *    from E on (the registers of frames live at E, and memory words),
 *    when it is first written and whether a read came before that.
 *    `ckpt.mem` and `ckpt.reg` are reads; a call's allocation of the
 *    callee's locals and a return's restore of them are writes of every
 *    word (a recursive allocation first reads the shadowed words); a
 *    return kills — writes — its frame's registers. Anchors are golden
 *    snapshots, so "when" is kept as the first anchor the write
 *    precedes: one byte per location.
 *
 * Memory values of E are not stored wholesale: a word the window never
 * writes before the anchor still holds E's value at the anchor, so it
 * is compared against the anchor snapshot in the store's pool. Only
 * read-first words that the window later writes keep their E value.
 *
 * The one rule, checked when the replay re-executes the instance's
 * `region.enter` (Interpreter::tryReplaySkip): every location whose
 * live value differs from E must be first written by the golden run
 * before the armed anchor. Then every golden read between E and the
 * anchor sees its golden value, so the replay executes the golden
 * instruction stream and arrives at the anchor in exactly the anchor's
 * state — the watch's first probe would succeed.
 *
 * Profiles are built lazily by ReplayProfiles, once per instance, by a
 * private interpreter resumed at the latest snapshot before the entry
 * that runs the golden suffix under an access tracker.
 */
#ifndef ENCORE_INTERP_REPLAY_PROFILE_H
#define ENCORE_INTERP_REPLAY_PROFILE_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "interp/decoded.h"
#include "interp/snapshot.h"

namespace encore::interp {

/// Identifies a golden region instance by the loop-top state right
/// after its `region.enter`: the golden value count there and the
/// code position (call depth, function, block, instruction index).
struct ReplayKey
{
    std::uint64_t golden_values = 0;
    std::uint32_t depth = 0;
    std::uint32_t func = 0;
    std::uint32_t block = 0;
    std::uint32_t ip = 0;

    bool
    operator<(const ReplayKey &o) const
    {
        return std::tie(golden_values, depth, func, block, ip) <
               std::tie(o.golden_values, o.depth, o.func, o.block, o.ip);
    }
};

struct ReplayProfile
{
    /// First-access codes, one byte per tracked location. Time is kept
    /// in anchor ordinals: the golden snapshots after E are the only
    /// possible anchors, numbered 0, 1, ... from the first one. A
    /// location first written before anchor k (and not before k - 1)
    /// holds (k << 1) | read-before-write.
    static constexpr std::uint8_t kUntouched = 0xff;
    static constexpr std::uint8_t kReadOnly = 0xfe;
    /// Anchors covered at most, so codes never reach the sentinels.
    static constexpr std::uint32_t kMaxAnchors = 127;

    /// True when the location's first access from E is a write before
    /// anchor `anchor` — its entry value is dead by then.
    static bool
    writtenFirstBefore(std::uint8_t code, std::uint64_t anchor)
    {
        return code < kReadOnly && (code & 1u) == 0 &&
               (code >> 1) <= anchor;
    }

    /// True when the location is written before anchor `anchor` (read
    /// first or not): the anchor no longer holds E's value.
    static bool
    writtenBefore(std::uint8_t code, std::uint64_t anchor)
    {
        return code < kReadOnly && (code >> 1) <= anchor;
    }

    /// A read-first memory word that the window later writes, with its
    /// value at E (held to it while the write precedes the anchor).
    struct EntryWord
    {
        ir::ObjectId object = ir::kInvalidObject;
        std::uint32_t offset = 0;
        std::uint64_t value = 0;
    };

    /// E: frames (registers, cursors, recovery state) and counters.
    ExecSnapshot entry;
    /// E's memory layout: allocation flags and sizes per object, and
    /// the local-object shadow stack. No pages.
    MemSnapshot layout;
    /// Store index of anchor 0, the first snapshot after E, and how
    /// many anchors from it the tracked window covers.
    std::uint64_t first_anchor = 0;
    std::uint32_t anchors = 0;
    /// Register codes per frame live at E, indexed [depth][register].
    std::vector<std::vector<std::uint8_t>> regs;
    /// Per object: start of its word codes in `words`, or ~0u when the
    /// window never touches it.
    std::vector<std::uint32_t> object_start;
    std::vector<std::uint8_t> words;
    std::vector<EntryWord> entry_words;

    std::uint8_t
    wordCode(ir::ObjectId object, std::uint32_t offset) const
    {
        const std::uint32_t start = object_start[object];
        return start == ~0u ? kUntouched : words[start + offset];
    }

    /// True when a word may differ from anchor `anchor`'s image at E:
    /// it is written before the anchor (write-first words are dead,
    /// read-first ones are held to `entry_words` instead).
    bool
    wordMayDiffer(ir::ObjectId object, std::uint32_t offset,
                  std::uint64_t anchor) const
    {
        return writtenBefore(wordCode(object, offset), anchor);
    }
};

/**
 * The lazily built profiles of one prepared program, shared by every
 * trial worker. get() builds a missing profile under the cache mutex,
 * once per instance; a key that names no golden instance caches as
 * absent. Built profiles are immutable.
 */
class ReplayProfiles
{
  public:
    /// `store` must outlive the cache; `entry`/`args` start the golden
    /// run for instances before the first snapshot.
    ReplayProfiles(std::shared_ptr<const DecodedModule> decoded,
                   const SnapshotStore &store, std::string entry,
                   std::vector<std::uint64_t> args);

    /// The profile of the instance at `key`, or nullptr when the
    /// golden run has no such instance. Thread-safe.
    const ReplayProfile *get(const ReplayKey &key);

    /// Records one resync proven at re-entry (stats only).
    void
    noteSkip()
    {
        skips_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Profiles built so far.
    std::uint64_t built() const;
    /// Resyncs proven at re-entry so far.
    std::uint64_t
    skips() const
    {
        return skips_.load(std::memory_order_relaxed);
    }

  private:
    std::unique_ptr<ReplayProfile> build(const ReplayKey &key) const;

    std::shared_ptr<const DecodedModule> decoded_;
    const SnapshotStore &store_;
    std::string entry_;
    std::vector<std::uint64_t> args_;

    mutable std::mutex mutex_;
    std::map<ReplayKey, std::unique_ptr<ReplayProfile>> profiles_;
    std::uint64_t built_ = 0;
    std::atomic<std::uint64_t> skips_{0};
};

} // namespace encore::interp

#endif // ENCORE_INTERP_REPLAY_PROFILE_H
