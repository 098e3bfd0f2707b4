#include "interp/replay_profile.h"

#include <algorithm>

#include "interp/interpreter.h"

namespace encore::interp {

/**
 * The access tracker behind a profile build. Installed as the hooks of
 * a private interpreter replaying the golden run, it sees every
 * instruction before it executes (unfused, so each source instruction
 * gets its own callback) and reads the interpreter's frames and memory
 * directly: first it seeks the instance's entry, then it records each
 * instruction's reads before its writes, stamped with the ordinal of
 * the first anchor the instruction precedes.
 *
 * Tracking covers the anchors up to the first snapshot after the
 * instance ends (its frame enters another region or returns): a trial
 * detected inside the instance anchors at or before it. It stops there
 * by dropping the private run's instruction budget to zero.
 */
class ReplayTracker : public ExecHooks
{
  public:
    ReplayTracker(Interpreter &sim, const SnapshotStore &store,
                  const ReplayKey &key, ReplayProfile &profile)
        : sim_(sim), store_(store), key_(key), profile_(profile)
    {
    }

    bool needsUnfusedDispatch() const override { return true; }

    bool
    shouldTriggerDetection(const ir::Instruction &next,
                           std::uint64_t dyn_index) override
    {
        (void)next;
        if (state_ == State::Seek) {
            if (sim_.value_count_ > key_.golden_values)
                return stop(State::Failed);
            if (!atKey())
                return false;
            begin();
        }
        if (state_ != State::Track)
            return false;
        while (next_anchor_ < store_.size() &&
               store_.at(next_anchor_).exec.dyn_count <= dyn_index) {
            ++next_anchor_;
            ++ordinal_;
        }
        if (ordinal_ >= anchors_) {
            // Every instruction before the last covered anchor is in.
            profile_.anchors = anchors_;
            return stop(State::Done);
        }
        try {
            record();
        } catch (const Interpreter::ExecError &) {
            return stop(State::Failed);
        }
        return false;
    }

    /// True when the entry was found and tracking covered its anchors.
    bool done() const { return state_ == State::Done; }

  private:
    enum class State { Seek, Track, Done, Failed };

    bool
    atKey() const
    {
        if (sim_.value_count_ != key_.golden_values ||
            sim_.depth_ != key_.depth)
            return false;
        const Interpreter::Frame &top = sim_.frames_[sim_.depth_ - 1];
        return top.func->index == key_.func && top.block == key_.block &&
               top.ip == key_.ip;
    }

    void
    begin()
    {
        state_ = State::Track;
        sim_.saveExecState(profile_.entry);
        sim_.memory_.captureLayout(profile_.layout);
        alive_ = sim_.depth_;
        profile_.regs.resize(alive_);
        for (std::size_t f = 0; f < alive_; ++f)
            profile_.regs[f].assign(sim_.frames_[f].func->num_regs,
                                    ReplayProfile::kUntouched);
        profile_.object_start.assign(sim_.module_.objects().size(), ~0u);
        // Anchor 0 is the first snapshot after E; no snapshot shares
        // E's value count past it (captures take the first loop top).
        const Snapshot *first = store_.findFirstAfter(sim_.value_count_);
        profile_.first_anchor = first ? store_.indexOf(*first)
                                      : store_.size();
        next_anchor_ = profile_.first_anchor;
        anchors_ = static_cast<std::uint32_t>(std::min<std::size_t>(
            ReplayProfile::kMaxAnchors,
            store_.size() - profile_.first_anchor));
    }

    /// Ends the private run at the next loop top. Returns false (the
    /// hook's "no detection" answer) for the caller's convenience.
    bool
    stop(State state)
    {
        state_ = state;
        sim_.setMaxInstructions(0);
        return false;
    }

    /// The instance ended: cover the anchors up to the first snapshot
    /// after this point.
    void
    endInstance()
    {
        if (ended_)
            return;
        ended_ = true;
        const Snapshot *horizon =
            store_.findFirstAfter(sim_.value_count_);
        if (horizon)
            anchors_ = std::min<std::uint32_t>(
                anchors_, static_cast<std::uint32_t>(
                              store_.indexOf(*horizon) + 1 -
                              profile_.first_anchor));
    }

    std::uint8_t
    access(std::uint8_t code, bool write) const
    {
        if (!write)
            return code == ReplayProfile::kUntouched
                       ? ReplayProfile::kReadOnly
                       : code;
        const auto stamp = static_cast<std::uint8_t>(ordinal_ << 1);
        if (code == ReplayProfile::kUntouched)
            return stamp;
        if (code == ReplayProfile::kReadOnly)
            return stamp | 1u;
        return code;
    }

    /// Register `reg` of the frame at 1-based `depth`; only frames live
    /// at the entry are locations (later frames start fresh).
    void
    touchReg(std::size_t depth, ir::RegId reg, bool write)
    {
        if (depth > alive_)
            return;
        std::uint8_t &code = profile_.regs[depth - 1][reg];
        code = access(code, write);
    }

    void
    touchWord(ir::ObjectId object, std::uint32_t word, bool write)
    {
        std::uint32_t &start = profile_.object_start[object];
        if (start == ~0u) {
            start = static_cast<std::uint32_t>(profile_.words.size());
            profile_.words.resize(
                start + sim_.module_.object(object).size,
                ReplayProfile::kUntouched);
        }
        std::uint8_t &code = profile_.words[start + word];
        if (write && code == ReplayProfile::kReadOnly) {
            // Unwritten since the entry, so it still holds E's value.
            profile_.entry_words.push_back(ReplayProfile::EntryWord{
                object, word, sim_.memory_.wordAt(object, word)});
        }
        code = access(code, write);
    }

    void
    touchObject(ir::ObjectId object, bool write)
    {
        const std::uint32_t size = sim_.module_.object(object).size;
        for (std::uint32_t w = 0; w < size; ++w)
            touchWord(object, w, write);
    }

    /// Reads, then writes, of the instruction about to execute.
    void
    record()
    {
        const std::size_t depth = sim_.depth_;
        const Interpreter::Frame &frame = sim_.frames_[depth - 1];
        const DecodedFunction &func = *frame.func;
        const DecodedInst &inst = func.code[frame.ip];
        const auto read = [&](const DecodedOperand &op) {
            if (op.slot < func.num_regs)
                touchReg(depth, op.slot, false);
        };
        const auto readAddress = [&] {
            if (inst.addr_base == DecodedInst::AddrBase::Reg)
                touchReg(depth, inst.addr_reg, false);
            read(inst.addr_off);
        };
        const auto memory = [&](bool write) {
            ir::ObjectId object;
            std::uint32_t word;
            sim_.evalAddr(frame, inst, object, word);
            touchWord(object, word, write);
        };

        switch (inst.op) {
          case ir::Opcode::Lea:
            readAddress();
            break;
          case ir::Opcode::Load:
            readAddress();
            memory(false);
            break;
          case ir::Opcode::Store:
            readAddress();
            read(inst.a);
            memory(true);
            return;
          case ir::Opcode::CkptMem:
            readAddress();
            memory(false);
            return;
          case ir::Opcode::CkptReg:
          case ir::Opcode::Br:
            read(inst.a);
            return;
          case ir::Opcode::Jmp:
            return;
          case ir::Opcode::RegionEnter:
            if (depth == key_.depth && alive_ == key_.depth)
                endInstance();
            return;
          case ir::Opcode::Restore:
            // The golden run never rolls back.
            throw Interpreter::ExecError{"restore in a golden run"};
          case ir::Opcode::Call: {
            if (inst.callee == ~0u)
                throw Interpreter::ExecError{"unresolved call"};
            for (std::uint32_t i = 0; i < inst.args_count; ++i)
                read(func.args_pool[inst.args_first + i]);
            // Allocation zeroes the callee's locals; a recursive one
            // first saves the shadowed words.
            const DecodedFunction &callee =
                sim_.decoded_->function(inst.callee);
            for (const ir::ObjectId object : callee.src->localObjects()) {
                if (sim_.memory_.isAllocated(object))
                    touchObject(object, false);
                touchObject(object, true);
            }
            return;
          }
          case ir::Opcode::Ret: {
            read(inst.a);
            // The pop restores (or frees) every local of the frame.
            for (const ir::ObjectId object : func.src->localObjects())
                touchObject(object, true);
            if (depth <= alive_) {
                for (ir::RegId r = 0; r < func.num_regs; ++r)
                    touchReg(depth, r, true);
                alive_ = depth - 1;
                endInstance();
            }
            if (depth == 1) {
                // The program ends here: every later anchor is covered.
                profile_.anchors = anchors_;
                stop(State::Done);
            } else if (frame.caller_dest != ir::kInvalidReg) {
                touchReg(depth - 1, frame.caller_dest, true);
            }
            return;
          }
          default:
            // Pure value ops: absent operands decode as pooled
            // immediates, so reading all three is exact.
            read(inst.a);
            read(inst.b);
            read(inst.c);
            break;
        }
        if (inst.dest != ir::kInvalidReg)
            touchReg(depth, inst.dest, true);
    }

    Interpreter &sim_;
    const SnapshotStore &store_;
    const ReplayKey key_;
    ReplayProfile &profile_;
    State state_ = State::Seek;
    /// Frames 1..alive_ of the entry are still live.
    std::size_t alive_ = 0;
    bool ended_ = false;
    /// Store index of the next anchor not yet passed, and how many have
    /// been passed: the ordinal the current instruction is stamped with.
    std::size_t next_anchor_ = 0;
    std::uint32_t ordinal_ = 0;
    /// Anchors to cover; tracking stops once they are all passed.
    std::uint32_t anchors_ = 0;
};

ReplayProfiles::ReplayProfiles(std::shared_ptr<const DecodedModule> decoded,
                               const SnapshotStore &store, std::string entry,
                               std::vector<std::uint64_t> args)
    : decoded_(std::move(decoded)),
      store_(store),
      entry_(std::move(entry)),
      args_(std::move(args))
{
}

const ReplayProfile *
ReplayProfiles::get(const ReplayKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = profiles_.find(key);
    if (it == profiles_.end()) {
        std::unique_ptr<ReplayProfile> profile = build(key);
        if (profile)
            ++built_;
        it = profiles_.emplace(key, std::move(profile)).first;
    }
    return it->second.get();
}

std::uint64_t
ReplayProfiles::built() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return built_;
}

std::unique_ptr<ReplayProfile>
ReplayProfiles::build(const ReplayKey &key) const
{
    ReplayProfile raw;
    {
        Interpreter sim(decoded_);
        sim.setCaptureGlobals(false);
        sim.setMaxInstructions(~0ull);
        ReplayTracker tracker(sim, store_, key, raw);
        sim.setHooks(&tracker, 0);
        // The latest snapshot at or before the entry's value count
        // precedes the entry: it was captured at the first loop top of
        // its count, and the entry follows a `region.enter`.
        if (const Snapshot *start =
                store_.latestAtOrBefore(key.golden_values))
            sim.resumeRun(*start, store_.pool());
        else
            sim.run(entry_, args_);
        if (!tracker.done())
            return nullptr;
    }
    // Copied out once the private interpreter is freed: exact-size
    // allocations (no growth slack) that reuse the space it left.
    return std::make_unique<ReplayProfile>(raw);
}

} // namespace encore::interp
