/**
 * @file
 * Statistical fault injection on the instrumented interpreter.
 *
 * The fault and detection scenario of each trial comes from the
 * pluggable registry in fault/models/: the default pair reproduces the
 * paper's model (§4.2.1) — flip one random bit in the destination
 * value of one uniformly chosen value-producing dynamic instruction,
 * then fire a detection event after a uniformly distributed latency in
 * [0, Dmax] dynamic instructions. Alternative models inject multi-bit
 * flips, corrupted branch targets, or memory/address-bus faults, and
 * the replay detector checks at Dmax-wide window boundaries instead of
 * drawing a latency. Runtime symptoms (wild pointers, division by
 * zero) fire detection immediately under the analytical detector,
 * reflecting the fast symptom-based detection of ReStore/Shoestring
 * that the paper assumes for address and control faults (§4.3).
 *
 * Outcomes are judged by *execution*, not by the analytical model: a
 * trial only counts as recovered when the rollback actually ran and
 * the program finished with output identical to the golden run. A
 * detection landing in a different region instance than the fault is
 * Not Recoverable, matching the paper's criterion (s + l < n).
 *
 * Trials are mutually independent: trial t is drawn once, by
 * drawCampaignTrial from the counter-based stream
 * Rng::forStream(seed, t), and executed by runTrialPlanned, so each is
 * a pure function of (module, golden run, seed, t). Every campaign
 * loop runs them on a fault::TrialExecutor (fault/trial_executor.h),
 * which shards them across a work-stealing thread pool with results
 * bit-identical at any thread count.
 *
 * Execution cost per trial is kept allocation-free in steady state:
 * the injector pre-decodes the instrumented module once (one immutable
 * DecodedModule shared read-only by every worker), each executor slot
 * reuses a single Interpreter whose frames / undo logs / memory
 * storage are pooled across trials, and golden-output checking
 * compares global memory in place instead of snapshotting it.
 */
#ifndef ENCORE_FAULT_INJECTOR_H
#define ENCORE_FAULT_INJECTOR_H

#include <memory>
#include <vector>

#include "encore/pipeline.h"
#include "fault/masking.h"
#include "fault/models/fault_model.h"
#include "interp/interpreter.h"
#include "interp/replay_profile.h"

namespace encore::fault {

enum class FaultOutcome
{
    Masked,              ///< Hardware-masked (modelled) fault.
    RecoveredIdempotent, ///< Rolled back in an idempotent region.
    RecoveredCheckpoint, ///< Rolled back in a checkpointed region.
    NotRecoverable,      ///< Detected too late / outside protection.
    RecoveryFailed,      ///< Rollback ran but the output was wrong —
                         ///< the statistical (Pmin) risk materialized.
    Benign,              ///< Never detected, output still correct.
    SilentCorruption,    ///< Never detected, output wrong (program
                         ///< ended before the latency elapsed).
    NumOutcomes,
};

std::string_view outcomeName(FaultOutcome outcome);

struct TrialConfig
{
    /// Maximum detection latency Dmax, in dynamic instructions (the
    /// replay detector uses it as its window width).
    std::uint64_t dmax = 100;
    /// Execution budget multiplier over the golden run length (runaway
    /// corrupted executions are cut off and counted unrecoverable).
    double run_budget_factor = 4.0;
    /// Fault model and detector; nullptr selects the registry defaults
    /// (reg-bit under the analytical Dmax detector — the pre-registry
    /// behaviour, byte-identical to it). Read them through
    /// faultModel() / detectorModel(), which apply that rule.
    const models::FaultModel *model = nullptr;
    const models::Detector *detector = nullptr;

    const models::FaultModel &
    faultModel() const
    {
        return model ? *model : *models::defaultFaultModel();
    }

    const models::Detector &
    detectorModel() const
    {
        return detector ? *detector : *models::defaultDetector();
    }
};

struct CampaignConfig
{
    std::uint64_t trials = 1000;
    std::uint64_t seed = 12345;
    /// Worker threads of the campaign's TrialExecutor: 1 = sequential,
    /// 0 = all hardware threads. Trials use counter-based per-trial
    /// seeding (drawCampaignTrial), so the aggregated result is
    /// bit-identical for every value of `jobs`.
    std::size_t jobs = 1;
    TrialConfig trial;
    double masking_rate = MaskingModel::kArm926Rate;
    /// When true, masked trials are drawn but not executed (they
    /// contribute to the Masked bucket only), matching the paper's
    /// presentation of coverage over *all* injected faults.
    bool model_masking = true;
};

/// Validates a campaign configuration at campaign entry: trials > 0,
/// masking_rate in [0, 1], run_budget_factor >= 1, dmax > 0. Invalid
/// configurations exit through support/diagnostics fatal() with a
/// message naming the offending field, instead of silently producing
/// nonsense tables (e.g. a 0-trial campaign whose every fraction is 0).
void validateCampaignConfig(const CampaignConfig &config);

/**
 * The fault parameters of one campaign trial, drawn from the
 * counter-based stream Rng::forStream(config.seed, trial): the masking
 * coin (when modelled) first, then the fault model's injection plan,
 * then the detector's detection plan. The coin comes before the model
 * draws, so a trial index is masked or not independently of which
 * model the campaign runs. For a masked draw only `masked` is
 * meaningful.
 */
struct TrialDraw
{
    bool masked = false;
    models::InjectionPlan plan;
    models::DetectionPlan detection;
};

/// The one trial draw: FaultInjector::runCampaignTrial executes it,
/// and the campaign planner enumerates a whole campaign's fault plan
/// with it without executing anything. `golden_value_instrs` is the
/// fault-site universe size (FaultInjector::golden().value_instrs).
TrialDraw drawCampaignTrial(std::uint64_t trial,
                            const CampaignConfig &config,
                            std::uint64_t golden_value_instrs);

struct CampaignResult
{
    std::uint64_t counts[static_cast<int>(FaultOutcome::NumOutcomes)] = {};
    std::uint64_t trials = 0;
    /// Total replayed dynamic instructions across all trials — the
    /// Dichev-style recovery-cost side of the replay detector. Always 0
    /// under the analytical detector.
    std::uint64_t replay_cost = 0;

    std::uint64_t
    count(FaultOutcome outcome) const
    {
        return counts[static_cast<int>(outcome)];
    }

    double
    fraction(FaultOutcome outcome) const
    {
        return trials ? static_cast<double>(count(outcome)) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    /// Paper's headline metric: masked + recovered (benign completions
    /// count as tolerated as well).
    double
    coveredFraction() const
    {
        return fraction(FaultOutcome::Masked) +
               fraction(FaultOutcome::RecoveredIdempotent) +
               fraction(FaultOutcome::RecoveredCheckpoint) +
               fraction(FaultOutcome::Benign);
    }
};

/**
 * Everything a finished trial execution exposes to outcome
 * classification. Factoring the mapping out of trial execution keeps every
 * outcome leg unit-testable — including the ones that are unreachable
 * end-to-end under full determinism (e.g. the SilentCorruption leg of
 * the not-injected path, which requires a run that diverges from the
 * golden prefix *before* any fault was injected).
 */
struct TrialObservation
{
    interp::RunResult::Status status = interp::RunResult::Status::Ok;
    bool injected = false;
    /// Detection fired (by latency expiry or symptom).
    bool detected = false;
    /// Detection fired in the same region instance as the fault.
    bool same_instance = false;
    /// Return value and global memory match the golden run.
    bool same_output = false;
    /// Class of the region the fault struck.
    RegionClass region_class = RegionClass::NonIdempotent;
};

/// The trial outcome table (see FaultInjector::runTrialPlanned for the
/// execution that fills a TrialObservation in). Pure; exercised
/// directly by tests.
FaultOutcome classifyTrialOutcome(const TrialObservation &obs);

/**
 * Runs fault-injection campaigns against one instrumented module.
 */
class FaultInjector
{
  public:
    /// `report` supplies region-id → class attribution; the module must
    /// already be instrumented by the pipeline. `engine` selects the
    /// execution tier for the golden run and every trial (trial
    /// outcomes are engine-independent; the fused default is simply
    /// faster — see interp::EngineKind).
    FaultInjector(const ir::Module &module, const EncoreReport &report,
                  interp::EngineKind engine = interp::EngineKind::Fused);

    /// Selects the snapshot tier configuration for the next prepare()
    /// (snapshots are rebuilt from scratch by every prepare). Call
    /// before prepare(); a config with enabled=false (or stride 0)
    /// turns the tier off and every trial re-executes from entry.
    void configureSnapshots(const interp::SnapshotConfig &config);

    const interp::SnapshotConfig &
    snapshotConfig() const
    {
        return snap_config_;
    }

    /// True when prepare() recorded at least one snapshot.
    bool
    snapshotsActive() const
    {
        return snapshots_ && snapshots_->size() > 0;
    }

    /// Store counters (count/bytes/stride/hit-rate, resyncs, replay
    /// certificates); all-zero when the tier is disabled.
    interp::SnapshotStats snapshotStats() const;

    /// Test seam: with `enabled` false, trials run without replay
    /// profiles (every long replay runs to its resync anchor, as with
    /// no certificate at all). Toggle only between trials.
    void
    setReplayProfilesForTesting(bool enabled)
    {
        use_replay_profiles_ = enabled;
    }

    /// Executes the golden (fault-free) run; must be called before
    /// trials. When the snapshot tier is enabled, the same run also
    /// records the prefix SnapshotStore that trial execution seeks
    /// into. Returns false when the program itself fails.
    bool prepare(const std::string &entry,
                 const std::vector<std::uint64_t> &args);

    /// Deterministic single-trial execution with explicit reg-bit
    /// fault parameters. `target_value_index` is the value-producing dynamic
    /// instruction whose destination gets `bit` flipped; detection
    /// fires `latency` dynamic instructions later (or at the first
    /// symptom). Useful for replaying one specific trial and for
    /// pinning down outcome edges in tests. When the snapshot tier is
    /// active, execution starts from the nearest snapshot at-or-before
    /// the target — bit-identical to a full run by construction.
    FaultOutcome runTrialAt(std::uint64_t target_value_index, int bit,
                            std::uint64_t latency,
                            const TrialConfig &config,
                            interp::Interpreter &interp) const;

    /// Deterministic single-trial execution from fully drawn plans —
    /// the common core every trial funnels into. When `aux`
    /// is non-null it receives the trial's auxiliary cost counter
    /// (replayed dynamic instructions under the replay detector,
    /// saturated to 32 bits; 0 otherwise).
    FaultOutcome runTrialPlanned(const models::InjectionPlan &plan,
                                 const models::DetectionPlan &detection,
                                 const TrialConfig &config,
                                 interp::Interpreter &interp,
                                 std::uint32_t *aux = nullptr) const;

    /// Runs campaign trial `trial` on a caller-owned pooled
    /// interpreter: drawCampaignTrial, then (when not masked)
    /// runTrialPlanned. The outcome is a pure function of (module,
    /// golden run, config.seed, trial), which is what makes a resumed,
    /// sharded or served campaign bit-identical to an uninterrupted
    /// single-process one. `aux` receives the trial's auxiliary cost
    /// counter (the durable trial store persists it next to the
    /// outcome so resumed and merged campaigns reproduce replay-cost
    /// aggregates exactly).
    FaultOutcome runCampaignTrial(std::uint64_t trial,
                                  const CampaignConfig &config,
                                  interp::Interpreter &interp,
                                  std::uint32_t &aux) const;

    /// Runs a whole campaign (including modelled masking) on a
    /// TrialExecutor of `config.jobs` threads. Per-trial seeding makes
    /// the result bit-identical regardless of thread count or
    /// schedule. Fatal on an invalid config (see
    /// validateCampaignConfig).
    CampaignResult runCampaign(const CampaignConfig &config) const;

    const interp::RunResult &golden() const { return golden_; }

    /// Identity of the prepared campaign target, used by the durable
    /// trial store to fingerprint which (module, entry, args) a store
    /// belongs to. moduleHash() is a stable hash of the instrumented
    /// module's printed form, computed once in the constructor.
    std::uint64_t moduleHash() const { return module_hash_; }
    const std::string &entry() const { return entry_; }
    const std::vector<std::uint64_t> &args() const { return args_; }

    /// The instrumented module trials run against. The campaign
    /// planner walks it to build the call graph behind its
    /// per-function instrumentation-closure fingerprints.
    const ir::Module &module() const { return module_; }

    /// The immutable pre-decoded code cache shared by every trial.
    const std::shared_ptr<const interp::DecodedModule> &
    decodedModule() const
    {
        return decoded_;
    }

  private:
    RegionClass regionClassOf(ir::RegionId id) const;

    const ir::Module &module_;
    std::uint64_t module_hash_ = 0;
    /// Built once in the constructor (the module is already in its
    /// final instrumented form there) and never mutated afterwards.
    std::shared_ptr<const interp::DecodedModule> decoded_;
    /// Region-id → class lookup, flat-indexed by id: this sits on the
    /// per-trial hot path, so no tree walk.
    std::vector<RegionClass> region_class_;
    std::string entry_;
    std::vector<std::uint64_t> args_;
    interp::RunResult golden_;
    bool prepared_ = false;

    /// Snapshot tier: configured before prepare(), recorded during it,
    /// then shared read-only by every trial thread. shared_ptr so the
    /// store outlives re-prepares already-running readers might race
    /// (in practice prepare() happens once, before trials start).
    interp::SnapshotConfig snap_config_;
    std::shared_ptr<interp::SnapshotStore> snapshots_;
    /// Replay certificates over snapshots_: an empty cache after
    /// prepare(), filled lazily by the trials whose long replays ask
    /// for a region-instance profile (interp/replay_profile.h).
    std::unique_ptr<interp::ReplayProfiles> replay_profiles_;
    bool use_replay_profiles_ = true;
};

} // namespace encore::fault

#endif // ENCORE_FAULT_INJECTOR_H
