/**
 * @file
 * Differential guard for the snapshot tier and the event-driven trial
 * path: trial outcomes (and replay costs) must be bit-identical with
 * snapshots on and at stride 0 (full re-execution from entry), for
 * every workload in the suite and every fault-model x detector pair,
 * per trial and in aggregate, sequentially and across threads.
 *
 * This is the enforcement of the tier's one hard invariant. A trial's
 * hooks arm only at its anchor, so its prefix is the golden run and a
 * golden-run snapshot is a valid trial prefix; if any piece of
 * interpreter state were missing from the snapshot (a counter, a
 * recovery-log entry, a dirty page), some trial here would diverge and
 * the comparison below would catch it on real region structures rather
 * than toy programs. The same comparison covers the rest of the event
 * sequence: the unfused strike window of the branch/memory models, and
 * the golden-resync barrier shifted by the replay offset, which may only
 * ever change how fast a trial ends, never how it is classified.
 */
#include <gtest/gtest.h>

#include "encore/pipeline.h"
#include "fault/injector.h"
#include "fault/models/fault_model.h"
#include "interp/interpreter.h"
#include "ir/parser.h"
#include "workloads/workload.h"

namespace encore {
namespace {

struct Prepared
{
    std::unique_ptr<ir::Module> module;
    EncoreReport report;
};

Prepared
runPipeline(const workloads::Workload &w)
{
    Prepared p;
    p.module = w.build();
    EncoreConfig config;
    for (const std::string &opaque : w.opaque)
        config.opaque_functions.insert(opaque);
    EncorePipeline pipeline(*p.module, config);
    p.report = pipeline.run({RunSpec{w.entry, w.train_args}});
    return p;
}

interp::SnapshotConfig
snapshotsOn(std::uint64_t stride)
{
    interp::SnapshotConfig config;
    config.stride = stride;
    return config;
}

/// Stride 0: no store, every trial re-executes from program entry.
interp::SnapshotConfig
snapshotsOff()
{
    interp::SnapshotConfig config;
    config.stride = 0;
    return config;
}

/// One program prepared twice: snapshots on (fused engine) and at
/// stride 0 on `off_engine`.
struct OnOff
{
    std::unique_ptr<fault::FaultInjector> on;
    std::unique_ptr<fault::FaultInjector> off;
};

OnOff
prepareOnOff(const ir::Module &module, const EncoreReport &report,
             const std::string &entry,
             const std::vector<std::uint64_t> &args, std::uint64_t stride,
             interp::EngineKind off_engine = interp::EngineKind::Fused)
{
    OnOff p;
    p.off =
        std::make_unique<fault::FaultInjector>(module, report, off_engine);
    p.off->configureSnapshots(snapshotsOff());
    EXPECT_TRUE(p.off->prepare(entry, args));
    EXPECT_FALSE(p.off->snapshotsActive());
    p.on = std::make_unique<fault::FaultInjector>(module, report);
    p.on->configureSnapshots(snapshotsOn(stride));
    EXPECT_TRUE(p.on->prepare(entry, args));
    return p;
}

/// Per trial (outcome and replay cost, same seed stream) and in
/// aggregate at jobs 1 and 4 (workers share the store read-only).
/// Returns the snapshot-on aggregate.
fault::CampaignResult
expectCampaignsMatch(const OnOff &p, fault::CampaignConfig cc)
{
    interp::Interpreter interp_on(p.on->decodedModule());
    interp::Interpreter interp_off(p.off->decodedModule());
    for (std::uint64_t t = 0; t < cc.trials; ++t) {
        std::uint32_t aux_on = 0, aux_off = 0;
        EXPECT_EQ(p.on->runCampaignTrial(t, cc, interp_on, aux_on),
                  p.off->runCampaignTrial(t, cc, interp_off, aux_off))
            << "trial " << t;
        EXPECT_EQ(aux_on, aux_off) << "trial " << t;
    }

    fault::CampaignResult result;
    for (const std::size_t jobs : {1u, 4u}) {
        cc.jobs = jobs;
        const fault::CampaignResult a = p.on->runCampaign(cc);
        const fault::CampaignResult b = p.off->runCampaign(cc);
        EXPECT_EQ(a.trials, b.trials);
        EXPECT_EQ(a.replay_cost, b.replay_cost) << "jobs " << jobs;
        for (int i = 0;
             i < static_cast<int>(fault::FaultOutcome::NumOutcomes); ++i)
            EXPECT_EQ(a.counts[i], b.counts[i])
                << "jobs " << jobs << ", outcome "
                << outcomeName(static_cast<fault::FaultOutcome>(i));
        result = a;
    }
    return result;
}

TEST(SnapshotDifferential, AllWorkloadsBitIdenticalOnAndOff)
{
    std::size_t with_snapshots = 0;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        const Prepared p = runPipeline(w);
        // A stride small enough that even the shortest workloads cross
        // several barriers — the point is to take the restore path,
        // not to be fast.
        const OnOff io = prepareOnOff(*p.module, p.report, w.entry,
                                      w.train_args, 2048);
        if (io.on->snapshotsActive())
            ++with_snapshots;

        // Recording snapshots must not perturb the golden run itself.
        EXPECT_EQ(io.on->golden().return_value,
                  io.off->golden().return_value);
        EXPECT_EQ(io.on->golden().dyn_instrs, io.off->golden().dyn_instrs);
        EXPECT_EQ(io.on->golden().value_instrs,
                  io.off->golden().value_instrs);

        fault::CampaignConfig cc;
        cc.trials = 30;
        cc.seed = 20240817;
        cc.trial.dmax = 100;
        cc.model_masking = false; // every trial takes the restore path
        expectCampaignsMatch(io, cc);

        if (io.on->snapshotsActive()) {
            // Every non-masked trial above sought the store once.
            const interp::SnapshotStats stats = io.on->snapshotStats();
            EXPECT_GT(stats.count, 0u);
            EXPECT_GT(stats.hits + stats.misses, 0u);
            EXPECT_LE(stats.bytes, snapshotsOn(2048).byte_budget);
        }
    }

    // The differential only bites if the snapshot path actually ran:
    // most of the suite must have crossed at least one barrier.
    EXPECT_GT(with_snapshots, workloads::allWorkloads().size() / 2);
}

TEST(SnapshotDifferential, AllScenarioPairsBitIdenticalOnAndOff)
{
    // Every fault-model x detector pair. The branch/memory models
    // anchor on a value index but strike later, at the first matching
    // site past it, inside an unfused strike window that closes at the
    // strike; a restored trial therefore executes golden instructions
    // between the snapshot and the strike, then fuses again. The
    // replay detector adds window-boundary detection and a per-trial
    // replay cost, which must match too. The stride-0 side runs on the
    // decoded engine, which never fuses: a strike site or hook call
    // that the fused event sequence skipped would show up here.
    for (const char *name : {"rawcaudio", "pegwitdec", "mpeg2dec"}) {
        SCOPED_TRACE(name);
        const workloads::Workload *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr);
        const Prepared p = runPipeline(*w);
        const OnOff io =
            prepareOnOff(*p.module, p.report, w->entry, w->train_args, 2048,
                         interp::EngineKind::Decoded);
        ASSERT_TRUE(io.on->snapshotsActive());

        for (const std::string_view model :
             fault::models::faultModelNames()) {
            for (const std::string_view detector :
                 fault::models::detectorNames()) {
                SCOPED_TRACE(std::string(model) + " + " +
                             std::string(detector));
                fault::CampaignConfig cc;
                cc.trials = 25;
                cc.seed = 20260808;
                cc.trial.dmax = 100;
                cc.trial.model = fault::models::findFaultModel(model);
                cc.trial.detector = fault::models::findDetector(detector);
                cc.model_masking = false;
                const fault::CampaignResult result =
                    expectCampaignsMatch(io, cc);
                // Guard against a differential that agrees because
                // neither side struck: a trial that never injects is
                // judged by output alone and lands in Benign.
                EXPECT_LT(result.count(fault::FaultOutcome::Benign),
                          result.trials);
            }
        }
    }
}

/// Runs one fully specified plan through both injectors.
void
expectPlanMatches(const OnOff &io, const fault::models::InjectionPlan &plan,
                  const fault::models::DetectionPlan &detection,
                  const fault::TrialConfig &config)
{
    interp::Interpreter interp_on(io.on->decodedModule());
    interp::Interpreter interp_off(io.off->decodedModule());
    std::uint32_t aux_on = 0, aux_off = 0;
    EXPECT_EQ(io.on->runTrialPlanned(plan, detection, config, interp_on,
                                     &aux_on),
              io.off->runTrialPlanned(plan, detection, config, interp_off,
                                      &aux_off));
    EXPECT_EQ(aux_on, aux_off);
}

TEST(SnapshotDifferential, EdgeAnchorsMatchFullReExecution)
{
    // Two seek edges for every pair: an anchor at value index 0 (the
    // hooks arm at the very first loop top of a run from entry) and an
    // anchor before the first snapshot (a seek miss, so the snapshot-on
    // trial also runs from entry, hook-free up to the anchor). The
    // stride-0 side never fuses, as in the scenario-pair test.
    const workloads::Workload *w = workloads::findWorkload("rawcaudio");
    ASSERT_NE(w, nullptr);
    const Prepared p = runPipeline(*w);
    const OnOff io =
        prepareOnOff(*p.module, p.report, w->entry, w->train_args, 2048,
                     interp::EngineKind::Decoded);
    ASSERT_TRUE(io.on->snapshotsActive());

    for (const std::string_view model : fault::models::faultModelNames()) {
        for (const std::string_view detector :
             fault::models::detectorNames()) {
            SCOPED_TRACE(std::string(model) + " + " +
                         std::string(detector));
            fault::TrialConfig config;
            config.dmax = 100;
            config.model = fault::models::findFaultModel(model);
            config.detector = fault::models::findDetector(detector);
            for (std::uint64_t seed = 0; seed < 8; ++seed) {
                Rng rng = Rng::forStream(77, seed);
                fault::models::InjectionPlan plan = config.model->draw(
                    rng, io.on->golden().value_instrs);
                const fault::models::DetectionPlan detection =
                    config.detector->draw(rng, config.dmax);
                for (const std::uint64_t anchor : {0ull, 100ull + seed}) {
                    SCOPED_TRACE("anchor " + std::to_string(anchor));
                    plan.target_value_index = anchor;
                    const std::uint64_t misses_before =
                        io.on->snapshotStats().misses;
                    expectPlanMatches(io, plan, detection, config);
                    EXPECT_EQ(io.on->snapshotStats().misses,
                              misses_before + 1);
                }
            }
        }
    }
}

/// A hand-instrumented region whose recovery is deliberately leaky:
/// the non-checkpointed counter @C survives a rollback, so the first
/// replay of the region takes the `boom` path into a wild load (a
/// runtime error, hence a second rollback) and the second replay
/// goes through. @C and every register the replays dirtied are reset
/// before the loop, so the trial reconverges with the golden run
/// there — unless r0 is 1, which leaves @D ahead until `done`.
///
/// Golden value indices: r1 = 0; region body 1..5 (r2..r6); the fault
/// target r9 = 6; r10 = 7; six resets 8..13; then 12 loop iterations
/// of four values from 14 (r11, r12, r1, r13); r14 = 62.
const char *kLeakyRegionText = R"(
module "m"
global @C 1
global @D 1
global @OUT 1
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp pre
  bb pre:
    region.enter 0
    jmp body
  bb body:
    r2 = load [@C]
    r3 = add r2, 1
    store [@C], r3
    r4 = load [@D]
    r5 = add r4, r0
    store [@D], r5
    r6 = cmpeq r3, 2
    br r6, boom, work
  bb boom:
    r7 = mov 64
    r8 = load [@OUT + r7]
    jmp work
  bb work:
    r9 = add r1, 5
    r10 = mul r9, 3
    store [@OUT], r10
    store [@C], 0
    r2 = mov 0
    r3 = mov 0
    r4 = mov 0
    r5 = mov 0
    r6 = mov 0
    r7 = mov 0
    jmp tailpre
  bb tailpre:
    region.enter 4294967295
    jmp loop
  bb loop:
    r11 = load [@OUT]
    r12 = add r11, r1
    store [@OUT], r12
    r1 = add r1, 1
    r13 = cmplt r1, 12
    br r13, loop, done
  bb done:
    store [@D], 0
    r14 = load [@OUT]
    ret r14
  bb __recover.0:
    restore 0
    jmp pre
}
)";

std::unique_ptr<ir::Module>
parseLeakyRegion()
{
    auto module = ir::parseModule(kLeakyRegionText);
    // Wire the recovery block into region.enter (the parser cannot
    // express the recovery-target link).
    ir::Function *f = module->functionByName("main");
    f->blockByName("pre")->instructions().front().setSucc0(
        f->blockByName("__recover.0"));
    return module;
}

/// Strikes r9 (value index 6) with detection at the next instruction:
/// a rollback, a runtime error in the first replay and a second
/// rollback, then the second replay. With stride 32 the only snapshot
/// sits at golden value count 32, at the loop's store, which the loop
/// also visits at counts 16, 20, 24 and 28 — so a resync barrier that
/// missed the second rollback's replay length would probe those too.
fault::FaultOutcome
runLeakyTrial(const fault::FaultInjector &injector,
              interp::Interpreter &interp)
{
    return injector.runTrialAt(6, 3, 0, fault::TrialConfig{}, interp);
}

TEST(SnapshotDifferential, SecondRollbackShiftsTheResyncBarrier)
{
    auto module = parseLeakyRegion();
    const EncoreReport report;
    const OnOff io = prepareOnOff(*module, report, "main", {0}, 32);
    ASSERT_TRUE(io.on->snapshotsActive());
    ASSERT_EQ(io.on->snapshotStats().count, 1u);

    interp::Interpreter interp_on(io.on->decodedModule());
    interp::Interpreter interp_off(io.off->decodedModule());
    const fault::FaultOutcome want = runLeakyTrial(*io.off, interp_off);
    EXPECT_EQ(want, fault::FaultOutcome::RecoveredCheckpoint);
    EXPECT_EQ(runLeakyTrial(*io.on, interp_on), want);

    // Both rollbacks' replay lengths shift the barrier: the trial
    // resyncs at the first and only probe, at the anchor's position.
    const interp::SnapshotStats stats = io.on->snapshotStats();
    EXPECT_EQ(stats.misses, 1u); // anchor 6 precedes the snapshot
    EXPECT_EQ(stats.resyncs, 1u);
    EXPECT_EQ(stats.resync_probes, 1u);
}

TEST(SnapshotDifferential, FailedResyncProbeFallsBackWithSameOutcome)
{
    // r0 = 1: @D is still ahead of the golden run's at the anchor, so
    // the predicted probe fails. The watch stays armed for the later
    // visits of the anchor's code position (all rejected), the trial
    // runs to completion, and `done` resets @D: the outcome is the
    // full run's.
    auto module = parseLeakyRegion();
    const EncoreReport report;
    const OnOff io = prepareOnOff(*module, report, "main", {1}, 32);
    ASSERT_TRUE(io.on->snapshotsActive());

    interp::Interpreter interp_on(io.on->decodedModule());
    interp::Interpreter interp_off(io.off->decodedModule());
    const fault::FaultOutcome want = runLeakyTrial(*io.off, interp_off);
    EXPECT_EQ(want, fault::FaultOutcome::RecoveredCheckpoint);
    EXPECT_EQ(runLeakyTrial(*io.on, interp_on), want);

    const interp::SnapshotStats stats = io.on->snapshotStats();
    EXPECT_EQ(stats.resyncs, 0u);
    EXPECT_GT(stats.resync_probes, 1u);
}

TEST(SnapshotDifferential, ResyncProbesOncePerResyncOnMpeg2dec)
{
    // The resync barrier sits where a converged replay reaches its
    // anchor, so nearly every resync takes exactly one probe of the
    // state-equality ladder. A barrier at the anchor's unshifted golden
    // count would probe at every visit of the anchor's instruction
    // during the replay, ~1,900 times per resync here.
    const workloads::Workload *w = workloads::findWorkload("mpeg2dec");
    ASSERT_NE(w, nullptr);
    const Prepared p = runPipeline(*w);
    fault::FaultInjector injector(*p.module, p.report);
    ASSERT_TRUE(injector.prepare(w->entry, w->train_args));
    ASSERT_TRUE(injector.snapshotsActive());

    fault::CampaignConfig cc;
    cc.trials = 3000;
    cc.seed = 1;
    cc.trial.dmax = 100;
    cc.model_masking = false;
    injector.runCampaign(cc);

    const interp::SnapshotStats stats = injector.snapshotStats();
    ASSERT_GT(stats.resyncs, 100u);
    EXPECT_LE(static_cast<double>(stats.resync_probes),
              1.01 * static_cast<double>(stats.resyncs))
        << stats.resync_probes << " probes for " << stats.resyncs
        << " resyncs";
}

TEST(SnapshotDifferential, AdaptiveStrideStaysWithinBudget)
{
    // Squeeze the byte budget until the store must either double its
    // stride or stop capturing; outcomes still must not change. Uses
    // the longest-running workload of the mediabench set to get many
    // barriers.
    const workloads::Workload *w = workloads::findWorkload("mpeg2enc");
    ASSERT_NE(w, nullptr);
    const Prepared p = runPipeline(*w);

    fault::FaultInjector off(*p.module, p.report);
    off.configureSnapshots(snapshotsOff());
    ASSERT_TRUE(off.prepare(w->entry, w->train_args));

    interp::SnapshotConfig tight;
    tight.stride = 1024;
    tight.byte_budget = 96 * 1024; // forces stride doubling early
    fault::FaultInjector on(*p.module, p.report);
    on.configureSnapshots(tight);
    ASSERT_TRUE(on.prepare(w->entry, w->train_args));

    if (on.snapshotsActive()) {
        const interp::SnapshotStats stats = on.snapshotStats();
        EXPECT_LE(stats.bytes, tight.byte_budget);
        EXPECT_GE(stats.stride, tight.stride);
    }

    fault::CampaignConfig cc;
    cc.trials = 25;
    cc.seed = 7;
    cc.trial.dmax = 250;
    cc.model_masking = false;
    const fault::CampaignResult a = on.runCampaign(cc);
    const fault::CampaignResult b = off.runCampaign(cc);
    for (int i = 0;
         i < static_cast<int>(fault::FaultOutcome::NumOutcomes); ++i)
        EXPECT_EQ(a.counts[i], b.counts[i]);
}

} // namespace
} // namespace encore
