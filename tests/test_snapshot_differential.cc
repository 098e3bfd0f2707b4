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
 *
 * Replay certificates (interp/replay_profile.h) go one step further:
 * they end a long replay at region re-entry. Their tests run the same
 * injector with and without profiles and require every trial to end
 * identically — outcome, replay cost, golden resync and resync probe
 * count — so a certificate may only prove what the watch would have
 * found.
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

// ---- Replay certificates ---------------------------------------------

/// Everything one trial exposes, including how it ended: whether it
/// resynced and how many resync probes it took (read from the
/// injector's counters around the call).
struct TrialTrace
{
    fault::FaultOutcome outcome = fault::FaultOutcome::Masked;
    std::uint32_t aux = 0;
    std::uint64_t resyncs = 0;
    std::uint64_t probes = 0;

    bool operator==(const TrialTrace &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const TrialTrace &t)
{
    return os << outcomeName(t.outcome) << " aux " << t.aux << " resyncs "
              << t.resyncs << " probes " << t.probes;
}

template <typename Run>
TrialTrace
traceTrial(const fault::FaultInjector &injector, Run &&run)
{
    const interp::SnapshotStats before = injector.snapshotStats();
    TrialTrace trace;
    trace.outcome = run(trace.aux);
    const interp::SnapshotStats after = injector.snapshotStats();
    trace.resyncs = after.resyncs - before.resyncs;
    trace.probes = after.resync_probes - before.resync_probes;
    return trace;
}

/// Counter deltas of one campaign.
interp::SnapshotStats
campaignDelta(const fault::FaultInjector &injector,
              const fault::CampaignConfig &cc, fault::CampaignResult &out)
{
    const interp::SnapshotStats before = injector.snapshotStats();
    out = injector.runCampaign(cc);
    interp::SnapshotStats delta = injector.snapshotStats();
    delta.hits -= before.hits;
    delta.misses -= before.misses;
    delta.resyncs -= before.resyncs;
    delta.resync_probes -= before.resync_probes;
    delta.replay_skips -= before.replay_skips;
    return delta;
}

/// Runs every trial of `cc` on one injector with and without replay
/// profiles (per trial, then in aggregate at jobs 1 and 4) and requires
/// identical traces. Returns the skips proven with profiles at jobs 1.
std::uint64_t
expectProfilesInvisible(fault::FaultInjector &injector,
                        fault::CampaignConfig cc)
{
    interp::Interpreter interp(injector.decodedModule());
    for (std::uint64_t t = 0; t < cc.trials; ++t) {
        TrialTrace traces[2];
        for (const bool profiles : {true, false}) {
            injector.setReplayProfilesForTesting(profiles);
            traces[profiles] = traceTrial(injector, [&](std::uint32_t &aux) {
                return injector.runCampaignTrial(t, cc, interp, aux);
            });
        }
        EXPECT_EQ(traces[true], traces[false]) << "trial " << t;
    }

    std::uint64_t skips = 0;
    for (const std::size_t jobs : {1u, 4u}) {
        cc.jobs = jobs;
        fault::CampaignResult a, b;
        injector.setReplayProfilesForTesting(true);
        const interp::SnapshotStats with = campaignDelta(injector, cc, a);
        injector.setReplayProfilesForTesting(false);
        const interp::SnapshotStats without = campaignDelta(injector, cc, b);
        EXPECT_EQ(without.replay_skips, 0u);
        EXPECT_EQ(a.replay_cost, b.replay_cost) << "jobs " << jobs;
        for (int i = 0;
             i < static_cast<int>(fault::FaultOutcome::NumOutcomes); ++i)
            EXPECT_EQ(a.counts[i], b.counts[i])
                << "jobs " << jobs << ", outcome "
                << outcomeName(static_cast<fault::FaultOutcome>(i));
        EXPECT_EQ(with.resyncs, without.resyncs) << "jobs " << jobs;
        EXPECT_EQ(with.resync_probes, without.resync_probes)
            << "jobs " << jobs;
        EXPECT_EQ(with.hits, without.hits) << "jobs " << jobs;
        EXPECT_EQ(with.misses, without.misses) << "jobs " << jobs;
        if (jobs == 1)
            skips = with.replay_skips;
        else
            EXPECT_EQ(with.replay_skips, skips) << "jobs " << jobs;
    }
    injector.setReplayProfilesForTesting(true);
    return skips;
}

std::unique_ptr<fault::FaultInjector>
preparedInjector(const Prepared &p, const workloads::Workload &w)
{
    auto injector = std::make_unique<fault::FaultInjector>(*p.module,
                                                           p.report);
    EXPECT_TRUE(injector->prepare(w.entry, w.train_args));
    return injector;
}

TEST(ReplayCertificate, InvisibleOnAllWorkloads)
{
    // Default pair, default snapshot stride: only replays at least one
    // stride long ask for a profile, so this is the configuration the
    // certificates were built for.
    std::uint64_t skips = 0;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        const Prepared p = runPipeline(w);
        const auto injector = preparedInjector(p, w);
        fault::CampaignConfig cc;
        cc.trials = 80;
        cc.seed = 20261019;
        cc.trial.dmax = 100;
        cc.model_masking = false;
        skips += expectProfilesInvisible(*injector, cc);
    }
    // The comparison only bites where certificates fire.
    EXPECT_GT(skips, 100u);
}

TEST(ReplayCertificate, InvisibleOnAllScenarioPairs)
{
    for (const char *name : {"mpeg2dec", "rawcaudio", "g721encode", "cjpeg"}) {
        SCOPED_TRACE(name);
        const workloads::Workload *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr);
        const Prepared p = runPipeline(*w);
        const auto injector = preparedInjector(p, *w);
        std::uint64_t skips = 0;
        for (const std::string_view model :
             fault::models::faultModelNames()) {
            for (const std::string_view detector :
                 fault::models::detectorNames()) {
                SCOPED_TRACE(std::string(model) + " + " +
                             std::string(detector));
                fault::CampaignConfig cc;
                cc.trials = 40;
                cc.seed = 20261020;
                cc.trial.dmax = 100;
                cc.trial.model = fault::models::findFaultModel(model);
                cc.trial.detector = fault::models::findDetector(detector);
                cc.model_masking = false;
                skips += expectProfilesInvisible(*injector, cc);
            }
        }
        EXPECT_GT(skips, 0u);
    }
}

TEST(ReplayCertificate, CountersOnMpeg2dec)
{
    // mpeg2dec's idempotent regions are whole loop nests: nearly every
    // resync follows a replay at least one stride long, and those all
    // roll back into a couple of region instances. The first rollbacks
    // of the jobs=4 campaign race on the lazy build of one profile (the
    // TSan lane runs this test); the counters must not depend on it.
    const workloads::Workload *w = workloads::findWorkload("mpeg2dec");
    ASSERT_NE(w, nullptr);
    const Prepared p = runPipeline(*w);

    fault::CampaignConfig cc;
    cc.trials = 8000;
    cc.seed = 1;
    cc.trial.dmax = 100;
    interp::SnapshotStats stats[2];
    fault::CampaignResult results[2];
    for (const std::size_t jobs : {1u, 4u}) {
        const auto injector = preparedInjector(p, *w);
        cc.jobs = jobs;
        results[jobs == 4] = injector->runCampaign(cc);
        stats[jobs == 4] = injector->snapshotStats();
    }
    const interp::SnapshotStats &s = stats[0];
    ASSERT_GT(s.resyncs, 100u);
    EXPECT_GE(s.replay_profiles, 1u);
    EXPECT_LE(s.replay_profiles, 3u);
    EXPECT_GE(static_cast<double>(s.replay_skips),
              0.9 * static_cast<double>(s.resyncs))
        << s.replay_skips << " skips for " << s.resyncs << " resyncs";
    EXPECT_EQ(stats[1].replay_profiles, s.replay_profiles);
    EXPECT_EQ(stats[1].replay_skips, s.replay_skips);
    EXPECT_EQ(stats[1].resyncs, s.resyncs);
    EXPECT_EQ(stats[1].resync_probes, s.resync_probes);
    for (int i = 0; i < static_cast<int>(fault::FaultOutcome::NumOutcomes);
         ++i)
        EXPECT_EQ(results[1].counts[i], results[0].counts[i]);
}

TEST(ReplayCertificate, BudgetProjectionRefuses)
{
    // At run_budget_factor 1 a run may exceed the golden length by only
    // 10,000 instructions, less than mpeg2dec's long replays re-execute:
    // the projected total trips the budget, the trial ends in
    // InstructionLimit, and a certificate must refuse it exactly where
    // the watch would.
    const workloads::Workload *w = workloads::findWorkload("mpeg2dec");
    ASSERT_NE(w, nullptr);
    const Prepared p = runPipeline(*w);
    const OnOff io =
        prepareOnOff(*p.module, p.report, w->entry, w->train_args, 1024);

    fault::CampaignConfig cc;
    cc.trials = 60;
    cc.seed = 3;
    cc.trial.dmax = 100;
    cc.model_masking = false;
    fault::CampaignResult roomy;
    const interp::SnapshotStats roomy_stats =
        campaignDelta(*io.on, cc, roomy);

    cc.trial.run_budget_factor = 1.0;
    const fault::CampaignResult tight = expectCampaignsMatch(io, cc);
    expectProfilesInvisible(*io.on, cc);
    fault::CampaignResult again;
    const interp::SnapshotStats tight_stats =
        campaignDelta(*io.on, cc, again);
    EXPECT_GT(tight.count(fault::FaultOutcome::NotRecoverable),
              roomy.count(fault::FaultOutcome::NotRecoverable));
    EXPECT_LT(tight_stats.replay_skips, roomy_stats.replay_skips);
}

/// A hand-instrumented region for the certificate's refusals. The
/// non-checkpointed counter @C survives a rollback, so the first
/// re-entry differs from the golden entry in a word the golden run
/// reads before rewriting (refused), and the first replay takes the
/// `boom` path: it puts @C back, writes r30 = r0 & 1, @Y = (r0 >> 1) & 1
/// and @Z = r0 >> 2, and dies on a wild load — a runtime error, hence a
/// second rollback and a second check. With r0 = 0 that check passes.
/// With r0 = 1, r30 differs and the golden run writes it only after the
/// anchor (refused); with r0 = 4 the same holds for @Z. With r0 = 2, @Y
/// differs and the golden run's first access to it is `ckpt.mem`
/// (refused: a checkpoint reads).
///
/// Golden value indices: r1 = 0; the entry E at count 1; body 1..9;
/// r7, r9 (the fault target), r10 at 10..12; six r11 at 13..18 (a stride
/// of 8 puts the anchor, the snapshot at count 16, among them); r30 at
/// 19, inside the profile's window; the loop from 20.
const char *kReplayRegionText = R"(
module "m"
global @C 1
global @Y 1
global @Z 1
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
    r4 = add r1, 1
    r4 = add r4, 1
    r4 = add r4, 1
    r4 = add r4, 1
    r4 = add r4, 1
    r4 = add r4, 1
    r6 = cmpeq r3, 2
    br r6, boom, work
  bb boom:
    store [@C], 0
    r30 = and r0, 1
    r7 = shr r0, 1
    r7 = and r7, 1
    store [@Y], r7
    r7 = shr r0, 2
    store [@Z], r7
    r7 = mov 64
    r8 = load [@OUT + r7]
    jmp work
  bb work:
    r7 = mov 0
    r9 = add r1, 5
    r10 = mul r9, 3
    ckpt.mem [@Y]
    store [@Y], r10
    r11 = add r10, 1
    r11 = add r11, 1
    r11 = add r11, 1
    r11 = add r11, 1
    r11 = add r11, 1
    r11 = add r11, 1
    store [@OUT], r11
    r30 = mov 0
    store [@Z], r30
    jmp tailpre
  bb tailpre:
    region.enter 4294967295
    jmp loop
  bb loop:
    r12 = load [@OUT]
    r13 = add r12, r1
    store [@OUT], r13
    r1 = add r1, 1
    r14 = cmplt r1, 12
    br r14, loop, done
  bb done:
    r15 = load [@OUT]
    ret r15
  bb __recover.0:
    restore 0
    jmp pre
}
)";

/// Strikes r9 (value index 11) with detection at the next instruction.
/// Both replays are longer than the stride of 8, and both rollbacks
/// anchor at the snapshot at count 16.
TrialTrace
runReplayRegionTrial(const fault::FaultInjector &injector,
                     interp::Interpreter &interp)
{
    return traceTrial(injector, [&](std::uint32_t &aux) {
        aux = 0;
        return injector.runTrialAt(11, 3, 0, fault::TrialConfig{}, interp);
    });
}

/// The trial on the region above with argument `r0`, with profiles,
/// without, and at stride 0; returns the profile counters.
interp::SnapshotStats
expectReplayRegionMatches(std::uint64_t r0, TrialTrace &trace)
{
    auto module = ir::parseModule(kReplayRegionText);
    ir::Function *f = module->functionByName("main");
    f->blockByName("pre")->instructions().front().setSucc0(
        f->blockByName("__recover.0"));
    const EncoreReport report;
    const OnOff io = prepareOnOff(*module, report, "main", {r0}, 8);
    EXPECT_TRUE(io.on->snapshotsActive());

    interp::Interpreter interp_on(io.on->decodedModule());
    interp::Interpreter interp_off(io.off->decodedModule());
    const TrialTrace full = runReplayRegionTrial(*io.off, interp_off);
    EXPECT_EQ(full.outcome, fault::FaultOutcome::RecoveredCheckpoint);
    io.on->setReplayProfilesForTesting(false);
    const TrialTrace without = runReplayRegionTrial(*io.on, interp_on);
    const interp::SnapshotStats before = io.on->snapshotStats();
    io.on->setReplayProfilesForTesting(true);
    trace = runReplayRegionTrial(*io.on, interp_on);
    EXPECT_EQ(trace.outcome, full.outcome);
    EXPECT_EQ(trace, without);
    interp::SnapshotStats stats = io.on->snapshotStats();
    stats.replay_skips -= before.replay_skips;
    return stats;
}

TEST(ReplayCertificate, SecondCheckAfterRuntimeErrorPasses)
{
    // Check 1 refuses @C (read before rewritten, left at 1); the replay
    // dies on the wild load and rolls back again; check 2 finds only
    // write-first differences and proves the resync, as the one probe
    // the watch would have taken.
    TrialTrace trace;
    const interp::SnapshotStats stats = expectReplayRegionMatches(0, trace);
    EXPECT_EQ(stats.replay_profiles, 1u);
    EXPECT_EQ(stats.replay_skips, 1u);
    EXPECT_EQ(trace.resyncs, 1u);
    EXPECT_EQ(trace.probes, 1u);
}

TEST(ReplayCertificate, RegisterWrittenAfterAnchorRefuses)
{
    TrialTrace trace;
    const interp::SnapshotStats stats = expectReplayRegionMatches(1, trace);
    EXPECT_EQ(stats.replay_profiles, 1u);
    EXPECT_EQ(stats.replay_skips, 0u);
    EXPECT_EQ(trace.resyncs, 0u);
}

TEST(ReplayCertificate, CheckpointReadRefuses)
{
    TrialTrace trace;
    const interp::SnapshotStats stats = expectReplayRegionMatches(2, trace);
    EXPECT_EQ(stats.replay_profiles, 1u);
    EXPECT_EQ(stats.replay_skips, 0u);
    EXPECT_EQ(trace.resyncs, 0u);
}

TEST(ReplayCertificate, WordWrittenAfterAnchorRefuses)
{
    TrialTrace trace;
    const interp::SnapshotStats stats = expectReplayRegionMatches(4, trace);
    EXPECT_EQ(stats.replay_profiles, 1u);
    EXPECT_EQ(stats.replay_skips, 0u);
    EXPECT_EQ(trace.resyncs, 0u);
}

} // namespace
} // namespace encore
