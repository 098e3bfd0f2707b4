/**
 * @file
 * Workload sfi-served: the durable, distributed campaign path. Three
 * off-default scenario pairs (cf-branch + analytic, mem-bus + analytic,
 * multi-bit + replay) on four programs that span trial cost and
 * snapshot density (mpeg2dec, rawcaudio, cjpeg, pegwitenc). Each
 * campaign runs in process: CampaignService::serve with a durable
 * trial store, two runWorkerLoop workers at jobs=1 over loopback, then
 * a read-back of the finished store with readTrialStore.
 */
#include <filesystem>
#include <fstream>
#include <latch>
#include <thread>

#include "bench.h"
#include "campaign/runner.h"
#include "campaign/service.h"
#include "interp/interpreter.h"
#include "support/checksum.h"
#include "support/rng.h"

namespace perfbench {

using namespace encore;

namespace {

constexpr std::uint64_t kTrials = 14400;
constexpr std::uint64_t kDmax = 100;
/// Store records per campaign re-executed by the trial oracle.
constexpr std::size_t kOracleRecords = 64;
const char *const kPrograms[] = {"mpeg2dec", "rawcaudio", "cjpeg",
                                 "pegwitenc"};
const char *const kPairs[][2] = {{"cf-branch", "analytic"},
                                 {"mem-bus", "analytic"},
                                 {"multi-bit", "replay"}};

struct WorkerRun
{
    bool handshake_ok = false;
    campaign::WorkerSummary summary;
    double handshake_s = 0.0;
    double loop_s = 0.0;
    Clock::time_point end;
};

/// What one served campaign left behind.
struct Served
{
    fault::CampaignResult result;
    std::vector<campaign::TrialRecord> records;
    std::uint64_t store_bytes = 0;
    double serve_s = 0.0;
    double read_s = 0.0;
    double tail_s = 0.0;
    WorkerRun workers[2];
    campaign::ServiceSummary summary;
    std::vector<std::string> failures;
};

class SfiServed : public Workload
{
  public:
    explicit SfiServed(const Options &options)
        : options_(options),
          dir_(std::filesystem::path(options.work_dir) / "served")
    {
    }

    void
    setup() override
    {
        programs_.clear();
        for (const char *name : kPrograms)
            programs_.push_back(prepareProgram(
                *workloads::findWorkload(name), EncoreConfig{}, name));
    }

    Counters
    setupCounters() const override
    {
        Counters counters;
        PrepStats stats;
        for (const auto &program : programs_)
            stats.add(*program);
        stats.addCounters(counters);
        return counters;
    }

    PassResult
    pass(bool traced) override
    {
        std::filesystem::create_directories(dir_);
        PassResult out;
        SnapshotCounts before;
        for (const auto &program : programs_)
            if (program->golden_ok)
                before.add(*program->injector);
        fault::CampaignResult total;
        std::uint64_t campaign_digest = fnv1a64("sfi-served");
        std::uint64_t store_bytes = 0;
        std::vector<Served> served;
        const Clock::time_point start = Clock::now();
        for (const auto &program : programs_) {
            if (!program->golden_ok)
                continue;
            for (const auto &pair : kPairs) {
                const Clock::time_point t0 = Clock::now();
                served.push_back(serveCampaign(*program, pair));
                out.point_ms.push_back(secondsSince(t0) * 1e3);
                const Served &s = served.back();
                out.trials += s.result.trials;
                ++out.points;
                store_bytes += s.store_bytes;
                addResult(total, s.result);
                campaign_digest = mixResult(campaign_digest, s.result);
            }
        }
        out.seconds = secondsSince(start);
        SnapshotCounts after;
        for (const auto &program : programs_)
            if (program->golden_ok)
                after.add(*program->injector);
        addTallies(out.counters, "tally.", total);
        out.counters["campaign.digest"] = campaign_digest;
        out.counters["campaign.store.bytes"] = store_bytes;
        after.minus(before).addCounters(out.counters);
        if (first_pass_.empty())
            first_pass_ = served;
        for (const Served &s : served)
            failures_.insert(failures_.end(), s.failures.begin(),
                             s.failures.end());
        if (traced) {
            traced_snap_ = after.minus(before);
            for (const Served &s : served) {
                serve_s_ += s.serve_s;
                read_s_ += s.read_s;
                tail_s_ += s.tail_s;
                store_bytes_ += s.store_bytes;
                duplicates_ += s.summary.duplicates;
                reissued_ += s.summary.leases_reissued;
                const std::uint64_t a = s.workers[0].summary.executed;
                const std::uint64_t b = s.workers[1].summary.executed;
                balance_.push_back(
                    std::max(a, b) ? static_cast<double>(std::min(a, b)) /
                                         static_cast<double>(std::max(a, b))
                                   : 0.0);
                for (const WorkerRun &w : s.workers) {
                    worker_s_ += w.loop_s;
                    handshake_s_ += w.handshake_s;
                    leases_ += w.summary.leases;
                }
            }
        }
        return out;
    }

    void
    check(Report &report) override
    {
        for (const std::string &why : failures_)
            report.fail(why);
        for (const auto &program : programs_)
            report.attempt(checkGolden(*program, report));

        // A seeded sample of store records per campaign, re-executed
        // from program entry with snapshots off, must reproduce the
        // recorded outcome and replay cost of each trial.
        Rng rng(campaignSeed(options_.seed, "sfi-served", "oracle"));
        std::size_t index = 0;
        for (const auto &program : programs_) {
            if (!program->golden_ok)
                continue;
            const auto full = fullRerunInjector(*program);
            if (!full) {
                report.attempt(1);
                report.fail("snapshot-off golden run failed for " +
                            program->id);
                index += std::size(kPairs);
                continue;
            }
            interp::Interpreter interp(full->decodedModule());
            for (const auto &pair : kPairs) {
                const Served &s = first_pass_.at(index++);
                const fault::CampaignConfig config =
                    campaignConfig(*program, pair);
                for (std::size_t k = 0;
                     k < kOracleRecords && !s.records.empty(); ++k) {
                    const campaign::TrialRecord &record =
                        s.records[rng.below(s.records.size())];
                    report.attempt(1);
                    std::uint32_t aux = 0;
                    const auto outcome = full->runCampaignTrial(
                        record.trial, config, interp, aux);
                    if (static_cast<std::uint32_t>(outcome) !=
                            record.outcome ||
                        aux != record.aux)
                        report.fail(
                            "store record for trial " +
                            std::to_string(record.trial) + " of " +
                            program->id + " " + pair[0] + "+" + pair[1] +
                            " differs from snapshot-off re-execution");
                }
            }
        }
    }

    double
    layerMetrics(Report &report, const TraceWindow &window) override
    {
        PrepStats prep;
        for (const auto &program : programs_)
            prep.add(*program);
        prepMetrics(report, prep, window.setup_first, window.setup_last,
                    1.0);

        // Trials inside runWorkerLoop cannot be timed from outside, so
        // every trial of one pass is re-run through runCampaignTrial on
        // the same injectors, timed per call. Its busy time stands for
        // the trial execution inside the traced worker spans.
        TrialStats probe;
        fault::CampaignResult total;
        for (const auto &program : programs_) {
            if (!program->golden_ok)
                continue;
            for (const auto &pair : kPairs)
                addResult(total, runTimedTrials(
                                     *program->injector,
                                     campaignConfig(*program, pair),
                                     program->id, probe));
        }
        trialMetrics(report, probe,
                     total.trials - total.count(fault::FaultOutcome::Masked),
                     total.trials, total.replay_cost, traced_snap_, 1.0);
        plannerMetricsUnused(report);

        const double per = static_cast<double>(window.passes);
        report.metric("campaign.store.bytes",
                      static_cast<double>(store_bytes_) / per, "B");
        report.metric("campaign.store.read_ms", read_s_ * 1e3 / per, "ms");
        report.metric("campaign.service.serve_s", serve_s_ / per, "s");
        report.metric("campaign.service.worker_s", worker_s_ / per, "s");
        report.metric("campaign.service.handshake_ms",
                      handshake_s_ * 1e3 / per, "ms");
        report.metric("campaign.service.tail_ms", tail_s_ * 1e3 / per, "ms");
        report.metric("campaign.service.balance", median(balance_), "frac");
        report.metric("campaign.service.leases",
                      static_cast<double>(leases_) / per, "count");
        report.metric("campaign.service.duplicates",
                      static_cast<double>(duplicates_) / per, "count");
        report.metric("campaign.service.leases_reissued",
                      static_cast<double>(reissued_) / per, "count");
        return probe.busy_s;
    }

  private:
    fault::CampaignConfig
    campaignConfig(const Program &program, const char *const pair[2]) const
    {
        fault::CampaignConfig config;
        config.trials = kTrials;
        config.seed = campaignSeed(options_.seed, program.id,
                                   std::string(pair[0]) + "+" + pair[1]);
        config.jobs = 1;
        config.trial.dmax = kDmax;
        config.masking_rate = fault::MaskingModel::kArm926Rate;
        config.trial.model = fault::models::findFaultModel(pair[0]);
        config.trial.detector = fault::models::findDetector(pair[1]);
        return config;
    }

    Served
    serveCampaign(const Program &program, const char *const pair[2])
    {
        const std::string id =
            program.id + "/" + pair[0] + "+" + pair[1];
        ScopedSpan span("bench.campaign", id);
        const fault::CampaignConfig config = campaignConfig(program, pair);
        const fault::FaultInjector &injector = *program.injector;

        campaign::CampaignSpec spec;
        spec.workload = program.workload->name;
        spec.seed = config.seed;
        spec.trials = config.trials;
        spec.dmax = config.trial.dmax;
        spec.run_budget_factor = config.trial.run_budget_factor;
        spec.masking_rate = config.masking_rate;
        spec.model_masking = config.model_masking;
        spec.fault_model =
            static_cast<std::uint32_t>(config.trial.model->id());
        spec.detector =
            static_cast<std::uint32_t>(config.trial.detector->id());
        spec.config_fingerprint =
            campaign::campaignFingerprint(injector, config);
        spec.module_hash = injector.moduleHash();

        campaign::StoreHeader header;
        header.config_fingerprint = spec.config_fingerprint;
        header.module_hash = spec.module_hash;
        header.seed = config.seed;
        header.total_trials = config.trials;
        header.fault_model_id = spec.fault_model;
        header.detector_id = spec.detector;

        const std::string stem =
            (dir_ / (program.id + "-" + pair[0] + "-" + pair[1])).string();
        campaign::ServiceOptions service_options;
        service_options.store_path = stem + ".trials";
        service_options.port_file = stem + ".port";
        service_options.label = id;
        std::filesystem::remove(service_options.store_path);
        std::filesystem::remove(service_options.port_file);

        Served out;
        const Clock::time_point start = Clock::now();
        Clock::time_point serve_end;
        campaign::CampaignService service(spec, header, service_options);
        std::thread coordinator([&, parent = span.index()] {
            ScopedSpan serve_span("campaign.service.serve", id, parent);
            out.summary = service.serve();
            serve_end = Clock::now();
        });

        std::string address;
        const Clock::time_point wait_start = Clock::now();
        while (address.empty() && secondsSince(wait_start) < 30.0) {
            std::ifstream in(service_options.port_file);
            if (!(in >> address))
                std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        const std::size_t colon = address.rfind(':');
        const std::string host = address.substr(0, colon);
        const auto port = static_cast<std::uint16_t>(
            colon == std::string::npos
                ? 0
                : std::stoul(address.substr(colon + 1)));

        // Both workers enrol before either asks for work, so neither
        // can drain the campaign alone.
        std::latch enrolled(2);
        std::vector<std::thread> workers;
        for (int w = 0; w < 2; ++w) {
            workers.emplace_back([&, w, parent = span.index()] {
                WorkerRun &run = out.workers[w];
                std::string error;
                Socket socket = Socket::connectTo(host, port, &error);
                campaign::FrameReader reader;
                {
                    ScopedSpan hs("campaign.service.handshake", id, parent);
                    const Clock::time_point t0 = Clock::now();
                    const auto got =
                        socket.valid()
                            ? campaign::workerHandshake(
                                  socket, reader, "worker" + std::to_string(w),
                                  std::chrono::seconds(30))
                            : std::nullopt;
                    run.handshake_s = secondsSince(t0);
                    run.handshake_ok =
                        got && got->config_fingerprint ==
                                   spec.config_fingerprint &&
                        got->module_hash == spec.module_hash;
                }
                enrolled.arrive_and_wait();
                if (run.handshake_ok) {
                    ScopedSpan ws("campaign.service.worker", id, parent);
                    const Clock::time_point t0 = Clock::now();
                    campaign::WorkerOptions worker_options;
                    worker_options.jobs = 1;
                    run.summary = campaign::runWorkerLoop(
                        socket, reader, injector, config, worker_options);
                    run.loop_s = secondsSince(t0);
                }
                run.end = Clock::now();
            });
        }
        for (std::thread &worker : workers)
            worker.join();
        coordinator.join();
        out.serve_s = std::chrono::duration<double>(serve_end - start).count();
        out.tail_s = std::chrono::duration<double>(
                         serve_end - std::min(out.workers[0].end,
                                              out.workers[1].end))
                         .count();

        campaign::StoreContents contents;
        std::optional<std::string> error;
        {
            ScopedSpan read_span("campaign.store.read", id);
            const Clock::time_point t0 = Clock::now();
            error = campaign::readTrialStore(service_options.store_path,
                                             contents);
            out.read_s = secondsSince(t0);
        }
        out.store_bytes =
            std::filesystem::file_size(service_options.store_path);
        for (const campaign::TrialRecord &record : contents.records) {
            if (record.outcome < static_cast<std::uint32_t>(
                                     fault::FaultOutcome::NumOutcomes))
                ++out.result.counts[record.outcome];
            ++out.result.trials;
            out.result.replay_cost += record.aux;
        }
        out.records = std::move(contents.records);

        auto failed = [&](const std::string &why) {
            out.failures.push_back(id + ": " + why);
        };
        if (error)
            failed("store unreadable: " + *error);
        if (contents.dropped_bytes > 0)
            failed("store has a torn tail");
        if (!out.summary.complete || out.result.trials != config.trials)
            failed(std::to_string(config.trials - out.result.trials) +
                   " trials unrecorded");
        const std::string diff = compareTallies(out.summary.result, out.result);
        if (!diff.empty())
            failed("store read-back differs from the served aggregate: " +
                   diff);
        if (out.summary.workers_lost > 0)
            failed("workers lost");
        if (out.summary.leases_reissued > 0)
            failed(std::to_string(out.summary.leases_reissued) +
                   " leases re-issued");
        for (const WorkerRun &w : out.workers)
            if (!w.handshake_ok || !w.summary.drained)
                failed("a worker failed its handshake or was not drained");
        return out;
    }

    Options options_;
    std::filesystem::path dir_;
    std::vector<std::unique_ptr<Program>> programs_;
    std::vector<Served> first_pass_;
    std::vector<std::string> failures_;
    SnapshotCounts traced_snap_;
    double serve_s_ = 0.0, worker_s_ = 0.0, handshake_s_ = 0.0;
    double read_s_ = 0.0, tail_s_ = 0.0;
    std::uint64_t store_bytes_ = 0, leases_ = 0, duplicates_ = 0,
                  reissued_ = 0;
    std::vector<double> balance_;
};

} // namespace

std::unique_ptr<Workload>
makeSfiServed(const Options &options)
{
    return std::make_unique<SfiServed>(options);
}

} // namespace perfbench
