/**
 * @file
 * Benchmark entry point (run through perfbench/run.py, which builds
 * this binary first):
 *
 *   perfbench --workload <sfi-fixed|sfi-served|config-sweep>
 *             --seed N --seconds S --trace 0|1 [--work-dir DIR]
 *
 * A run repeats identical timed passes for S seconds, setting the
 * workload up again after each (set-up time is the median), then runs the
 * oracles and exact-counter self-checks outside the timed phase. With
 * --trace 1 the timed phase is split: untraced passes for S/2 seconds,
 * then as many passes again with spans recorded; the per-layer metrics
 * come from the traced half and trace.overhead_frac compares the two.
 * The last line of stdout is the JSON result.
 */
#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "bench.h"
#include "support/build_info.h"

using namespace perfbench;

namespace {

constexpr int kInitialSetups = 3;
/// Timed passes per run, at least.
constexpr std::size_t kMinPasses = 3;
/// A run that has not finished by then is stuck (e.g. a served
/// campaign waiting for a worker that never arrived): fail it without
/// a result line rather than overrun the caller's limit.
constexpr std::chrono::seconds kWatchdog{170};

/// Ends the process with an error if it outlives kWatchdog.
class Watchdog
{
  public:
    Watchdog()
        : thread_([this] {
              std::unique_lock<std::mutex> lock(mutex_);
              if (!done_cv_.wait_for(lock, kWatchdog,
                                     [this] { return done_; })) {
                  std::cerr << "perfbench: run exceeded "
                            << kWatchdog.count() << " s; aborting\n";
                  std::_Exit(4);
              }
          })
    {
    }
    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            done_ = true;
        }
        done_cv_.notify_all();
        thread_.join();
    }
    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

  private:
    std::mutex mutex_;
    std::condition_variable done_cv_;
    bool done_ = false; // guarded by mutex_
    std::thread thread_;
};

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "<sfi-fixed|sfi-served|config-sweep> --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR]\n";
    return 2;
}

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    out = std::stoull(text);
    return true;
}

/// Exact counters must repeat across runs of the same source and seed:
/// the first run without a failure records them, later runs compare.
void
checkCountersAcrossRuns(const Options &options, const Counters &counters,
                        Report &report)
{
    const std::filesystem::path dir =
        std::filesystem::path(options.work_dir) / "counters";
    std::filesystem::create_directories(dir);
    const std::filesystem::path path =
        dir / (options.workload + "-seed" + std::to_string(options.seed) +
               "-" + encore::buildInfo().git_hash + ".txt");
    report.attempt(1);
    if (!std::filesystem::exists(path)) {
        if (report.failed() > 0) {
            std::cout << "counters: not recorded, the run has failures\n";
            return;
        }
        std::ofstream out(path);
        for (const auto &[name, value] : counters)
            out << name << " " << value << "\n";
        std::cout << "counters: recorded " << counters.size()
                  << " exact counters for later runs\n";
        return;
    }
    Counters recorded;
    std::ifstream in(path);
    std::string name;
    std::uint64_t value = 0;
    while (in >> name >> value)
        recorded[name] = value;
    if (recorded == counters) {
        std::cout << "counters: " << counters.size()
                  << " exact counters repeat the recorded run\n";
        return;
    }
    for (const auto &[key, want] : recorded) {
        const auto it = counters.find(key);
        if (it == counters.end() || it->second != want)
            std::cerr << "  " << key << ": recorded " << want << ", now "
                      << (it == counters.end() ? std::string("missing")
                                               : std::to_string(it->second))
                      << "\n";
    }
    report.fail("exact counters drifted from the recorded run " +
                path.string());
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.work_dir = ".bench_build/perfbench-work";
    std::uint64_t trace = 0;
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        std::uint64_t number = 0;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed" && parseUint(value, number)) {
            options.seed = number;
            have_seed = true;
        } else if (flag == "--seconds" && parseUint(value, number) &&
                   number > 0) {
            options.seconds = static_cast<double>(number);
            have_seconds = true;
        } else if (flag == "--trace" && parseUint(value, number) &&
                   number <= 1) {
            trace = number;
        } else if (flag == "--work-dir") {
            options.work_dir = value;
        } else {
            return usage("bad flag " + flag + " " + value);
        }
    }
    if (!have_seed || !have_seconds)
        return usage("--seed and --seconds are required");
    options.trace = trace == 1;

    std::unique_ptr<Workload> workload;
    if (options.workload == "sfi-fixed")
        workload = makeSfiFixed(options);
    else if (options.workload == "sfi-served")
        workload = makeSfiServed(options);
    else if (options.workload == "config-sweep")
        workload = makeConfigSweep(options);
    else
        return usage("unknown workload '" + options.workload + "'");

    // Provenance guard: only an optimized computed-goto build may
    // produce a result, so every recorded number is comparable.
    const encore::BuildInfo &build = encore::buildInfo();
    if (build.build_type != "Release" || !build.computed_goto) {
        std::cerr << "perfbench: refusing to measure a '"
                  << build.build_type << "' build with computed-goto "
                  << (build.computed_goto ? "on" : "off")
                  << "; build it with perfbench/run.py\n";
        return 3;
    }
    std::filesystem::create_directories(options.work_dir);
    std::cout << "provenance: {\"build\": " << encore::buildInfoJson()
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"jobs\": "
              << (options.workload == "sfi-served" ? "\"2 workers x 1\""
                                                    : "1")
              << ", \"seed\": " << options.seed << ", \"workload\": \""
              << options.workload << "\", \"seconds\": " << options.seconds
              << ", \"trace\": " << trace << "}\n";

    const Watchdog watchdog;
    Report report;
    Tracer &t = tracer();
    TraceWindow window;

    // --- Set-up, repeated; the median is setup_s. More set-ups follow
    // the untraced passes, so the samples span the whole run.
    std::vector<double> setup_s;
    const auto timedSetup = [&] {
        const Clock::time_point start = Clock::now();
        workload->setup();
        setup_s.push_back(secondsSince(start));
    };
    for (int i = 0; i < kInitialSetups; ++i)
        timedSetup();
    Counters counters;
    for (const auto &[name, value] : workload->setupCounters())
        counters["setup." + name] = value;

    // --- Timed passes.
    const double budget = options.trace ? options.seconds / 2.0
                                        : options.seconds;
    std::vector<PassResult> passes;
    const Clock::time_point timed_start = Clock::now();
    while (passes.size() < kMinPasses ||
           secondsSince(timed_start) < budget) {
        passes.push_back(workload->pass(false));
        timedSetup();
    }
    std::vector<PassResult> traced;
    if (options.trace) {
        t.setEnabled(true);
        window.setup_first = t.size();
        {
            ScopedSpan span("bench.setup", options.workload);
            workload->setup();
        }
        window.setup_last = window.passes_first = t.size();
        while (traced.size() < passes.size()) {
            ScopedSpan span("bench.pass", options.workload);
            traced.push_back(workload->pass(true));
        }
        window.passes_last = t.size();
        window.passes = traced.size();
        t.setEnabled(false);
    }
    const double peak_rss_mb = peakRssMb();

    // --- Exact counters: every pass repeats the first one.
    for (const auto &[name, value] : passes.front().counters)
        counters[name] = value;
    std::vector<PassResult> all = passes;
    all.insert(all.end(), traced.begin(), traced.end());
    for (std::size_t i = 0; i < all.size(); ++i) {
        report.attempt(all[i].trials);
        if (all[i].counters != passes.front().counters)
            report.fail("exact counters of pass " + std::to_string(i + 1) +
                        " differ from pass 1");
    }

    workload->check(report);
    checkCountersAcrossRuns(options, counters, report);
    std::cout << "counters: digest " << std::hex << digest(counters)
              << std::dec << " over " << counters.size() << " counters\n";

    // Every timed pass counts. Throughput and the median latency are
    // medians over passes of each pass's own figure. point_ms_p95 pools
    // every point of every pass, so stalls in a few passes reach it.
    // (Pooling would not do for the median: a sfi-served pass is 12
    // campaigns of a fixed program mix, so the pooled median falls in
    // the gap between the 6th and 7th campaign's latencies.)
    std::vector<double> trials_per_s, points_per_s, pass_p50, point_ms;
    for (const PassResult &p : passes) {
        trials_per_s.push_back(static_cast<double>(p.trials) / p.seconds);
        points_per_s.push_back(static_cast<double>(p.points) / p.seconds);
        pass_p50.push_back(median(p.point_ms));
        point_ms.insert(point_ms.end(), p.point_ms.begin(), p.point_ms.end());
    }
    std::cout << options.workload << ": " << setup_s.size()
              << " set-ups, " << passes.size() << " timed passes of "
              << passes.front().point_ms.size() << " points, "
              << point_ms.size() << " point latencies\npass seconds:";
    for (const PassResult &p : all)
        std::cout << " " << formatNumber(p.seconds);
    std::cout << "\n";

    if (!options.trace) {
        report.metric("trials_per_s", median(trials_per_s), "1/s");
        report.metric("points_per_s", median(points_per_s), "1/s");
        report.metric("point_ms_p50", median(pass_p50), "ms");
        report.metric("point_ms_p95", percentile(point_ms, 0.95), "ms");
        report.metric("setup_s", median(setup_s), "s");
        report.metric("peak_rss_mb", peak_rss_mb, "MB");
    } else {
        const double untimed_trial_s = workload->layerMetrics(report, window);
        double untraced_s = 0.0, traced_s = 0.0;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            untraced_s += passes[i].seconds;
            traced_s += traced[i].seconds;
        }
        report.metric("trace.overhead_frac", traced_s / untraced_s - 1.0,
                      "frac");
        // Self time of one set-up plus one pass, per layer; trials that
        // ran untimed inside campaign spans move to the fault layer.
        std::map<std::string, double> self =
            t.layerSelfSeconds(window.setup_first, window.setup_last);
        for (const auto &[layer, seconds] :
             t.layerSelfSeconds(window.passes_first, window.passes_last))
            self[layer] += seconds / static_cast<double>(window.passes);
        const double moved = std::min(untimed_trial_s, self["campaign"]);
        self["campaign"] -= moved;
        self["fault"] += moved;
        for (const char *layer :
             {"ir", "encore", "interp", "fault", "campaign"})
            report.metric(std::string(layer) + ".self_ms",
                          self[layer] * 1e3, "ms");
        const std::string trace_path =
            (std::filesystem::path(options.work_dir) /
             ("trace-" + options.workload + "-seed" +
              std::to_string(options.seed) + ".json"))
                .string();
        if (t.write(trace_path))
            std::cout << "trace: " << t.size() << " spans written to "
                      << trace_path << "\n";
        else
            report.fail("cannot write " + trace_path);
    }
    report.print();
    return report.failed() == 0 ? 0 : 1;
}
