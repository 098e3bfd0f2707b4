#include "program.h"

#include <fstream>

#include "interp/reference.h"
#include "support/checksum.h"
#include "trace.h"

namespace perfbench {

using namespace encore;

std::unique_ptr<Program>
prepareProgram(const workloads::Workload &workload, EncoreConfig config,
               const std::string &id)
{
    auto program = std::make_unique<Program>();
    program->workload = &workload;
    program->id = id;
    for (const std::string &name : workload.opaque)
        config.opaque_functions.insert(name);
    {
        ScopedSpan span("ir.build", id);
        program->module = workload.build();
    }
    {
        std::unique_ptr<AnalysisBase> base;
        {
            ScopedSpan span("encore.profile", id);
            base = std::make_unique<AnalysisBase>(
                *program->module,
                std::vector<RunSpec>{
                    RunSpec{workload.entry, workload.train_args}},
                config.profile_max_instrs, 1);
        }
        AnalysisCache cache(*base);
        ScopedSpan span("encore.run_config", id);
        program->report =
            runConfig(*base, config, &cache, &program->phases).report;
        program->cache = cache.stats();
    }
    {
        ScopedSpan span("interp.decode", id);
        program->injector = std::make_unique<fault::FaultInjector>(
            *program->module, program->report);
    }
    ScopedSpan span("interp.golden", id);
    program->golden_ok =
        program->injector->prepare(workload.entry, workload.train_args);
    return program;
}

std::unique_ptr<fault::FaultInjector>
fullRerunInjector(const Program &program)
{
    auto injector = std::make_unique<fault::FaultInjector>(
        *program.module, program.report);
    interp::SnapshotConfig off;
    off.enabled = false;
    off.stride = 0;
    injector->configureSnapshots(off);
    if (!injector->prepare(program.workload->entry,
                           program.workload->train_args))
        return nullptr;
    return injector;
}

std::uint64_t
campaignSeed(std::uint64_t seed, const std::string &program,
             const std::string &tag)
{
    std::uint64_t h = fnv1a64Mix(seed, fnv1a64("perfbench-seed"));
    h = fnv1a64(program, h);
    return fnv1a64(tag, h);
}

void
addResult(fault::CampaignResult &total, const fault::CampaignResult &result)
{
    for (int i = 0; i < static_cast<int>(fault::FaultOutcome::NumOutcomes);
         ++i)
        total.counts[i] += result.counts[i];
    total.trials += result.trials;
    total.replay_cost += result.replay_cost;
}

std::uint64_t
mixResult(std::uint64_t h, const fault::CampaignResult &result)
{
    for (const std::uint64_t count : result.counts)
        h = fnv1a64Mix(count, h);
    return fnv1a64Mix(result.replay_cost, h);
}

void
addTallies(Counters &counters, const std::string &prefix,
           const fault::CampaignResult &result)
{
    for (int i = 0; i < static_cast<int>(fault::FaultOutcome::NumOutcomes);
         ++i)
        counters[prefix +
                 std::string(fault::outcomeName(
                     static_cast<fault::FaultOutcome>(i)))] +=
            result.counts[i];
    counters[prefix + "replay_cost"] += result.replay_cost;
}

std::string
compareTallies(const fault::CampaignResult &want,
               const fault::CampaignResult &got)
{
    if (want.trials != got.trials)
        return "trials " + std::to_string(want.trials) + " vs " +
               std::to_string(got.trials);
    for (int i = 0; i < static_cast<int>(fault::FaultOutcome::NumOutcomes);
         ++i)
        if (want.counts[i] != got.counts[i])
            return std::string(fault::outcomeName(
                       static_cast<fault::FaultOutcome>(i))) +
                   " " + std::to_string(want.counts[i]) + " vs " +
                   std::to_string(got.counts[i]);
    if (want.replay_cost != got.replay_cost)
        return "replay cost " + std::to_string(want.replay_cost) +
               " vs " + std::to_string(got.replay_cost);
    return "";
}

interp::RunResult
referenceOutput(const workloads::Workload &workload)
{
    const std::unique_ptr<ir::Module> module = workload.build();
    interp::ReferenceInterpreter reference(*module);
    return reference.run(workload.entry, workload.train_args);
}

bool
sameProgramOutput(const interp::RunResult &golden,
                  const interp::RunResult &reference)
{
    return golden.ok() && reference.ok() && golden.sameOutput(reference);
}

std::uint64_t
checkGolden(const Program &program, Report &report)
{
    if (!program.golden_ok) {
        report.fail("golden run failed for " + program.id);
        return 1;
    }
    const interp::RunResult &golden = program.injector->golden();
    interp::ReferenceInterpreter reference(*program.module);
    const interp::RunResult instrumented = reference.run(
        program.workload->entry, program.workload->train_args);
    if (!sameProgramOutput(golden, instrumented))
        report.fail("golden output of " + program.id +
                    " differs from ReferenceInterpreter on the "
                    "instrumented module");
    if (golden.dyn_instrs != instrumented.dyn_instrs)
        report.fail("golden run of " + program.id + " executed " +
                    std::to_string(golden.dyn_instrs) +
                    " instructions, ReferenceInterpreter " +
                    std::to_string(instrumented.dyn_instrs));
    if (!sameProgramOutput(golden, referenceOutput(*program.workload)))
        report.fail("golden output of " + program.id +
                    " differs from the uninstrumented program");
    return 3;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water
    // mark of whatever process exec'd this one.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

} // namespace perfbench
