/**
 * @file
 * One workload program taken through the public library API, with a
 * span around each layer call: build (ir) → profile + structures
 * (encore AnalysisBase) → analysis + instrumentation (encore
 * runConfig) → decode (interp, FaultInjector constructor) → golden
 * run + snapshots (interp, FaultInjector::prepare). Plus the helpers
 * every workload shares: campaign seeds, tallies as counters, and the
 * golden-output oracle.
 */
#ifndef PERFBENCH_PROGRAM_H
#define PERFBENCH_PROGRAM_H

#include <memory>
#include <string>

#include "encore/analysis_base.h"
#include "fault/injector.h"
#include "report.h"
#include "workloads/workload.h"

namespace perfbench {

struct Program
{
    const encore::workloads::Workload *workload = nullptr;
    std::string id;
    std::unique_ptr<encore::ir::Module> module; ///< Instrumented.
    encore::EncoreReport report;
    std::unique_ptr<encore::fault::FaultInjector> injector;
    /// False when the golden run failed (a counted failure).
    bool golden_ok = false;
    encore::AnalysisPhaseTimings phases;
    encore::AnalysisCache::Stats cache;
};

/// Prepares `workload` under `config` (the workload's opaque functions
/// are merged in, as the bench harness does), with the injector's
/// default snapshot configuration. Never null.
std::unique_ptr<Program>
prepareProgram(const encore::workloads::Workload &workload,
               encore::EncoreConfig config, const std::string &id);

/// A second injector over the same instrumented module with the
/// snapshot tier off: every trial re-executes from program entry.
/// The differential baseline of the trial oracles. Null when its
/// golden run fails.
std::unique_ptr<encore::fault::FaultInjector>
fullRerunInjector(const Program &program);

/// Campaign seed from (run seed, program name, scenario tag), so a
/// campaign draws the same trials whatever else the run contains.
std::uint64_t campaignSeed(std::uint64_t seed, const std::string &program,
                           const std::string &tag);

/// Adds `result` into `total` (tallies, trials, replay cost).
void addResult(encore::fault::CampaignResult &total,
               const encore::fault::CampaignResult &result);

/// Folds a campaign's tallies and replay cost into digest `h`.
std::uint64_t mixResult(std::uint64_t h,
                        const encore::fault::CampaignResult &result);

/// Adds a campaign's outcome tallies (and replay cost) to `counters`
/// under `prefix`.
void addTallies(Counters &counters, const std::string &prefix,
                const encore::fault::CampaignResult &result);

/// Empty when equal, otherwise a description of the first difference.
std::string compareTallies(const encore::fault::CampaignResult &want,
                           const encore::fault::CampaignResult &got);

/// Golden-output oracle: the fused engine's golden run equals
/// ReferenceInterpreter on the same instrumented module, and equals
/// the uninstrumented program under ReferenceInterpreter. Returns the
/// number of comparisons made; mismatches go to `report`.
std::uint64_t checkGolden(const Program &program, Report &report);

/// Uninstrumented reference output (ReferenceInterpreter).
encore::interp::RunResult
referenceOutput(const encore::workloads::Workload &workload);

/// True when the instrumented golden run produced the program's
/// output: same return value and the same contents in the
/// uninstrumented program's globals.
bool sameProgramOutput(const encore::interp::RunResult &golden,
                       const encore::interp::RunResult &reference);

/// Peak resident set of this process so far (VmHWM), MiB.
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_PROGRAM_H
