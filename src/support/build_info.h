/**
 * @file
 * Build provenance baked into the binary at configure/compile time.
 *
 * Committed benchmark artifacts (BENCH_*.json) are only comparable
 * across revisions when each one records which build produced it:
 * the git revision, the compiler, the build type, and performance-
 * relevant build options (the computed-goto dispatcher). The values
 * come from CMake compile definitions (see src/support/CMakeLists.txt),
 * except the git hash, which is captured at *build* time: the
 * generated build_info_git.cc depends on .git/HEAD, so incremental
 * builds after new commits report the new revision.
 */
#ifndef ENCORE_SUPPORT_BUILD_INFO_H
#define ENCORE_SUPPORT_BUILD_INFO_H

#include <string>

namespace encore {

struct BuildInfo
{
    /// Short revision, "-dirty" when tracked files differed from it
    /// at build time, or "unknown".
    std::string git_hash;
    std::string compiler;   ///< Compiler id + version.
    std::string build_type; ///< CMAKE_BUILD_TYPE.
    bool computed_goto;     ///< ENCORE_COMPUTED_GOTO dispatcher on?
};

const BuildInfo &buildInfo();

/// The provenance as a one-line JSON object, e.g.
/// {"git_hash": "abc123", "compiler": "GNU 12.2.0",
///  "build_type": "RelWithDebInfo", "computed_goto": false}
std::string buildInfoJson();

} // namespace encore

#endif // ENCORE_SUPPORT_BUILD_INFO_H
