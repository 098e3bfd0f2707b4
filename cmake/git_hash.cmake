# Build-time git-hash capture (invoked via cmake -P from the custom
# command in src/support/CMakeLists.txt).
#
# Writes ${OUT} — a tiny .cc defining encore::detail::kGitHash — from
# `git rev-parse` at BUILD time, so an incremental rebuild after new
# commits reports the new revision (the old configure-time bake could
# go stale until the next cmake run). The hash gains a "-dirty" suffix
# when tracked files differ from HEAD, so a build of uncommitted
# sources does not name the commit it started from. Write-if-changed:
# when the stamp is unchanged the file's timestamp is left alone and
# nothing recompiles or relinks.
#
# Expects: SOURCE_DIR (repo root), OUT (generated .cc path).

execute_process(
    COMMAND git rev-parse --short=12 HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    OUTPUT_VARIABLE GIT_HASH
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE GIT_RC)
if(NOT GIT_RC EQUAL 0 OR GIT_HASH STREQUAL "")
    set(GIT_HASH "unknown")
else()
    execute_process(
        COMMAND git status --porcelain --untracked-files=no
        WORKING_DIRECTORY ${SOURCE_DIR}
        OUTPUT_VARIABLE GIT_CHANGES
        ERROR_QUIET
        RESULT_VARIABLE GIT_STATUS_RC)
    if(GIT_STATUS_RC EQUAL 0 AND NOT GIT_CHANGES STREQUAL "")
        string(APPEND GIT_HASH "-dirty")
    endif()
endif()

set(CONTENT "// Generated at build time by cmake/git_hash.cmake — do not edit.
namespace encore::detail {
extern const char *const kGitHash;
const char *const kGitHash = \"${GIT_HASH}\";
} // namespace encore::detail
")

set(OLD "")
if(EXISTS "${OUT}")
    file(READ "${OUT}" OLD)
endif()
if(NOT OLD STREQUAL CONTENT)
    file(WRITE "${OUT}" "${CONTENT}")
endif()
