/**
 * @file
 * lbsim-cross-domain: flag raw concurrency primitives in model code.
 *
 * The cycle model is single-threaded: one simulation runs on one
 * thread, its SMs tick in index order, and parallelism lives at the
 * cell level (ExperimentEngine, lbsimd). That is what makes results
 * bit-identical run to run. A per-cycle SM barrier was tried and
 * measured slower than serial (DESIGN.md §13); any future threading of
 * the cycle loop needs a reviewed design, not an ad-hoc std::atomic
 * or std::mutex that silently reintroduces thread-count dependence.
 * This check rejects:
 *
 *  - declarations (locals, members, params) of std::thread, mutexes,
 *    condition variables, atomics, futures/promises, barriers/latches/
 *    semaphores
 *  - calls to std::async and std::atomic_{thread,signal}_fence
 *
 * The harness and service worker pools live outside ModelDirs and may
 * use these freely.
 *
 * Scope: files under the ModelDirs option (default
 * "src/core,src/mem,src/lb,src/baselines,src/power"); an empty option
 * value means every file, which is what the fixture corpus uses.
 *
 * The portable twin of this check lives in tools/lint/lbsim_lint.py;
 * keep the two behaviourally aligned (the fixtures in tests/lint/ are
 * run against both backends).
 */

#pragma once

#include "clang-tidy/ClangTidyCheck.h"

namespace lbsim_tidy
{

class CrossDomainCheck : public clang::tidy::ClangTidyCheck
{
  public:
    CrossDomainCheck(llvm::StringRef name,
                     clang::tidy::ClangTidyContext *context);

    void registerMatchers(clang::ast_matchers::MatchFinder *finder) override;
    void
    check(const clang::ast_matchers::MatchFinder::MatchResult &result)
        override;
    void storeOptions(clang::tidy::ClangTidyOptions::OptionMap &opts)
        override;

  private:
    bool inModelDirs(clang::SourceLocation loc,
                     const clang::SourceManager &sm) const;

    /** Comma-separated dir prefixes; empty = every file. */
    std::string model_dirs_;
    std::vector<std::string> model_dir_list_;
};

} // namespace lbsim_tidy
