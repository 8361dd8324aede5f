#include "CrossDomainCheck.h"

#include "clang/AST/ASTContext.h"
#include "clang/Basic/SourceManager.h"
#include "llvm/ADT/SmallVector.h"
#include "llvm/ADT/StringRef.h"

using namespace clang;
using namespace clang::ast_matchers;

namespace lbsim_tidy
{

namespace
{

/**
 * Concurrency vocabulary types whose presence in model code means
 * someone is threading the single-threaded cycle model. Mirrors
 * CROSS_DOMAIN_TYPES in lbsim_lint.py.
 */
constexpr const char *kConcurrencyTypes =
    "^::std::(thread|jthread|mutex|recursive_mutex|timed_mutex|"
    "recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
    "condition_variable|condition_variable_any|atomic|atomic_flag|"
    "future|shared_future|promise|barrier|latch|counting_semaphore|"
    "binary_semaphore)$";

/** Free functions that spawn work or fence memory across threads. */
constexpr const char *kConcurrencyCalls =
    "^::std::(async|atomic_thread_fence|atomic_signal_fence)$";

} // namespace

CrossDomainCheck::CrossDomainCheck(llvm::StringRef name,
                                   clang::tidy::ClangTidyContext *context)
    : ClangTidyCheck(name, context),
      model_dirs_(Options.get(
          "ModelDirs", "src/core,src/mem,src/lb,src/baselines,src/power"))
{
    llvm::SmallVector<llvm::StringRef, 8> parts;
    llvm::StringRef(model_dirs_).split(parts, ',', -1,
                                       /*KeepEmpty=*/false);
    for (llvm::StringRef part : parts)
        model_dir_list_.push_back(part.trim().str());
}

void
CrossDomainCheck::storeOptions(
    clang::tidy::ClangTidyOptions::OptionMap &opts)
{
    Options.store(opts, "ModelDirs", model_dirs_);
}

bool
CrossDomainCheck::inModelDirs(SourceLocation loc,
                              const SourceManager &sm) const
{
    if (model_dir_list_.empty())
        return true;
    const llvm::StringRef file = sm.getFilename(sm.getSpellingLoc(loc));
    for (const std::string &dir : model_dir_list_) {
        if (file.contains(dir))
            return true;
    }
    return false;
}

void
CrossDomainCheck::registerMatchers(MatchFinder *finder)
{
    // Covers both plain records (std::mutex, std::thread) and template
    // specializations (std::atomic<T>, std::future<T>); desugaring
    // resolves aliases and auto-deduced types.
    const auto concurrency_type = hasType(hasUnqualifiedDesugaredType(
        recordType(hasDeclaration(
            namedDecl(matchesName(kConcurrencyTypes))))));

    finder->addMatcher(varDecl(concurrency_type).bind("cross-var"), this);
    finder->addMatcher(fieldDecl(concurrency_type).bind("cross-field"),
                       this);
    finder->addMatcher(
        callExpr(callee(functionDecl(matchesName(kConcurrencyCalls))))
            .bind("cross-call"),
        this);
}

void
CrossDomainCheck::check(const MatchFinder::MatchResult &result)
{
    const SourceManager &sm = *result.SourceManager;

    const Decl *decl = result.Nodes.getNodeAs<VarDecl>("cross-var");
    if (!decl)
        decl = result.Nodes.getNodeAs<FieldDecl>("cross-field");
    if (decl) {
        if (!inModelDirs(decl->getBeginLoc(), sm))
            return;
        diag(decl->getBeginLoc(),
             "raw std:: concurrency primitive in model code; the "
             "cycle model is single-threaded (parallelism lives at "
             "the cell level), so threading it needs a reviewed "
             "design (DESIGN.md §13), not an ad-hoc primitive");
        return;
    }
    if (const auto *call =
            result.Nodes.getNodeAs<CallExpr>("cross-call")) {
        if (!inModelDirs(call->getBeginLoc(), sm))
            return;
        diag(call->getBeginLoc(),
             "thread-spawning or fencing call in model code; the "
             "cycle model is single-threaded — keep concurrency in "
             "the harness and service layers");
        return;
    }
}

} // namespace lbsim_tidy
