#include "rules.hh"

#include <cstddef>

namespace bigfish::lint {

bool
isLintKeyword(const std::string &s)
{
    static const std::set<std::string> kKeywords = {
        "if",     "for",    "while",  "switch",   "return", "sizeof",
        "case",   "do",     "else",   "operator", "new",    "delete",
        "throw",  "catch",  "static", "const",    "auto",   "void",
        "class",  "struct", "using",  "typename", "template"};
    return kKeywords.count(s) > 0;
}

std::size_t
matchParen(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == "(")
            ++depth;
        else if (toks[i].text == ")" && --depth == 0)
            return i;
    }
    return kTokNpos;
}

std::size_t
matchBrace(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].text == "{")
            ++depth;
        else if (toks[i].text == "}" && --depth == 0)
            return i;
    }
    return kTokNpos;
}

std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        const std::string &t = toks[i].text;
        if (t == "<") {
            ++depth;
        } else if (t == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (t == ">>") {
            depth -= 2;
            if (depth <= 0)
                return i + 1;
        } else if (t == ";" || t == "{") {
            return kTokNpos;
        }
    }
    return kTokNpos;
}

void
emitDiagnostic(std::vector<Diagnostic> &out, const LexedFile &file,
               const std::string &relPath, int line, const std::string &rule,
               const std::string &message)
{
    if (!isSuppressed(file, line, rule))
        out.push_back({relPath, line, rule, message});
}

bool
looksLikeTypeName(const std::string &t)
{
    static const std::set<std::string> kTypes = {
        "double", "float", "auto",  "int",  "long",
        "short",  "unsigned", "char", "bool", "size_t"};
    if (kTypes.count(t) > 0)
        return true;
    if (t.size() > 2 && t.compare(t.size() - 2, 2, "_t") == 0)
        return true;
    return t == ">"; // closing a templated type: std::vector<double> v
}

bool
isParallelEntry(const std::vector<Token> &toks, std::size_t i)
{
    if (i + 1 >= toks.size() || toks[i + 1].text != "(")
        return false;
    const std::string &name = toks[i].text;
    if (name == "parallelFor" || name == "parallelMap")
        return true;
    return name == "submit" && i > 0 &&
           (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

namespace {

constexpr std::size_t kNpos = kTokNpos;

bool
isKeyword(const std::string &s)
{
    return isLintKeyword(s);
}

/**
 * Walks backwards from @p i (exclusive) over a member/namespace chain
 * like `results[a].collector->`, returning the index of the token just
 * before the whole chain, or kNpos at start-of-file.
 */
std::size_t
chainStart(const std::vector<Token> &toks, std::size_t i)
{
    std::size_t j = i;
    while (j != kNpos && j > 0) {
        const std::string &t = toks[j - 1].text;
        if (t == "." || t == "->" || t == "::") {
            j -= 2; // step over the separator and the name before it
            // The name may itself be a call/index result: skip its
            // balanced () or [] backwards.
            while (j != kNpos && j + 1 > 0 &&
                   (toks[j].text == ")" || toks[j].text == "]")) {
                const std::string close = toks[j].text;
                const std::string open = close == ")" ? "(" : "[";
                int depth = 0;
                std::size_t k = j + 1;
                while (k > 0) {
                    --k;
                    if (toks[k].text == close)
                        ++depth;
                    else if (toks[k].text == open && --depth == 0)
                        break;
                }
                j = k == 0 ? kNpos : k - 1;
            }
        } else {
            break;
        }
    }
    return j == kNpos || j == 0 ? kNpos : j - 1;
}

void
emit(std::vector<Diagnostic> &out, const LexedFile &file,
     const std::string &relPath, int line, const std::string &rule,
     const std::string &message)
{
    emitDiagnostic(out, file, relPath, line, rule, message);
}

// --- Rule: nondeterminism ----------------------------------------------

void
ruleNondeterminism(const std::string &relPath, const LexedFile &file,
                   std::vector<Diagnostic> &out)
{
    static const std::set<std::string> kBannedAnywhere = {
        "random_device", "system_clock", "steady_clock",
        "high_resolution_clock", "getenv"};
    static const std::set<std::string> kBannedCalls = {"rand", "srand",
                                                       "time", "clock"};
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Identifier)
            continue;
        const std::string &t = toks[i].text;
        const bool member_access =
            i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
        if (kBannedAnywhere.count(t) > 0 && !member_access) {
            emit(out, file, relPath, toks[i].line, "nondeterminism",
                 "'" + t + "' is a banned nondeterminism source; derive "
                 "everything from an explicit seed (base/rng.hh) or use "
                 "the allowlisted timing facilities");
            continue;
        }
        // `long time(long x)` declares a member named time — a
        // preceding non-keyword identifier marks a declaration, not a
        // call (`return time(0)` stays a call: `return` is a keyword).
        const bool after_decl_type =
            i > 0 && toks[i - 1].kind == TokenKind::Identifier &&
            toks[i - 1].text != "return" && toks[i - 1].text != "else" &&
            toks[i - 1].text != "do" && toks[i - 1].text != "co_return";
        if (kBannedCalls.count(t) > 0 && !member_access && !after_decl_type &&
            i + 1 < toks.size() && toks[i + 1].text == "(") {
            emit(out, file, relPath, toks[i].line, "nondeterminism",
                 "call to '" + t + "()' is a banned nondeterminism "
                 "source; results must depend only on explicit seeds");
        }
    }
}

// --- Rule: unordered-iteration -----------------------------------------

void
ruleUnorderedIteration(const std::string &relPath, const LexedFile &file,
                       std::vector<Diagnostic> &out)
{
    static const std::set<std::string> kUnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const auto &toks = file.tokens;

    // Pass 1: names of variables declared with an unordered type.
    std::set<std::string> unordered_vars;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (kUnorderedTypes.count(toks[i].text) == 0)
            continue;
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].text == "<") {
            j = skipAngles(toks, j);
            if (j == kNpos)
                continue;
        }
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                toks[j].text == "const"))
            ++j;
        if (j < toks.size() && toks[j].kind == TokenKind::Identifier &&
            !isKeyword(toks[j].text))
            unordered_vars.insert(toks[j].text);
    }

    const auto isUnorderedExpr = [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
            if (kUnorderedTypes.count(toks[k].text) > 0 ||
                unordered_vars.count(toks[k].text) > 0)
                return true;
        }
        return false;
    };

    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        // Range-for whose range expression mentions an unordered
        // container (or a variable declared as one).
        if (toks[i].text == "for" && toks[i + 1].text == "(") {
            const std::size_t close = matchParen(toks, i + 1);
            if (close == kNpos)
                continue;
            std::size_t colon = kNpos;
            int depth = 0;
            for (std::size_t k = i + 1; k < close; ++k) {
                if (toks[k].text == "(" || toks[k].text == "[")
                    ++depth;
                else if (toks[k].text == ")" || toks[k].text == "]")
                    --depth;
                else if (toks[k].text == ":" && depth == 1) {
                    colon = k;
                    break;
                }
            }
            if (colon != kNpos && isUnorderedExpr(colon + 1, close)) {
                emit(out, file, relPath, toks[i].line,
                     "unordered-iteration",
                     "range-for over an unordered container: bucket "
                     "order is implementation-defined and leaks into "
                     "results; sort keys first or use an ordered "
                     "container (std::map / sorted vector)");
            }
            continue;
        }
        // Iterator harvesting from a known-unordered variable.
        if (unordered_vars.count(toks[i].text) > 0 &&
            toks[i + 1].text == "." && i + 2 < toks.size()) {
            static const std::set<std::string> kIterFns = {
                "begin", "cbegin", "end", "cend", "rbegin", "rend"};
            if (kIterFns.count(toks[i + 2].text) > 0) {
                emit(out, file, relPath, toks[i].line,
                     "unordered-iteration",
                     "iterating '" + toks[i].text + "' (an unordered "
                     "container): bucket order is implementation-"
                     "defined and leaks into results");
            }
        }
    }
}

// --- Rule: discarded-status --------------------------------------------

std::set<std::string>
collectReturnersImpl(const LexedFile &file,
                     std::vector<std::size_t> *declSites)
{
    std::set<std::string> names;
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].text != "Status" && toks[i].text != "Result")
            continue;
        // `Status::ok()`-style qualified *uses* are not declarations.
        if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
            continue;
        std::size_t j = i + 1;
        if (toks[i].text == "Result") {
            if (j >= toks.size() || toks[j].text != "<")
                continue;
            j = skipAngles(toks, j);
            if (j == kNpos)
                continue;
        }
        if (j + 1 < toks.size() && toks[j].kind == TokenKind::Identifier &&
            !isKeyword(toks[j].text) && toks[j + 1].text == "(") {
            names.insert(toks[j].text);
            if (declSites != nullptr)
                declSites->push_back(i);
        }
    }
    return names;
}

void
ruleDiscardedStatus(const std::string &relPath, const LexedFile &file,
                    bool isHeader, const std::set<std::string> &returners,
                    std::vector<Diagnostic> &out)
{
    const auto &toks = file.tokens;

    // Half 1 (headers only): declarations must carry [[nodiscard]].
    if (isHeader) {
        std::vector<std::size_t> decls;
        collectReturnersImpl(file, &decls);
        for (std::size_t at : decls) {
            bool has_attr = false;
            for (std::size_t back = 1; back <= 10 && back <= at; ++back) {
                const std::string &t = toks[at - back].text;
                if (t == "nodiscard") {
                    has_attr = true;
                    break;
                }
                if (t == ";" || t == "{" || t == "}" || t == "(")
                    break;
            }
            if (!has_attr) {
                emit(out, file, relPath, toks[at].line, "discarded-status",
                     "declaration returning " + toks[at].text +
                         " is missing [[nodiscard]]");
            }
        }
    }

    // Half 2: a statement-level call to a Status/Result returner whose
    // value is dropped on the floor.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::Identifier ||
            returners.count(toks[i].text) == 0 || toks[i + 1].text != "(")
            continue;
        const std::size_t close = matchParen(toks, i + 1);
        if (close == kNpos || close + 1 >= toks.size() ||
            toks[close + 1].text != ";")
            continue;
        const std::size_t before = chainStart(toks, i);
        const std::string prev =
            before == kNpos ? std::string("{") : toks[before].text;
        // A preceding identifier means this is itself a declaration
        // (`Status foo(...);`), not a call. A `(void)` cast is the
        // sanctioned I-really-mean-it discard marker.
        if (prev == ")" && before != kNpos && before >= 2 &&
            toks[before - 1].text == "void" && toks[before - 2].text == "(")
            continue;
        static const std::set<std::string> kStatementStarts = {
            ";", "{", "}", "else", "do", ")"};
        if (kStatementStarts.count(prev) > 0) {
            emit(out, file, relPath, toks[i].line, "discarded-status",
                 "result of '" + toks[i].text + "' (returns Status/"
                 "Result) is discarded; assign it, return it, or wrap "
                 "it in BF_RETURN_IF_ERROR / ...OrDie()");
        }
    }
}

// --- Rule: raw-thread --------------------------------------------------

void
ruleRawThread(const std::string &relPath, const LexedFile &file,
              std::vector<Diagnostic> &out)
{
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text == "std" && toks[i + 1].text == "::" &&
            (toks[i + 2].text == "thread" || toks[i + 2].text == "jthread" ||
             toks[i + 2].text == "async")) {
            // `std::thread::hardware_concurrency()` and friends query;
            // only naming the type itself creates an execution context.
            if (i + 3 < toks.size() && toks[i + 3].text == "::")
                continue;
            emit(out, file, relPath, toks[i].line, "raw-thread",
                 "raw 'std::" + toks[i + 2].text + "' outside "
                 "base/thread_pool: use parallelFor/parallelMap so "
                 "scheduling stays deterministic and exception-safe");
        }
    }
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].text == "pthread_create") {
            emit(out, file, relPath, toks[i].line, "raw-thread",
                 "'pthread_create' outside base/thread_pool: use "
                 "parallelFor/parallelMap");
        }
    }
}

// --- Rule: allocating-algorithm ----------------------------------------

void
ruleAllocatingAlgorithm(const std::string &relPath, const LexedFile &file,
                        std::vector<Diagnostic> &out)
{
    // These three allocate a hidden temporary buffer per call (libstdc++
    // get_temporary_buffer) and silently degrade to O(n log n) in-place
    // when the allocation fails — both properties are invisible at the
    // call site. The simulator's (site,run) grid executes its hot path
    // millions of times, so per-call hidden allocations are exactly the
    // cold-run cost class PR 10 removed (DESIGN.md §13).
    static const std::set<std::string> kAllocating = {
        "inplace_merge", "stable_sort", "stable_partition"};
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text == "std" && toks[i + 1].text == "::" &&
            kAllocating.count(toks[i + 2].text) != 0) {
            emit(out, file, relPath, toks[i].line, "allocating-algorithm",
                 "'std::" + toks[i + 2].text + "' allocates a hidden "
                 "temporary buffer per call; in simulator hot paths use "
                 "an arena-backed explicit merge (sim/scratch.hh) or a "
                 "plain std::sort instead");
        }
    }
}

// --- Rule: parallel-float-accum ----------------------------------------

void
ruleParallelFloatAccum(const std::string &relPath, const LexedFile &file,
                       std::vector<Diagnostic> &out)
{
    static const std::set<std::string> kCompound = {"+=", "-=", "*=", "/="};
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isParallelEntry(toks, i))
            continue;
        const std::size_t close = matchParen(toks, i + 1);
        if (close == kNpos)
            continue;
        for (std::size_t k = i + 2; k < close; ++k) {
            if (kCompound.count(toks[k].text) == 0 || k == 0)
                continue;
            const Token &lhs = toks[k - 1];
            // `slots[i] += ...` / `(*p) += ...` target pre-sized slots;
            // only a bare identifier target is a reduction.
            if (lhs.kind != TokenKind::Identifier)
                continue;
            // A variable declared inside the parallel body is a
            // lambda-local accumulator, which is fine.
            bool local = false;
            for (std::size_t m = i + 2; m + 1 < k; ++m) {
                if (toks[m + 1].text == lhs.text &&
                    looksLikeTypeName(toks[m].text)) {
                    local = true;
                    break;
                }
            }
            if (!local) {
                emit(out, file, relPath, lhs.line, "parallel-float-accum",
                     "'" + lhs.text + " " + toks[k].text + " ...' inside "
                     "a parallelFor/parallelMap body or submitted task "
                     "accumulates onto a captured variable: write "
                     "per-index results into pre-sized slots and reduce "
                     "serially afterwards");
            }
        }
    }
}

// --- Rule: intrinsics-header -------------------------------------------

void
ruleIntrinsicsHeader(const std::string &relPath, const LexedFile &file,
                     std::vector<Diagnostic> &out)
{
    // The x86 SIMD intrinsics headers (and the architecture-specific
    // vector headers of other ISAs). base/simd.hh is the one
    // allowlisted home; everything else must reach vector code through
    // the ml/kernels.hh dispatch layer.
    static const std::set<std::string> kIntrinsicsHeaders = {
        "immintrin", "emmintrin", "xmmintrin", "pmmintrin", "tmmintrin",
        "smmintrin", "nmmintrin", "wmmintrin", "ammintrin", "x86intrin",
        "arm_neon"};
    const auto &toks = file.tokens;
    // The lexer is not a preprocessor: `#include <immintrin.h>` lexes
    // as the token run  #  include  <  immintrin  .  h  >. The quoted
    // spelling lexes to a single String token (quotes included, so it
    // can never equal a bare header name here), but system headers are
    // only ever included with angle brackets in this tree.
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].text != "#" || toks[i + 1].text != "include" ||
            toks[i + 2].text != "<")
            continue;
        const std::string &header = toks[i + 3].text;
        if (kIntrinsicsHeaders.count(header) == 0)
            continue;
        emit(out, file, relPath, toks[i].line, "intrinsics-header",
             "'" + header + ".h' included outside base/simd.hh: "
             "ISA-specific intrinsics are confined there; dispatch "
             "through ml/kernels.hh instead");
    }
}

// --- Rule: stage-timing ------------------------------------------------

void
ruleStageTiming(const std::string &relPath, const LexedFile &file,
                std::vector<Diagnostic> &out)
{
    static const std::set<std::string> kTimingNames = {
        "Stopwatch", "ProcessCpuStopwatch", "ThreadCpuStopwatch",
        "CpuStopwatchBase", "posixClockSeconds"};
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // Even the include is a finding: pipeline code has no business
        // seeing the stopwatch header.
        if (toks[i].text == "#" && i + 2 < toks.size() &&
            toks[i + 1].text == "include" &&
            toks[i + 2].text == "\"base/stopwatch.hh\"") {
            emit(out, file, relPath, toks[i].line, "stage-timing",
                 "'base/stopwatch.hh' included outside the stage "
                 "framework: phase timing must flow through "
                 "StageGraph::run() (core/stage.hh) so --explain and "
                 "the artifact's per-stage table stay the single "
                 "source of truth");
            continue;
        }
        if (toks[i].kind != TokenKind::Identifier ||
            kTimingNames.count(toks[i].text) == 0)
            continue;
        const bool member_access =
            i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
        if (member_access)
            continue;
        emit(out, file, relPath, toks[i].line, "stage-timing",
             "'" + toks[i].text + "' used outside the stage framework: "
             "phase timing must flow through StageGraph::run() "
             "(core/stage.hh) so --explain and the artifact's per-stage "
             "table stay the single source of truth");
    }
}

} // namespace

std::set<std::string>
collectStatusReturners(const LexedFile &file)
{
    return collectReturnersImpl(file, nullptr);
}

std::vector<Diagnostic>
runRules(const std::string &relPath, const LexedFile &file, bool isHeader,
         const Config &config, const std::set<std::string> &statusReturners)
{
    std::vector<Diagnostic> out;
    const auto wants = [&](const char *rule) {
        return config.ruleEnabled(rule) &&
               !config.isAllowlisted(rule, relPath);
    };
    if (wants("nondeterminism"))
        ruleNondeterminism(relPath, file, out);
    if (wants("unordered-iteration"))
        ruleUnorderedIteration(relPath, file, out);
    if (wants("discarded-status"))
        ruleDiscardedStatus(relPath, file, isHeader, statusReturners, out);
    if (wants("raw-thread"))
        ruleRawThread(relPath, file, out);
    if (wants("allocating-algorithm"))
        ruleAllocatingAlgorithm(relPath, file, out);
    if (wants("parallel-float-accum"))
        ruleParallelFloatAccum(relPath, file, out);
    if (wants("intrinsics-header"))
        ruleIntrinsicsHeader(relPath, file, out);
    if (wants("stage-timing"))
        ruleStageTiming(relPath, file, out);
    return out;
}

} // namespace bigfish::lint
