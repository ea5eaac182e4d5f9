#include "concurrency.hh"

#include <set>

namespace bigfish::lint {

namespace {

/** One inline lambda passed to a parallel-region entry point. */
struct ParallelBody
{
    std::size_t begin; ///< Token index just past the body `{`.
    std::size_t end;   ///< Token index of the matching `}`.
    /** Per-iteration names: lambda parameters plus by-value captures
     *  (a submitted task's own copy of its index, like a parameter). */
    std::set<std::string> params;
};

/**
 * By-value capture names of the capture list [@p open, @p close]:
 * `[i, &out, n = size()]` yields {i, n}. `&` captures, `this` and the
 * `=` / `&` defaults add nothing.
 */
void
collectValueCaptures(const std::vector<Token> &toks, std::size_t open,
                     std::size_t close, std::set<std::string> &out)
{
    bool segment_start = true;
    int depth = 0;
    for (std::size_t p = open + 1; p < close; ++p) {
        const std::string &t = toks[p].text;
        if (t == "(" || t == "[" || t == "{")
            ++depth;
        else if (t == ")" || t == "]" || t == "}")
            --depth;
        if (depth == 0 && t == ",") {
            segment_start = true;
            continue;
        }
        if (segment_start && depth == 0 &&
            toks[p].kind == TokenKind::Identifier && !isLintKeyword(t))
            out.insert(t);
        segment_start = false;
    }
}

/**
 * Finds every inline lambda inside the argument list of a parallel
 * entry point (isParallelEntry). A `[` in argument position (preceded
 * by `(` or `,`) opens a capture list; an optional `(...)` supplies the
 * parameter names and the `{...}` is the body.
 */
std::vector<ParallelBody>
collectParallelBodies(const std::vector<Token> &toks)
{
    std::vector<ParallelBody> bodies;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isParallelEntry(toks, i))
            continue;
        const std::size_t close = matchParen(toks, i + 1);
        if (close == kTokNpos)
            continue;
        for (std::size_t k = i + 2; k < close; ++k) {
            if (toks[k].text != "[" ||
                (toks[k - 1].text != "(" && toks[k - 1].text != ","))
                continue;
            // Capture list to `]`.
            std::size_t j = k;
            int depth = 0;
            while (j < close) {
                if (toks[j].text == "[")
                    ++depth;
                else if (toks[j].text == "]" && --depth == 0)
                    break;
                ++j;
            }
            if (j >= close || j + 1 >= close)
                continue;
            ParallelBody body;
            collectValueCaptures(toks, k, j, body.params);
            std::size_t open = j + 1;
            if (toks[j + 1].text == "(") {
                const std::size_t params_close = matchParen(toks, j + 1);
                if (params_close == kTokNpos || params_close + 1 >= close)
                    continue;
                // Parameter names: the identifier directly before each
                // `,` or the closing `)` at depth 1.
                int pdepth = 0;
                for (std::size_t p = j + 1; p <= params_close; ++p) {
                    if (toks[p].text == "(" || toks[p].text == "<")
                        ++pdepth;
                    else if (toks[p].text == ")" || toks[p].text == ">")
                        --pdepth;
                    const bool separator =
                        (toks[p].text == "," && pdepth == 1) ||
                        (p == params_close && pdepth == 0);
                    if (separator && p > 0 &&
                        toks[p - 1].kind == TokenKind::Identifier &&
                        !isLintKeyword(toks[p - 1].text))
                        body.params.insert(toks[p - 1].text);
                }
                open = params_close + 1;
            } else if (toks[j + 1].text != "{" &&
                       toks[j + 1].text != "mutable" &&
                       toks[j + 1].text != "->") {
                continue; // an array subscript, not a lambda
            }
            while (open < close && toks[open].text != "{")
                ++open; // skips mutable / noexcept / -> ret
            if (open >= close)
                continue;
            const std::size_t body_close = matchBrace(toks, open);
            if (body_close == kTokNpos)
                continue;
            body.begin = open + 1;
            body.end = body_close;
            bodies.push_back(body);
            k = body_close;
        }
        i = close;
    }
    return bodies;
}

/**
 * Names declared inside the body (per-iteration state). A declaration
 * is `<type-ish> name` where type-ish is a known builtin, `_t` name,
 * template close, or any non-keyword identifier directly followed by
 * the declarator pattern (`Type name =`, `Type name(...)`,
 * `Type name;`).
 */
std::set<std::string>
collectBodyLocals(const std::vector<Token> &toks, const ParallelBody &body)
{
    std::set<std::string> locals;
    for (std::size_t m = body.begin; m + 1 < body.end; ++m) {
        const Token &type = toks[m];
        const Token &name = toks[m + 1];
        if (name.kind != TokenKind::Identifier || isLintKeyword(name.text))
            continue;
        // `a.b c` / `p->b c` is a member access chain, not a
        // declaration; `std::size_t i` (a qualified type) is one.
        if (m >= 1 && (toks[m - 1].text == "." || toks[m - 1].text == "->"))
            continue;
        const bool typeish = looksLikeTypeName(type.text) ||
                             type.text == "&" || type.text == "*";
        const bool ident_type =
            type.kind == TokenKind::Identifier &&
            !isLintKeyword(type.text) && m + 2 < body.end &&
            (toks[m + 2].text == "=" || toks[m + 2].text == "(" ||
             toks[m + 2].text == "{" || toks[m + 2].text == ";");
        if (typeish || ident_type)
            locals.insert(name.text);
    }
    return locals;
}

/**
 * File-wide harvest of variables declared with std::atomic<...>.
 * Atomic writes from a parallel body are not data races (and counters
 * are order-independent), so capture-race exempts them.
 */
std::set<std::string>
collectAtomicVars(const std::vector<Token> &toks)
{
    std::set<std::string> out;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].text != "atomic" || toks[i + 1].text != "<")
            continue;
        const std::size_t past = skipAngles(toks, i + 1);
        if (past != kTokNpos && past < toks.size() &&
            toks[past].kind == TokenKind::Identifier &&
            !isLintKeyword(toks[past].text))
            out.insert(toks[past].text);
    }
    return out;
}

/** True when any identifier in [begin, end) is a param or body local. */
bool
mentionsIterationState(const std::vector<Token> &toks, std::size_t begin,
                       std::size_t end, const ParallelBody &body,
                       const std::set<std::string> &locals)
{
    for (std::size_t i = begin; i < end; ++i) {
        if (toks[i].kind != TokenKind::Identifier)
            continue;
        if (body.params.count(toks[i].text) > 0 ||
            locals.count(toks[i].text) > 0)
            return true;
    }
    return false;
}

void
ruleCaptureRace(const std::string &relPath, const LexedFile &file,
                std::vector<Diagnostic> &out)
{
    const auto &toks = file.tokens;
    const std::set<std::string> atomics = collectAtomicVars(toks);
    for (const ParallelBody &body : collectParallelBodies(toks)) {
        const std::set<std::string> locals = collectBodyLocals(toks, body);
        for (std::size_t k = body.begin; k < body.end; ++k) {
            // Plain assignment to a bare identifier.
            if (toks[k].text == "=" && k > body.begin) {
                const Token &lhs = toks[k - 1];
                if (lhs.kind == TokenKind::Identifier &&
                    !isLintKeyword(lhs.text) &&
                    atomics.count(lhs.text) == 0) {
                    const std::string &before =
                        k >= 2 ? toks[k - 2].text : std::string("{");
                    const bool member =
                        before == "." || before == "->" || before == "::";
                    const bool declaration =
                        (k >= 2 && toks[k - 2].kind ==
                                       TokenKind::Identifier &&
                         !isLintKeyword(before)) ||
                        before == ">" || before == ">>" || before == "&" ||
                        before == "*" || before == "]";
                    if (!member && !declaration &&
                        locals.count(lhs.text) == 0 &&
                        body.params.count(lhs.text) == 0) {
                        emitDiagnostic(
                            out, file, relPath, lhs.line,
                            "parallel-capture-race",
                            "'" + lhs.text + " = ...' writes a captured "
                            "variable inside a parallelFor/parallelMap "
                            "body or submitted task: a data race across "
                            "iterations; write into a per-index slot "
                            "instead");
                    }
                }
                // Indexed write: `target[subscript] = ...` must derive
                // the subscript from the iteration (param or local).
                if (lhs.text == "]") {
                    int depth = 0;
                    std::size_t open = k - 1;
                    while (open > body.begin) {
                        if (toks[open].text == "]")
                            ++depth;
                        else if (toks[open].text == "[" && --depth == 0)
                            break;
                        --open;
                    }
                    if (open > body.begin && toks[open].text == "[" &&
                        open >= 1 &&
                        toks[open - 1].kind == TokenKind::Identifier) {
                        const Token &target = toks[open - 1];
                        // `double vals[3] = {...}` declares an array:
                        // a type-ish token before the target is a
                        // declaration, not an indexed write.
                        const bool member =
                            open >= 2 && (toks[open - 2].text == "." ||
                                          toks[open - 2].text == "->");
                        const bool declaration =
                            open >= 2 &&
                            (looksLikeTypeName(toks[open - 2].text) ||
                             (toks[open - 2].kind ==
                                  TokenKind::Identifier &&
                              !isLintKeyword(toks[open - 2].text)));
                        if (!member && !declaration &&
                            locals.count(target.text) == 0 &&
                            !mentionsIterationState(toks, open + 1, k - 1,
                                                    body, locals)) {
                            emitDiagnostic(
                                out, file, relPath, target.line,
                                "parallel-capture-race",
                                "'" + target.text + "[...]' is written "
                                "with a subscript that does not derive "
                                "from the iteration index: iterations "
                                "race on the same slot");
                        }
                    }
                }
            }
            // Increment / decrement of a bare captured identifier.
            if (toks[k].text == "++" || toks[k].text == "--") {
                const Token *operand = nullptr;
                if (k + 1 < body.end &&
                    toks[k + 1].kind == TokenKind::Identifier)
                    operand = &toks[k + 1];
                else if (k > body.begin &&
                         toks[k - 1].kind == TokenKind::Identifier)
                    operand = &toks[k - 1];
                if (operand != nullptr && !isLintKeyword(operand->text) &&
                    locals.count(operand->text) == 0 &&
                    body.params.count(operand->text) == 0 &&
                    atomics.count(operand->text) == 0) {
                    // `x[i]++` and `p->n++` target per-index or member
                    // state; only the bare form is the race heuristic.
                    const std::string &prev =
                        k > body.begin ? toks[k - 1].text : std::string();
                    const bool bare_post =
                        operand == &toks[k - 1] &&
                        (k < 2 || (toks[k - 2].text != "." &&
                                   toks[k - 2].text != "->" &&
                                   toks[k - 2].text != "]"));
                    bool bare_pre = operand == &toks[k + 1] &&
                                    prev != "." && prev != "->";
                    // `++x[i]`: an indexed target is per-slot state when
                    // the subscript derives from the iteration.
                    if (bare_pre && k + 2 < body.end &&
                        toks[k + 2].text == "[") {
                        std::size_t close = k + 2;
                        int depth = 0;
                        while (close < body.end) {
                            if (toks[close].text == "[")
                                ++depth;
                            else if (toks[close].text == "]" &&
                                     --depth == 0)
                                break;
                            ++close;
                        }
                        if (close < body.end &&
                            mentionsIterationState(toks, k + 3, close,
                                                   body, locals))
                            bare_pre = false;
                    }
                    if (bare_post || bare_pre) {
                        emitDiagnostic(
                            out, file, relPath, operand->line,
                            "parallel-capture-race",
                            "'" + operand->text + "' is incremented/"
                            "decremented inside a parallelFor/parallelMap "
                            "body or submitted task: a data race across "
                            "iterations; count into per-index slots and "
                            "reduce serially");
                    }
                }
            }
        }
    }
}

void
ruleParallelMutex(const std::string &relPath, const LexedFile &file,
                  std::vector<Diagnostic> &out)
{
    static const std::set<std::string> kLockTypes = {
        "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
        "pthread_mutex_lock"};
    const auto &toks = file.tokens;
    for (const ParallelBody &body : collectParallelBodies(toks)) {
        for (std::size_t k = body.begin; k < body.end; ++k) {
            if (toks[k].kind != TokenKind::Identifier)
                continue;
            const bool lock_type = kLockTypes.count(toks[k].text) > 0;
            const bool lock_call =
                (toks[k].text == "lock" || toks[k].text == "try_lock") &&
                k > body.begin &&
                (toks[k - 1].text == "." || toks[k - 1].text == "->") &&
                k + 1 < body.end && toks[k + 1].text == "(";
            if (lock_type || lock_call) {
                emitDiagnostic(
                    out, file, relPath, toks[k].line, "parallel-mutex",
                    "mutex acquisition ('" + toks[k].text + "') inside a "
                    "parallelFor/parallelMap body or submitted task "
                    "serializes the hot loop and makes completion order "
                    "observable; "
                    "precompute shared state outside or write per-index "
                    "slots");
            }
        }
    }
}

void
ruleSharedRng(const std::string &relPath, const LexedFile &file,
              std::vector<Diagnostic> &out)
{
    static const std::set<std::string> kRngTypes = {
        "Rng",          "mt19937",      "mt19937_64",
        "minstd_rand",  "minstd_rand0", "default_random_engine",
        "ranlux24_base", "ranlux48_base"};
    const auto &toks = file.tokens;

    // File-wide harvest of variables declared with an RNG type.
    std::set<std::string> rng_vars;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (kRngTypes.count(toks[i].text) == 0)
            continue;
        std::size_t j = i + 1;
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                toks[j].text == "const"))
            ++j;
        if (j < toks.size() && toks[j].kind == TokenKind::Identifier &&
            !isLintKeyword(toks[j].text))
            rng_vars.insert(toks[j].text);
    }
    if (rng_vars.empty())
        return;

    for (const ParallelBody &body : collectParallelBodies(toks)) {
        const std::set<std::string> locals = collectBodyLocals(toks, body);
        std::set<std::string> flagged;
        for (std::size_t k = body.begin; k < body.end; ++k) {
            const Token &tok = toks[k];
            if (tok.kind != TokenKind::Identifier ||
                rng_vars.count(tok.text) == 0 ||
                locals.count(tok.text) > 0 ||
                body.params.count(tok.text) > 0)
                continue;
            if (k > body.begin && (toks[k - 1].text == "." ||
                                   toks[k - 1].text == "->" ||
                                   toks[k - 1].text == "::"))
                continue; // member/scope named like an RNG variable
            if (kRngTypes.count(tok.text) > 0)
                continue; // the type name itself (local declaration)
            if (flagged.insert(tok.text).second) {
                emitDiagnostic(
                    out, file, relPath, tok.line, "parallel-shared-rng",
                    "RNG '" + tok.text + "' is shared across parallel "
                    "iterations: drawing (or forking) from it races and "
                    "makes results depend on scheduling; construct a "
                    "per-cell stream from the seed and index inside the "
                    "body instead");
            }
        }
    }
}

} // namespace

std::vector<Diagnostic>
runConcurrencyRules(const std::string &relPath, const LexedFile &file,
                    const Config &config)
{
    std::vector<Diagnostic> out;
    const auto wants = [&](const char *rule) {
        return config.ruleEnabled(rule) &&
               !config.isAllowlisted(rule, relPath);
    };
    if (wants("parallel-capture-race"))
        ruleCaptureRace(relPath, file, out);
    if (wants("parallel-mutex"))
        ruleParallelMutex(relPath, file, out);
    if (wants("parallel-shared-rng"))
        ruleSharedRng(relPath, file, out);
    return out;
}

} // namespace bigfish::lint
