#include "report.hh"

#include <fstream>
#include <map>
#include <sstream>

namespace bigfish::lint {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/** One-line summaries for SARIF rule metadata, keyed by rule id. */
const std::map<std::string, std::string> &
ruleSummaries()
{
    static const std::map<std::string, std::string> kSummaries = {
        {"nondeterminism",
         "No ambient entropy: results derive from explicit seeds only."},
        {"unordered-iteration",
         "No iteration over unordered containers: bucket order leaks "
         "into results."},
        {"discarded-status",
         "Status/Result returns must be consumed and declared "
         "[[nodiscard]]."},
        {"raw-thread",
         "Raw std::thread/std::async only inside base/thread_pool."},
        {"allocating-algorithm",
         "No hidden-temp-buffer algorithms (inplace_merge, stable_sort, "
         "stable_partition) in hot paths; use the arena merge."},
        {"parallel-float-accum",
         "No compound accumulation onto captured variables in parallel "
         "bodies or submitted tasks."},
        {"intrinsics-header",
         "ISA intrinsics headers are confined to base/simd.hh."},
        {"layering",
         "Includes must follow the declared layer DAG and be acyclic."},
        {"unused-include",
         "Quoted in-tree includes whose exports are never referenced "
         "are removable."},
        {"status-swallowed",
         "A Status/Result captured in a void function must be read "
         "before returning."},
        {"ordie-outside-binary",
         "...OrDie() calls are confined to binary-boundary "
         "directories."},
        {"parallel-mutex",
         "No lock acquisition inside parallelFor/parallelMap bodies or "
         "submitted tasks."},
        {"parallel-capture-race",
         "No writes to captured state without index-derived addressing "
         "in parallel bodies or submitted tasks."},
        {"parallel-shared-rng",
         "No RNG shared across parallel iterations or tasks; derive "
         "per-cell streams."},
        {"stage-timing",
         "Phase timing flows through StageGraph::run(); no ad-hoc "
         "stopwatches."},
    };
    return kSummaries;
}

} // namespace

std::string
loadBaseline(const std::string &path, Baseline &out)
{
    std::ifstream in(path);
    if (!in)
        return ""; // missing baseline == empty baseline
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        while (!line.empty() &&
               (line.back() == ' ' || line.back() == '\t' ||
                line.back() == '\r'))
            line.pop_back();
        if (line.empty())
            continue;
        // file:line:rule — rightmost two colons delimit, so paths with
        // colons (none in this tree) would still need escaping.
        const std::size_t c2 = line.rfind(':');
        const std::size_t c1 =
            c2 == std::string::npos ? std::string::npos
                                    : line.rfind(':', c2 - 1);
        if (c1 == std::string::npos || c2 == std::string::npos || c1 == 0)
            return path + ":" + std::to_string(lineno) +
                   ": expected 'file:line:rule'";
        try {
            out.entries.insert({line.substr(0, c1),
                                std::stoi(line.substr(c1 + 1, c2 - c1 - 1)),
                                line.substr(c2 + 1)});
        } catch (const std::exception &) {
            return path + ":" + std::to_string(lineno) +
                   ": line number is not an integer";
        }
    }
    return "";
}

std::string
writeBaselineFile(const std::string &path,
                  const std::vector<Diagnostic> &diagnostics)
{
    std::ofstream out(path);
    if (!out)
        return "cannot write baseline '" + path + "'";
    out << "# bigfish-lint baseline: findings listed here warn instead of\n"
           "# failing. Keep this file empty on main — fix or suppress\n"
           "# inline with a justification; baseline only during\n"
           "# incremental adoption of a new rule.\n";
    for (const Diagnostic &d : diagnostics)
        out << d.file << ":" << d.line << ":" << d.rule << "\n";
    return out ? "" : "short write to baseline '" + path + "'";
}

void
partitionAgainstBaseline(const std::vector<Diagnostic> &all,
                         const Baseline &baseline,
                         std::vector<Diagnostic> &fresh,
                         std::vector<Diagnostic> &baselined,
                         std::size_t &stale)
{
    std::set<BaselineKey> seen;
    for (const Diagnostic &d : all) {
        if (baseline.contains(d)) {
            baselined.push_back(d);
            seen.insert({d.file, d.line, d.rule});
        } else {
            fresh.push_back(d);
        }
    }
    stale = 0;
    for (const BaselineKey &key : baseline.entries)
        if (seen.count(key) == 0)
            ++stale;
}

std::string
renderText(const std::vector<Diagnostic> &fresh,
           const std::vector<Diagnostic> &baselined,
           std::size_t filesScanned)
{
    std::ostringstream out;
    for (const Diagnostic &d : fresh)
        out << d.file << ":" << d.line << ": [" << d.rule << "] "
            << d.message << "\n";
    for (const Diagnostic &d : baselined)
        out << d.file << ":" << d.line << ": [" << d.rule << "] (baselined) "
            << d.message << "\n";
    out << "bigfish-lint: " << fresh.size() << " finding(s)";
    if (!baselined.empty())
        out << " + " << baselined.size() << " baselined";
    out << " in " << filesScanned << " file(s) scanned\n";
    return out.str();
}

std::string
renderJson(const std::vector<Diagnostic> &fresh,
           const std::vector<Diagnostic> &baselined,
           std::size_t filesScanned)
{
    std::ostringstream out;
    out << "{\n  \"files_scanned\": " << filesScanned
        << ",\n  \"count\": " << fresh.size()
        << ",\n  \"baselined\": " << baselined.size()
        << ",\n  \"diagnostics\": [";
    bool first = true;
    const auto record = [&](const Diagnostic &d, bool is_baselined) {
        out << (first ? "" : ",") << "\n    {\"file\": \""
            << jsonEscape(d.file) << "\", \"line\": " << d.line
            << ", \"rule\": \"" << jsonEscape(d.rule)
            << "\", \"baselined\": " << (is_baselined ? "true" : "false")
            << ", \"message\": \"" << jsonEscape(d.message) << "\"}";
        first = false;
    };
    for (const Diagnostic &d : fresh)
        record(d, false);
    for (const Diagnostic &d : baselined)
        record(d, true);
    out << (first ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

std::string
renderSarif(const std::vector<Diagnostic> &fresh,
            const std::vector<Diagnostic> &baselined)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [\n"
        << "    {\n"
        << "      \"tool\": {\n"
        << "        \"driver\": {\n"
        << "          \"name\": \"bigfish-lint\",\n"
        << "          \"version\": \"2.0.0\",\n"
        << "          \"informationUri\": "
           "\"https://example.invalid/bigfish-lint\",\n"
        << "          \"rules\": [\n";
    const auto names = allRuleNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const auto it = ruleSummaries().find(names[i]);
        const std::string text =
            it == ruleSummaries().end() ? names[i] : it->second;
        out << "            {\"id\": \"" << names[i]
            << "\", \"shortDescription\": {\"text\": \""
            << jsonEscape(text) << "\"}}"
            << (i + 1 < names.size() ? "," : "") << "\n";
    }
    out << "          ]\n"
        << "        }\n"
        << "      },\n"
        << "      \"columnKind\": \"utf16CodeUnits\",\n"
        << "      \"results\": [";
    bool first = true;
    const auto result = [&](const Diagnostic &d, bool is_baselined) {
        out << (first ? "" : ",") << "\n        {\n"
            << "          \"ruleId\": \"" << jsonEscape(d.rule) << "\",\n"
            << "          \"level\": \""
            << (is_baselined ? "warning" : "error") << "\",\n"
            << "          \"baselineState\": \""
            << (is_baselined ? "unchanged" : "new") << "\",\n"
            << "          \"message\": {\"text\": \""
            << jsonEscape(d.message) << "\"},\n"
            << "          \"locations\": [\n"
            << "            {\n"
            << "              \"physicalLocation\": {\n"
            << "                \"artifactLocation\": {\"uri\": \""
            << jsonEscape(d.file) << "\"},\n"
            << "                \"region\": {\"startLine\": " << d.line
            << "}\n"
            << "              }\n"
            << "            }\n"
            << "          ]\n"
            << "        }";
        first = false;
    };
    for (const Diagnostic &d : fresh)
        result(d, false);
    for (const Diagnostic &d : baselined)
        result(d, true);
    out << (first ? "]" : "\n      ]") << "\n"
        << "    }\n"
        << "  ]\n"
        << "}\n";
    return out.str();
}

} // namespace bigfish::lint
