/**
 * @file
 * Tests for the resilience layer: base/atomic_file, base/retry, and the
 * core suite supervisor (manifest accounting, keep-going and skip
 * semantics, deterministic retries, subprocess isolation via /bin/sh
 * children, interrupt handling).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/atomic_file.hh"
#include "base/retry.hh"
#include "core/supervisor.hh"

namespace bigfish::core {
namespace {

std::string
testDir(const std::string &leaf)
{
    // Fresh per-test directory: marker files and manifests from an
    // earlier test run must not leak in.
    const std::string dir = testing::TempDir() + "bf_supervisor_" + leaf;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------
// base/atomic_file
// ---------------------------------------------------------------------

TEST(AtomicFile, CreateDirectoriesMakesNestedPathsAndIsIdempotent)
{
    const std::string dir = testDir("mkdir") + "/a/b/c";
    ASSERT_TRUE(createDirectories(dir).isOk());
    ASSERT_TRUE(createDirectories(dir).isOk()); // Already exists: OK.
    ASSERT_TRUE(atomicWriteFile(dir + "/probe", "x").isOk());
}

TEST(AtomicFile, CreateDirectoriesFailsThroughARegularFile)
{
    const std::string dir = testDir("mkdir_conflict");
    ASSERT_TRUE(createDirectories(dir).isOk());
    ASSERT_TRUE(atomicWriteFile(dir + "/file", "not a dir").isOk());
    const Status bad = createDirectories(dir + "/file/sub");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), ErrorCode::IoError);
    EXPECT_NE(bad.message().find(dir + "/file"), std::string::npos)
        << "error must name the offending path: " << bad.message();
}

TEST(AtomicFile, WriteReplacesContentAndLeavesNoTempBehind)
{
    const std::string dir = testDir("atomic");
    ASSERT_TRUE(createDirectories(dir).isOk());
    const std::string path = dir + "/artifact.json";
    ASSERT_TRUE(atomicWriteFile(path, "first").isOk());
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(atomicWriteFile(path, "second, longer content").isOk());
    EXPECT_EQ(slurp(path), "second, longer content");
    // Temp names are unique per writer (<path>.tmp.<pid>.<serial>);
    // none may survive a successful write.
    for (const auto &item : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(item.path().filename().string().find(".tmp"),
                  std::string::npos)
            << "temp file left behind: " << item.path();
}

TEST(AtomicFile, WriteIntoMissingDirectoryReturnsIoErrorNamingPath)
{
    const std::string path = testDir("missing") + "/nope/artifact.json";
    const Status bad = atomicWriteFile(path, "content");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), ErrorCode::IoError);
    EXPECT_NE(bad.message().find("artifact.json"), std::string::npos);
}

// ---------------------------------------------------------------------
// base/retry
// ---------------------------------------------------------------------

TEST(RetryPolicy, RetriesOnlyTransientErrorsWithinBudget)
{
    RetryPolicy policy;
    policy.maxAttempts = 3;
    EXPECT_TRUE(policy.shouldRetry(ioError("disk hiccup"), 1));
    EXPECT_TRUE(policy.shouldRetry(exhaustedError("degraded round"), 2));
    EXPECT_FALSE(policy.shouldRetry(ioError("disk hiccup"), 3));
    EXPECT_FALSE(policy.shouldRetry(invalidArgumentError("bad flag"), 1));
    EXPECT_FALSE(policy.shouldRetry(parseError("bad spec"), 1));
    EXPECT_FALSE(policy.shouldRetry(Status::ok(), 1));
    EXPECT_FALSE(RetryPolicy::none().shouldRetry(ioError("x"), 1));
}

TEST(RetryPolicy, DelaysAreDeterministicJitteredAndClamped)
{
    RetryPolicy policy;
    policy.maxAttempts = 10;
    policy.baseDelaySeconds = 1.0;
    policy.backoffMultiplier = 2.0;
    policy.maxDelaySeconds = 4.0;
    policy.jitterFraction = 0.25;
    policy.seed = 42;

    const std::uint64_t salt = retrySalt("table1_fingerprinting");
    for (int attempt = 1; attempt <= 6; ++attempt) {
        const double a = policy.delaySeconds(attempt, salt);
        const double b = policy.delaySeconds(attempt, salt);
        EXPECT_EQ(a, b) << "same inputs must give the same delay";
        const double nominal =
            std::min(policy.maxDelaySeconds, 1.0 * (1 << (attempt - 1)));
        EXPECT_GE(a, nominal * 0.75 - 1e-12);
        EXPECT_LE(a, nominal * 1.25 + 1e-12);
    }

    // Different salts decorrelate the jitter streams.
    std::set<double> delays;
    for (int i = 0; i < 8; ++i)
        delays.insert(policy.delaySeconds(
            1, retrySalt("experiment_" + std::to_string(i))));
    EXPECT_GT(delays.size(), 1u);

    // Zero jitter means the schedule is exactly the backoff curve.
    policy.jitterFraction = 0.0;
    EXPECT_EQ(policy.delaySeconds(1, salt), 1.0);
    EXPECT_EQ(policy.delaySeconds(2, salt), 2.0);
    EXPECT_EQ(policy.delaySeconds(3, salt), 4.0);
    EXPECT_EQ(policy.delaySeconds(4, salt), 4.0); // Clamped.
}

TEST(RetryPolicy, SaltIsAStableHash)
{
    EXPECT_EQ(retrySalt("abc"), retrySalt("abc"));
    EXPECT_NE(retrySalt("abc"), retrySalt("abd"));
    EXPECT_NE(retrySalt(""), retrySalt("a"));
}

// ---------------------------------------------------------------------
// SuiteManifest
// ---------------------------------------------------------------------

ExperimentOutcome
outcome(const std::string &name, RunState state, int attempts = 1)
{
    ExperimentOutcome o;
    o.name = name;
    o.state = state;
    o.attempts = attempts;
    return o;
}

TEST(SuiteManifest, CountsStatesAndComputesExitCodes)
{
    SuiteManifest m;
    m.outcomes.push_back(outcome("a", RunState::Ok));
    m.outcomes.push_back(outcome("b", RunState::Retried, 2));
    EXPECT_TRUE(m.allOk());
    EXPECT_EQ(m.exitCode(), 0);
    EXPECT_EQ(m.count(RunState::Ok), 1u);
    EXPECT_EQ(m.count(RunState::Retried), 1u);

    m.outcomes.push_back(outcome("c", RunState::Crashed));
    EXPECT_FALSE(m.allOk());
    EXPECT_EQ(m.exitCode(), 1);

    m.interrupted = true;
    EXPECT_EQ(m.exitCode(), 130);
}

TEST(SuiteManifest, JsonCarriesPerExperimentRecordsAndWritesAtomically)
{
    SuiteManifest m;
    ExperimentOutcome o = outcome("table1", RunState::Failed, 3);
    o.exitCode = 1;
    o.wallSeconds = 1.5;
    o.message = "child exited with code 1";
    o.collectedTraces = 120;
    o.droppedTraces = 3;
    o.artifactPath = "/tmp/out/table1.json";
    m.outcomes.push_back(o);

    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"name\": \"table1\""), std::string::npos);
    EXPECT_NE(json.find("\"state\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"attempts\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"traces\": {\"collected\": 120, \"dropped\": 3}"),
              std::string::npos);
    EXPECT_NE(json.find("\"exitCode\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"interrupted\": false"), std::string::npos);

    const std::string dir = testDir("manifest");
    ASSERT_TRUE(createDirectories(dir).isOk());
    ASSERT_TRUE(m.write(dir + "/suite-manifest.json").isOk());
    EXPECT_EQ(slurp(dir + "/suite-manifest.json"), json);
}

TEST(SuiteManifest, ParseTraceAccountingRoundTrips)
{
    std::size_t collected = 0, dropped = 0;
    EXPECT_TRUE(parseTraceAccounting(
        "{\n  \"traces\": {\"collected\": 42, \"dropped\": 7},\n}",
        &collected, &dropped));
    EXPECT_EQ(collected, 42u);
    EXPECT_EQ(dropped, 7u);
    EXPECT_FALSE(parseTraceAccounting("{}", &collected, &dropped));
    EXPECT_FALSE(
        parseTraceAccounting("\"traces\": oops", &collected, &dropped));
}

// ---------------------------------------------------------------------
// Supervisor — in-process mode
// ---------------------------------------------------------------------

/** A retry policy with effectively-zero sleeps, for fast tests. */
RetryPolicy
fastRetry(int max_attempts)
{
    RetryPolicy policy;
    policy.maxAttempts = max_attempts;
    policy.baseDelaySeconds = 0.001;
    policy.maxDelaySeconds = 0.001;
    policy.jitterFraction = 0.0;
    return policy;
}

ChildPlan
noChild(const std::string &)
{
    return ChildPlan{};
}

TEST(Supervisor, RetriesTransientFailuresDeterministically)
{
    SupervisorOptions options;
    options.retry = fastRetry(3);
    int calls = 0;
    const SuiteManifest m = Supervisor(options).run(
        {"flaky"},
        [&](const std::string &, ExperimentOutcome &) -> Status {
            ++calls;
            if (calls < 3)
                return ioError("transient");
            return Status::ok();
        },
        noChild);
    EXPECT_EQ(calls, 3);
    ASSERT_EQ(m.outcomes.size(), 1u);
    EXPECT_EQ(m.outcomes[0].state, RunState::Retried);
    EXPECT_EQ(m.outcomes[0].attempts, 3);
    EXPECT_EQ(m.exitCode(), 0);
}

TEST(Supervisor, PermanentErrorsAreNotRetried)
{
    SupervisorOptions options;
    options.retry = fastRetry(5);
    int calls = 0;
    const SuiteManifest m = Supervisor(options).run(
        {"broken"},
        [&](const std::string &, ExperimentOutcome &) -> Status {
            ++calls;
            return invalidArgumentError("bad config");
        },
        noChild);
    EXPECT_EQ(calls, 1) << "InvalidArgument must not burn retries";
    EXPECT_EQ(m.outcomes[0].state, RunState::Failed);
    EXPECT_NE(m.outcomes[0].message.find("bad config"), std::string::npos);
    EXPECT_EQ(m.exitCode(), 1);
}

TEST(Supervisor, FailureSkipsRemainderWithoutKeepGoing)
{
    SupervisorOptions options;
    std::vector<std::string> ran;
    const auto run = [&](const std::string &name,
                         ExperimentOutcome &) -> Status {
        ran.push_back(name);
        return name == "b" ? ioError("boom") : Status::ok();
    };
    const SuiteManifest m =
        Supervisor(options).run({"a", "b", "c", "d"}, run, noChild);
    EXPECT_EQ(ran, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(m.outcomes[0].state, RunState::Ok);
    EXPECT_EQ(m.outcomes[1].state, RunState::Failed);
    EXPECT_EQ(m.outcomes[2].state, RunState::Skipped);
    EXPECT_EQ(m.outcomes[3].state, RunState::Skipped);
    EXPECT_EQ(m.outcomes[2].attempts, 0);
    EXPECT_EQ(m.exitCode(), 1);
}

TEST(Supervisor, KeepGoingRunsEverythingAndStillFailsTheSuite)
{
    SupervisorOptions options;
    options.keepGoing = true;
    std::vector<std::string> ran;
    const auto run = [&](const std::string &name,
                         ExperimentOutcome &) -> Status {
        ran.push_back(name);
        return name == "b" ? ioError("boom") : Status::ok();
    };
    const SuiteManifest m =
        Supervisor(options).run({"a", "b", "c"}, run, noChild);
    EXPECT_EQ(ran, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(m.outcomes[2].state, RunState::Ok);
    EXPECT_FALSE(m.allOk());
    EXPECT_EQ(m.exitCode(), 1);
}

TEST(Supervisor, InterruptSkipsRemainingExperimentsAndExits130)
{
    static volatile std::sig_atomic_t interrupted = 0;
    interrupted = 0;
    SupervisorOptions options;
    options.interrupted = &interrupted;
    const auto run = [&](const std::string &name,
                         ExperimentOutcome &) -> Status {
        if (name == "a")
            interrupted = 1; // Signal arrives mid-first-experiment.
        return Status::ok();
    };
    const SuiteManifest m =
        Supervisor(options).run({"a", "b", "c"}, run, noChild);
    EXPECT_TRUE(m.interrupted);
    EXPECT_EQ(m.outcomes[0].state, RunState::Ok);
    EXPECT_EQ(m.outcomes[1].state, RunState::Skipped);
    EXPECT_EQ(m.outcomes[2].state, RunState::Skipped);
    EXPECT_EQ(m.exitCode(), 130);
}

TEST(Supervisor, ManifestIsFlushedAfterEveryExperiment)
{
    const std::string dir = testDir("flush");
    ASSERT_TRUE(createDirectories(dir).isOk());
    SupervisorOptions options;
    options.keepGoing = true;
    options.manifestPath = dir + "/suite-manifest.json";

    std::vector<std::string> snapshots;
    const auto run = [&](const std::string &,
                         ExperimentOutcome &) -> Status {
        // Capture what was on disk when this experiment STARTED.
        std::ifstream in(options.manifestPath);
        std::ostringstream text;
        text << in.rdbuf();
        snapshots.push_back(text.str());
        return Status::ok();
    };
    const SuiteManifest manifest =
        Supervisor(options).run({"a", "b"}, run, noChild);
    EXPECT_TRUE(manifest.allOk());
    ASSERT_EQ(snapshots.size(), 2u);
    EXPECT_EQ(snapshots[0], "") << "no manifest before the first run";
    EXPECT_NE(snapshots[1].find("\"name\": \"a\""), std::string::npos)
        << "manifest flushed after experiment a, before b started";
    const std::string final_manifest = slurp(options.manifestPath);
    EXPECT_NE(final_manifest.find("\"name\": \"b\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Supervisor — isolate mode (real /bin/sh children)
// ---------------------------------------------------------------------

ChildCommand
shellChild(const std::string &script)
{
    return [script](const std::string &) {
        ChildPlan plan;
        plan.argv = {"/bin/sh", "-c", script};
        return plan;
    };
}

Status
mustNotRunInProcess(const std::string &, ExperimentOutcome &)
{
    ADD_FAILURE() << "isolate mode must not run in-process";
    return invalidArgumentError("unreachable");
}

TEST(SupervisorIsolate, SuccessfulChildReportsOk)
{
    SupervisorOptions options;
    options.isolate = true;
    const SuiteManifest m = Supervisor(options).run(
        {"child"}, mustNotRunInProcess, shellChild("exit 0"));
    ASSERT_EQ(m.outcomes.size(), 1u);
    EXPECT_EQ(m.outcomes[0].state, RunState::Ok);
    EXPECT_EQ(m.outcomes[0].exitCode, 0);
}

TEST(SupervisorIsolate, FailingChildReportsExitCode)
{
    SupervisorOptions options;
    options.isolate = true;
    const SuiteManifest m = Supervisor(options).run(
        {"child"}, mustNotRunInProcess, shellChild("exit 3"));
    EXPECT_EQ(m.outcomes[0].state, RunState::Failed);
    EXPECT_EQ(m.outcomes[0].exitCode, 3);
    EXPECT_EQ(m.exitCode(), 1);
}

TEST(SupervisorIsolate, CrashingChildIsContainedAndReported)
{
    SupervisorOptions options;
    options.isolate = true;
    options.keepGoing = true;
    const SuiteManifest m = Supervisor(options).run(
        {"crasher"}, mustNotRunInProcess,
        shellChild("kill -ABRT $$"));
    EXPECT_EQ(m.outcomes[0].state, RunState::Crashed);
    EXPECT_EQ(m.outcomes[0].exitCode, 128 + SIGABRT);
    EXPECT_NE(m.outcomes[0].message.find("signal"), std::string::npos);
}

TEST(SupervisorIsolate, HungChildIsKilledAtTheDeadline)
{
    SupervisorOptions options;
    options.isolate = true;
    options.timeoutSeconds = 0.3;
    const SuiteManifest m = Supervisor(options).run(
        {"hung"}, mustNotRunInProcess, shellChild("sleep 30"));
    EXPECT_EQ(m.outcomes[0].state, RunState::Timeout);
    EXPECT_EQ(m.outcomes[0].exitCode, 128 + SIGKILL);
    EXPECT_LT(m.outcomes[0].wallSeconds, 10.0);
    EXPECT_EQ(m.exitCode(), 1);
}

TEST(SupervisorIsolate, CrashedChildIsRetriedPerPolicy)
{
    const std::string dir = testDir("retry_marker");
    ASSERT_TRUE(createDirectories(dir).isOk());
    SupervisorOptions options;
    options.isolate = true;
    options.retry = fastRetry(3);
    // Crash until the marker file exists, then succeed: models a
    // transient crash that a retry (with progress kept in the stage
    // cache) survives.
    const std::string script = "if [ -e " + dir + "/marker ]; then exit 0; "
                               "else touch " + dir + "/marker; "
                               "kill -ABRT $$; fi";
    const SuiteManifest m = Supervisor(options).run(
        {"flaky_crasher"}, mustNotRunInProcess, shellChild(script));
    EXPECT_EQ(m.outcomes[0].state, RunState::Retried);
    EXPECT_EQ(m.outcomes[0].attempts, 2);
    EXPECT_EQ(m.exitCode(), 0);
}

TEST(SupervisorIsolate, UsageErrorExitCode2IsNotRetried)
{
    const std::string dir = testDir("usage_marker");
    ASSERT_TRUE(createDirectories(dir).isOk());
    SupervisorOptions options;
    options.isolate = true;
    options.retry = fastRetry(5);
    const std::string script =
        "touch " + dir + "/attempt_$$; exit 2";
    const SuiteManifest m = Supervisor(options).run(
        {"usage"}, mustNotRunInProcess, shellChild(script));
    EXPECT_EQ(m.outcomes[0].state, RunState::Failed);
    EXPECT_EQ(m.outcomes[0].exitCode, 2);
    EXPECT_EQ(m.outcomes[0].attempts, 1);
}

} // namespace
} // namespace bigfish::core
