/**
 * @file
 * Death / exit-code tests driving the REAL flatsim binary (its path is
 * baked in as FLAT_FLATSIM_PATH). The shell-based smoke tests in
 * tools/CMakeLists.txt assert exit codes only; this suite additionally
 * pins the stderr contract — every failure ends with one well-formed
 * JSON diagnostic record whose "kind" matches the exit code:
 *
 *   0 success, 1 config/infeasible, 2 usage, 3 internal/oom/timeout,
 *   4 sweep completed with failed points, 5 cancelled (signal drain).
 *
 * Plus the long-run contract: --journal/--resume survive a mid-sweep
 * crash (kCrash fault = SIGABRT) and a SIGINT drain, and the resumed
 * output is identical to an uninterrupted run's.
 */
#include <sys/wait.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "support/minijson.h"

namespace {

struct CliResult {
    int exit_code = -1;
    std::string stderr_text;
};

std::string
flatsim_path()
{
#ifdef FLAT_FLATSIM_PATH
    return FLAT_FLATSIM_PATH;
#else
    return "flatsim";
#endif
}

/** The shell command running `flatsim <args>` with @p redirect. Built
 *  by appends: GCC 12's -Wrestrict misreads `"'" + std::string` as an
 *  overlapping copy. */
std::string
flatsim_command(const std::string& args, const char* redirect)
{
    std::string command = "'";
    command += flatsim_path();
    command += "' ";
    command += args;
    command += redirect;
    return command;
}

/** Runs `flatsim <args>`, capturing exit code and stderr. */
CliResult
run_flatsim(const std::string& args)
{
    // 2>&1 1>/dev/null: the pipe sees stderr only; stdout is dropped.
    const std::string command = flatsim_command(args, " 2>&1 1>/dev/null");
    std::FILE* pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << "popen failed for: " << command;
    CliResult result;
    if (pipe == nullptr) {
        return result;
    }
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        result.stderr_text.append(buf, n);
    }
    const int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/** Last non-empty stderr line — the machine-readable diagnostic. */
std::string
last_line(const std::string& text)
{
    std::size_t end = text.size();
    while (end > 0 && text[end - 1] == '\n') {
        --end;
    }
    const std::size_t start = text.rfind('\n', end - 1);
    return text.substr(start == std::string::npos ? 0 : start + 1,
                       end - (start == std::string::npos ? 0 : start + 1));
}

/** Asserts the stderr tail is one JSON diagnostic of @p kind. */
void
expect_json_diagnostic(const CliResult& result, const std::string& kind)
{
    ASSERT_FALSE(result.stderr_text.empty());
    const std::string record = last_line(result.stderr_text);
    flat::testing::FlatJson doc;
    ASSERT_NO_THROW(doc = flat::testing::parse_flat_json(record))
        << "stderr tail is not well-formed JSON: " << record;
    ASSERT_TRUE(doc.count("kind")) << record;
    EXPECT_EQ(doc.at("kind"), "\"" + kind + "\"") << record;
    ASSERT_TRUE(doc.count("severity")) << record;
    EXPECT_EQ(doc.at("severity"), "\"error\"") << record;
    EXPECT_TRUE(doc.count("message")) << record;
}

struct CliOutput {
    int exit_code = -1;
    std::string stdout_text;
};

/** Runs `flatsim <args>`, capturing exit code and stdout. */
CliOutput
run_flatsim_stdout(const std::string& args)
{
    const std::string command = flatsim_command(args, " 2>/dev/null");
    std::FILE* pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << "popen failed for: " << command;
    CliOutput result;
    if (pipe == nullptr) {
        return result;
    }
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        result.stdout_text.append(buf, n);
    }
    const int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/** @p text with the value of every "field": key replaced by 0. wall_ms
 *  is the only run-to-run noise in sweep JSON, and cost_journal_hits
 *  the only field a resumed serve run may change (costs replay from
 *  the journal instead of the DSE). */
std::string
scrub(const std::string& text, const std::string& field)
{
    const std::string key = "\"" + field + "\":";
    std::string out;
    out.reserve(text.size());
    std::size_t pos = 0;
    while (true) {
        const std::size_t hit = text.find(key, pos);
        if (hit == std::string::npos) {
            out.append(text, pos, std::string::npos);
            return out;
        }
        out.append(text, pos, hit + key.size() - pos);
        out.push_back('0');
        std::size_t end = hit + key.size();
        while (end < text.size() && text[end] != ',' &&
               text[end] != '}') {
            ++end;
        }
        pos = end;
    }
}

/** The raw value of the first "key": field of a JSON report ("" when
 *  absent). */
std::string
json_field(const std::string& text, const std::string& field)
{
    const std::string key = "\"" + field + "\":";
    const std::size_t hit = text.find(key);
    if (hit == std::string::npos) {
        return "";
    }
    const std::size_t begin = hit + key.size();
    std::size_t end = begin;
    while (end < text.size() && text[end] != ',' && text[end] != '}') {
        ++end;
    }
    return text.substr(begin, end - begin);
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
write_file(const std::string& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    EXPECT_TRUE(out.is_open()) << path;
    out << text;
}

/** Writes the 8-point smoke sweep spec used by the long-run tests. */
std::string
write_sweep_spec(const std::string& name)
{
    std::ofstream spec(name);
    EXPECT_TRUE(spec.is_open());
    spec << "models = bert\nplatforms = edge\n"
         << "policies = flat-opt, base\nseq = 256, 512\n"
         << "batch = 2, 4\nscope = la\nquick = true\n";
    return name;
}

TEST(FlatsimCli, SuccessExitsZeroWithSilentStderr)
{
    const CliResult result =
        run_flatsim("--model bert --seq 512 --scope la --quick");
    EXPECT_EQ(result.exit_code, 0);
    EXPECT_TRUE(result.stderr_text.empty()) << result.stderr_text;
}

TEST(FlatsimCli, UnknownFlagExitsTwo)
{
    const CliResult result = run_flatsim("--frobnicate");
    EXPECT_EQ(result.exit_code, 2);
}

TEST(FlatsimCli, BadNumericFlagExitsTwoWithUsageDiagnostic)
{
    const CliResult result = run_flatsim("--seq banana");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, MissingFlagValueExitsTwo)
{
    const CliResult result = run_flatsim("--seq");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, BadShardAxisExitsTwo)
{
    const CliResult result =
        run_flatsim("--devices 4 --shard-axis sideways");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, MalformedFaultSpecExitsTwo)
{
    const CliResult result = run_flatsim("--inject-fault ':::bogus'");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, UnknownStyleExitsTwoWithUsageDiagnostic)
{
    const CliResult result = run_flatsim("--style bogus --scope la");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
    EXPECT_NE(result.stderr_text.find("--list-styles"),
              std::string::npos)
        << result.stderr_text;
}

TEST(FlatsimCli, ListStylesPrintsTheRegistryInOrder)
{
    const CliOutput result = run_flatsim_stdout("--list-styles");
    EXPECT_EQ(result.exit_code, 0);
    // Registry order: the four ids appear, each at an increasing
    // offset, and "all" is documented as the expansion token.
    std::size_t pos = 0;
    for (const char* id : {"baseline", "flat", "pipelined", "flash"}) {
        const std::size_t at = result.stdout_text.find(
            std::string("\n  ") + id, pos);
        EXPECT_NE(at, std::string::npos)
            << "style '" << id << "' missing after offset " << pos
            << " in:\n" << result.stdout_text;
        pos = at == std::string::npos ? pos : at;
    }
    EXPECT_NE(result.stdout_text.find("'all'"), std::string::npos);
}

TEST(FlatsimCli, FlashStyleRunsEndToEnd)
{
    const CliOutput result = run_flatsim_stdout(
        "--style flash --scope la --quick --json");
    EXPECT_EQ(result.exit_code, 0);
    EXPECT_NE(result.stdout_text.find("\"picked_dataflow\":\"flash:"),
              std::string::npos)
        << result.stdout_text;
}

TEST(FlatsimCli, CommaSeparatedStyleListIsAccepted)
{
    const CliResult result = run_flatsim(
        "--style flat,flash --scope la --quick");
    EXPECT_EQ(result.exit_code, 0);
    EXPECT_TRUE(result.stderr_text.empty()) << result.stderr_text;
}

TEST(FlatsimCli, UnknownModelExitsOneWithConfigDiagnostic)
{
    const CliResult result = run_flatsim("--model gpt17");
    EXPECT_EQ(result.exit_code, 1);
    expect_json_diagnostic(result, "config");
}

TEST(FlatsimCli, MissingPlatformFileExitsOne)
{
    const CliResult result =
        run_flatsim("--platform-file /nonexistent/platform.cfg");
    EXPECT_EQ(result.exit_code, 1);
    expect_json_diagnostic(result, "config");
}

TEST(FlatsimCli, MissingScaleOutFileFailsBeforeTheSearch)
{
    // The fabric resolves with the other inputs, so a bad one stops the
    // run before its journal, let alone its search, is started.
    const std::string journal = "flatsim_cli_fabric_journal.jsonl";
    std::remove(journal.c_str());
    const CliResult result = run_flatsim(
        "--model bert --seq 512 --scope la --quick --journal " + journal +
        " --scaleout-file /nonexistent/fabric.cfg");
    EXPECT_EQ(result.exit_code, 1);
    expect_json_diagnostic(result, "config");
    EXPECT_FALSE(std::ifstream(journal).good());
    std::remove(journal.c_str());
}

TEST(FlatsimCli, InfeasibleScaleOutExitsOne)
{
    // bert has 12 heads: a pinned head shard across 16 devices cannot
    // be satisfied, and neither can batch=2 or seq=64 cover 16.
    const CliResult result = run_flatsim(
        "--model bert --seq 64 --batch 2 --scope la --quick "
        "--devices 16 --shard-axis head");
    EXPECT_EQ(result.exit_code, 1);
    expect_json_diagnostic(result, "config");
}

TEST(FlatsimCli, ScaleOutRunExitsZero)
{
    const CliResult result = run_flatsim(
        "--model bert --seq 1024 --scope la --quick --devices 4 "
        "--shard-axis seq --topology ring --link-bw 300GB/s");
    EXPECT_EQ(result.exit_code, 0);
    EXPECT_TRUE(result.stderr_text.empty()) << result.stderr_text;
}

TEST(FlatsimCli, InjectedInternalFaultExitsThree)
{
    const CliResult result = run_flatsim(
        "--seq 512 --scope la --quick "
        "--inject-fault dse.search_attention:0:internal");
    EXPECT_EQ(result.exit_code, 3);
    expect_json_diagnostic(result, "internal");
}

TEST(FlatsimCli, InjectedOomExitsThree)
{
    const CliResult result = run_flatsim(
        "--seq 512 --scope la --quick "
        "--inject-fault dse.search_attention:0:oom");
    EXPECT_EQ(result.exit_code, 3);
    expect_json_diagnostic(result, "oom");
}

TEST(FlatsimCli, PoisonedSweepPointExitsFour)
{
    const std::string spec_path = "flatsim_cli_poison.sweep";
    {
        std::ofstream spec(spec_path);
        ASSERT_TRUE(spec.is_open());
        spec << "models = bert\nplatforms = edge\n"
             << "policies = flat-opt, base\nseq = 256, 512\n"
             << "batch = 2, 4\nscope = la\nquick = true\n";
    }
    const CliResult result = run_flatsim(
        "--sweep " + spec_path + " --json --inject-fault sweep.point:3");
    std::remove(spec_path.c_str());
    EXPECT_EQ(result.exit_code, 4);
}

TEST(FlatsimCli, JournalingKeepsSingleRunOutputBitIdentical)
{
    const std::string journal = "flatsim_cli_run_journal.jsonl";
    std::remove(journal.c_str());
    const std::string args = "--model bert --seq 1024 --scope la "
                             "--quick --json";
    const CliOutput plain = run_flatsim_stdout(args);
    const CliOutput journaled =
        run_flatsim_stdout(args + " --journal " + journal);
    const CliOutput resumed =
        run_flatsim_stdout(args + " --resume " + journal);
    std::remove(journal.c_str());
    EXPECT_EQ(plain.exit_code, 0);
    EXPECT_EQ(journaled.exit_code, 0);
    EXPECT_EQ(resumed.exit_code, 0);
    EXPECT_EQ(plain.stdout_text, journaled.stdout_text);
    EXPECT_EQ(plain.stdout_text, resumed.stdout_text);
}

TEST(FlatsimCli, GoldenTraceJsonBitIdenticalWithJournalingEnabled)
{
    const std::string journal = "flatsim_cli_trace_journal.jsonl";
    std::remove(journal.c_str());
    // The golden-trace configs pin --trace-json bytes; journaling (and
    // resuming) must never perturb them.
    const std::string args = "--model bert --seq 2048 --scope la "
                             "--quick --trace-json";
    const CliOutput plain = run_flatsim_stdout(args);
    const CliOutput journaled =
        run_flatsim_stdout(args + " --journal " + journal);
    const CliOutput resumed =
        run_flatsim_stdout(args + " --resume " + journal);
    std::remove(journal.c_str());
    EXPECT_EQ(plain.exit_code, 0);
    EXPECT_EQ(plain.stdout_text, journaled.stdout_text);
    EXPECT_EQ(plain.stdout_text, resumed.stdout_text);
}

TEST(FlatsimCli, CrashedSweepResumesToTheIdenticalReport)
{
    const std::string spec = write_sweep_spec("flatsim_cli_crash.sweep");
    const std::string journal = "flatsim_cli_crash_journal.jsonl";
    std::remove(journal.c_str());

    const CliOutput fresh =
        run_flatsim_stdout("--sweep " + spec + " --json");
    ASSERT_EQ(fresh.exit_code, 0);

    // Kill the run mid-sweep via the deterministic crash probe
    // (std::abort -> SIGABRT -> the shell reports 128+6).
    const CliOutput crashed = run_flatsim_stdout(
        "--sweep " + spec + " --json --journal " + journal +
        " --inject-fault sweep.point:5:crash");
    EXPECT_EQ(crashed.exit_code, 134);

    const CliOutput resumed = run_flatsim_stdout(
        "--sweep " + spec + " --json --resume " + journal);
    std::remove(spec.c_str());
    std::remove(journal.c_str());
    EXPECT_EQ(resumed.exit_code, 0);
    EXPECT_EQ(scrub(resumed.stdout_text, "wall_ms"),
              scrub(fresh.stdout_text, "wall_ms"));
}

TEST(FlatsimCli, SigintDrainsGracefullyWithExitFive)
{
    const std::string spec = write_sweep_spec("flatsim_cli_drain.sweep");
    const std::string journal = "flatsim_cli_drain_journal.jsonl";
    std::remove(journal.c_str());

    // Point 0 sleeps 3 s; SIGINT arrives after ~1 s. The drain lets the
    // running point finish, marks the rest cancelled and exits 5.
    const std::string script =
        "'" + flatsim_path() + "' --sweep " + spec +
        " --threads 1 --journal " + journal +
        " --inject-fault sweep.point:0:delay=3000"
        " > flatsim_cli_drain.out 2>&1 & pid=$!; sleep 1; "
        "kill -INT $pid; wait $pid; echo $?";
    std::FILE* pipe = popen(script.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    char buf[64];
    std::string echoed;
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        echoed.append(buf, n);
    }
    pclose(pipe);
    EXPECT_EQ(echoed.substr(0, echoed.find('\n')), "5");

    std::ifstream out("flatsim_cli_drain.out");
    const std::string text((std::istreambuf_iterator<char>(out)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("cancelled"), std::string::npos) << text;

    // The drained journal resumes to the uninterrupted report.
    const CliOutput fresh =
        run_flatsim_stdout("--sweep " + spec + " --json");
    const CliOutput resumed = run_flatsim_stdout(
        "--sweep " + spec + " --json --resume " + journal);
    std::remove(spec.c_str());
    std::remove(journal.c_str());
    std::remove("flatsim_cli_drain.out");
    EXPECT_EQ(resumed.exit_code, 0);
    EXPECT_EQ(scrub(resumed.stdout_text, "wall_ms"),
              scrub(fresh.stdout_text, "wall_ms"));
}

TEST(FlatsimCli, ClosedStdoutPipeKeepsTheRunExitCode)
{
    const std::string spec = write_sweep_spec("flatsim_cli_pipe.sweep");
    const std::string script =
        "( '" + flatsim_path() + "' --sweep " + spec +
        " --json; echo $? > flatsim_cli_pipe.code )"
        " | head -c 32 > /dev/null; cat flatsim_cli_pipe.code";
    std::FILE* pipe = popen(script.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    char buf[64];
    std::string echoed;
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        echoed.append(buf, n);
    }
    pclose(pipe);
    std::remove(spec.c_str());
    std::remove("flatsim_cli_pipe.code");
    EXPECT_EQ(echoed.substr(0, echoed.find('\n')), "0");
}

TEST(FlatsimCli, StaleJournalExitsOneWithConfigDiagnostic)
{
    const std::string journal = "flatsim_cli_stale_journal.jsonl";
    std::remove(journal.c_str());
    ASSERT_EQ(run_flatsim_stdout("--model bert --seq 512 --scope la "
                                 "--quick --journal " + journal)
                  .exit_code,
              0);
    // A different sequence length is a different search space.
    const CliResult result =
        run_flatsim("--model bert --seq 1024 --scope la --quick "
                    "--resume " + journal);
    std::remove(journal.c_str());
    EXPECT_EQ(result.exit_code, 1);
    expect_json_diagnostic(result, "config");
    EXPECT_NE(result.stderr_text.find("stale"), std::string::npos);
}

TEST(FlatsimCli, SweepResumeUnderOtherStylesIsStale)
{
    // Every point's search enumerates the styles: a journal written
    // under --style all must not replay its picks into a default run.
    const std::string spec = "flatsim_cli_styles.sweep";
    {
        std::ofstream out(spec);
        out << "models = bert\nplatforms = edge\npolicies = flat-opt\n"
            << "seq = 256, 512\nbatch = 2\nscope = la\nquick = true\n";
    }
    const std::string journal = "flatsim_cli_styles_journal.jsonl";
    std::remove(journal.c_str());
    ASSERT_EQ(run_flatsim_stdout("--sweep " + spec + " --style all "
                                 "--journal " + journal)
                  .exit_code,
              0);
    const CliResult other =
        run_flatsim("--sweep " + spec + " --resume " + journal);
    const CliOutput same = run_flatsim_stdout(
        "--sweep " + spec + " --style all --resume " + journal);
    std::remove(spec.c_str());
    std::remove(journal.c_str());
    EXPECT_EQ(other.exit_code, 1);
    expect_json_diagnostic(other, "config");
    EXPECT_NE(other.stderr_text.find("stale"), std::string::npos);
    EXPECT_EQ(same.exit_code, 0);
}

TEST(FlatsimCli, JournalAndResumeAreMutuallyExclusive)
{
    const CliResult result =
        run_flatsim("--journal a.jsonl --resume b.jsonl");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, MissingResumeJournalExitsOne)
{
    for (const char* mode : {"--scope la", "--block"}) {
        const CliResult result = run_flatsim(
            std::string("--model bert --seq 512 --quick ") + mode +
            " --resume /nonexistent/journal.jsonl");
        EXPECT_EQ(result.exit_code, 1) << mode;
        expect_json_diagnostic(result, "config");
    }
}

// ---------------------------------------------------------------------
// --serve: the request-level traffic simulator's CLI contract.

TEST(FlatsimCli, ServeUnknownSchedPolicyExitsTwo)
{
    const CliResult result = run_flatsim("--serve --sched lifo");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
    EXPECT_NE(result.stderr_text.find("lifo"), std::string::npos);
}

TEST(FlatsimCli, ServeUnknownArrivalKindExitsTwo)
{
    const CliResult result = run_flatsim("--serve --arrival uniform");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, ServeReplayWithoutTraceFileExitsTwo)
{
    const CliResult result = run_flatsim("--serve --arrival replay");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
    EXPECT_NE(result.stderr_text.find("--arrival-file"),
              std::string::npos);
}

TEST(FlatsimCli, ServeMissingTraceFileExitsTwo)
{
    const CliResult result = run_flatsim(
        "--serve --arrival replay "
        "--arrival-file /nonexistent/trace.csv");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, ServeMalformedTraceRowExitsTwo)
{
    const std::string trace = "flatsim_cli_bad_trace.csv";
    {
        std::ofstream out(trace);
        ASSERT_TRUE(out.is_open());
        out << "0.5, banana, 8\n";
    }
    const CliResult result = run_flatsim(
        "--serve --arrival replay --arrival-file " + trace);
    std::remove(trace.c_str());
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, ServeBadRateExitsTwo)
{
    const CliResult result = run_flatsim("--serve --rate -3");
    EXPECT_EQ(result.exit_code, 2);
    expect_json_diagnostic(result, "usage");
}

TEST(FlatsimCli, ServeExcludesSweepAndTrace)
{
    EXPECT_EQ(run_flatsim("--serve --sweep spec.txt").exit_code, 2);
    EXPECT_EQ(run_flatsim("--serve --trace").exit_code, 2);
}

TEST(FlatsimCli, ServeRunsEndToEndWithJsonReport)
{
    const CliOutput result = run_flatsim_stdout(
        "--serve --model bert --serve-requests 4 --quick --json");
    EXPECT_EQ(result.exit_code, 0);
    EXPECT_NE(result.stdout_text.find("\"tokens_per_s\""),
              std::string::npos);
    EXPECT_NE(result.stdout_text.find("\"completed\":4"),
              std::string::npos);
    EXPECT_NE(result.stdout_text.find("\"cancelled\":false"),
              std::string::npos);
}

TEST(FlatsimCli, ServeReplayTraceRunsEndToEnd)
{
    const std::string trace = "flatsim_cli_replay.csv";
    {
        std::ofstream out(trace);
        ASSERT_TRUE(out.is_open());
        out << "# t, prompt, output\n"
            << "0.0, 128, 2\n0.1, 256, 2\n0.2, 64, 2\n";
    }
    const CliOutput result = run_flatsim_stdout(
        "--serve --arrival replay --arrival-file " + trace +
        " --quick --json");
    std::remove(trace.c_str());
    EXPECT_EQ(result.exit_code, 0);
    EXPECT_NE(result.stdout_text.find("\"completed\":3"),
              std::string::npos);
}

TEST(FlatsimCli, ServeJournalResumeIsBitIdentical)
{
    const std::string journal = "flatsim_cli_serve_journal.jsonl";
    std::remove(journal.c_str());
    const std::string args =
        "--serve --model bert --serve-requests 6 --quick --json";
    const CliOutput plain = run_flatsim_stdout(args);
    const CliOutput journaled =
        run_flatsim_stdout(args + " --journal " + journal);
    const CliOutput resumed =
        run_flatsim_stdout(args + " --resume " + journal);
    std::remove(journal.c_str());
    EXPECT_EQ(plain.exit_code, 0);
    EXPECT_EQ(journaled.exit_code, 0);
    EXPECT_EQ(resumed.exit_code, 0);
    EXPECT_EQ(plain.stdout_text, journaled.stdout_text);
    EXPECT_EQ(scrub(plain.stdout_text, "cost_journal_hits"),
              scrub(resumed.stdout_text, "cost_journal_hits"));
    // The resume actually replayed costs rather than re-searching.
    EXPECT_EQ(resumed.stdout_text.find("\"cost_journal_hits\":0"),
              std::string::npos);
}

TEST(FlatsimCli, ServeStaleJournalExitsOne)
{
    const std::string journal = "flatsim_cli_serve_stale.jsonl";
    std::remove(journal.c_str());
    ASSERT_EQ(run_flatsim_stdout("--serve --model bert "
                                 "--serve-requests 4 --quick "
                                 "--journal " + journal)
                  .exit_code,
              0);
    // One more request is a different trace, hence a different space.
    const CliResult result =
        run_flatsim("--serve --model bert --serve-requests 5 --quick "
                    "--resume " + journal);
    std::remove(journal.c_str());
    EXPECT_EQ(result.exit_code, 1);
    expect_json_diagnostic(result, "config");
}

TEST(FlatsimCli, ServeSigintDrainsToPartialReportWithExitFive)
{
    // The first step-cost DSE sleeps 3 s via the delay probe; SIGINT
    // arrives after ~1 s. The drain finishes the in-flight step, then
    // the loop notices the cancel, prints the PARTIAL report on stdout
    // and exits through the documented cancelled path (exit 5).
    const std::string script =
        "'" + flatsim_path() + "' --serve --model bert "
        "--serve-requests 4 --quick --json "
        "--inject-fault dse.search_attention:0:delay=3000"
        " > flatsim_cli_serve_drain.out 2>&1 & pid=$!; sleep 1; "
        "kill -INT $pid; wait $pid; echo $?";
    std::FILE* pipe = popen(script.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    char buf[64];
    std::string echoed;
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
        echoed.append(buf, n);
    }
    pclose(pipe);
    EXPECT_EQ(echoed.substr(0, echoed.find('\n')), "5");

    std::ifstream out("flatsim_cli_serve_drain.out");
    const std::string text((std::istreambuf_iterator<char>(out)),
                           std::istreambuf_iterator<char>());
    std::remove("flatsim_cli_serve_drain.out");
    // Partial SLO report on stdout, cancelled diagnostic on stderr.
    EXPECT_NE(text.find("\"cancelled\":true"), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"kind\":\"cancelled\""), std::string::npos)
        << text;
}

// ---------------------------------------------------------------------
// The flag table: each flag belongs to the modes that read it, every
// mode resolves its options and opens its journal one way, and each
// journal identity covers every input that shapes a result.

/** The two-point spec of the flag-table regressions. */
std::string
write_cloud_spec(const std::string& name)
{
    write_file(name, "models = bert\nplatforms = cloud\n"
                     "policies = flat-opt\nseq = 4096, 8192\n"
                     "batch = 8\nscope = la\nquick = true\n");
    return name;
}

/** Every distinct --flag token of @p text, in order. */
std::vector<std::string>
flag_tokens(const std::string& text)
{
    std::vector<std::string> flags;
    for (std::size_t at = text.find("--"); at != std::string::npos;
         at = text.find("--", at + 2)) {
        std::size_t end = at + 2;
        while (end < text.size() &&
               (std::islower(static_cast<unsigned char>(text[end])) ||
                std::isdigit(static_cast<unsigned char>(text[end])) ||
                text[end] == '-')) {
            ++end;
        }
        const std::string flag = text.substr(at, end - at);
        if (flag.size() > 2 &&
            std::find(flags.begin(), flags.end(), flag) == flags.end()) {
            flags.push_back(flag);
        }
        at = end - 2;
    }
    return flags;
}

TEST(FlatsimCli, EveryHelpFlagIsReadByItsModesAndRefusedByTheRest)
{
    // A value the up-front checks accept, per flag ("" = a switch).
    const std::map<std::string, std::string> values = {
        {"--model", "bert"}, {"--platform", "cloud"},
        {"--platform-file", "/nonexistent/walk.cfg"},
        {"--policy", "flat-opt"}, {"--accel", "attacc"},
        {"--style", "flat"}, {"--scope", "la"}, {"--seq", "512"},
        {"--kv-seq", "512"}, {"--window", "64"}, {"--batch", "2"},
        {"--buffer", "1MiB"}, {"--sg2", "4MiB"}, {"--sg2-bw", "200GB/s"},
        {"--offchip-bw", "25GB/s"}, {"--objective", "energy"},
        {"--search-mode", "analytic"}, {"--block", ""},
        {"--threads", "1"}, {"--no-prune", ""},
        {"--serialized-baseline", ""}, {"--quick", ""}, {"--json", ""},
        {"--trace", ""}, {"--trace-json", ""},
        {"--trace-csv", "/nonexistent/walk.csv"}, {"--devices", "2"},
        {"--shard-axis", "seq"}, {"--topology", "ring"},
        {"--link-bw", "300GB/s"}, {"--link-latency", "700ns"},
        {"--scaleout", "pod-ring"},
        {"--scaleout-file", "/nonexistent/walk.cfg"}, {"--serve", ""},
        {"--arrival", "bursty"},
        {"--arrival-file", "/nonexistent/walk.csv --arrival replay"},
        {"--rate", "2"},
        {"--serve-requests", "4"}, {"--serve-seed", "2"},
        {"--sched", "auto"}, {"--max-batch", "4"},
        {"--prompt-tokens", "64"}, {"--output-tokens", "4"},
        {"--ctx-bucket", "32"}, {"--sweep", "/nonexistent/walk.sweep"},
        {"--deadline", "100"}, {"--keep-going", ""}, {"--fail-fast", ""},
        {"--sweep-csv", "/nonexistent/walk.csv"},
        {"--inject-fault", "dse.search_attention:0"},
        {"--journal", "/nonexistent/walk.jsonl"},
        {"--resume", "/nonexistent/walk.jsonl"},
    };
    // Each mode's argv ends in a config error (exit 1) once its flags
    // are accepted; a flag outside the mode exits 2 before any work.
    const std::pair<std::string, std::string> modes[] = {
        {"a single run", "--model gpt17"},
        {"--block", "--block --model gpt17"},
        {"--serve", "--serve --model gpt17"},
        {"--sweep", "--sweep /nonexistent/walk.sweep"},
    };
    const CliOutput help = run_flatsim_stdout("--help");
    ASSERT_EQ(help.exit_code, 0);
    std::size_t walked = 0;
    for (const std::string& flag : flag_tokens(help.stdout_text)) {
        if (flag == "--help" || flag == "--list" ||
            flag == "--list-styles") {
            continue;
        }
        const auto value = values.find(flag);
        if (value == values.end()) {
            ADD_FAILURE() << "--help names " << flag
                          << ", which this walk does not know";
            continue;
        }
        ++walked;
        const bool picks_mode =
            flag == "--block" || flag == "--serve" || flag == "--sweep";
        int accepted = 0;
        for (const auto& [mode, argv] : modes) {
            const std::string args = flag + " " + value->second + " " + argv;
            const CliResult result = run_flatsim(args);
            if (result.exit_code == 1) {
                ++accepted;
                continue;
            }
            EXPECT_EQ(result.exit_code, 2) << args;
            if (!picks_mode) {
                EXPECT_NE(result.stderr_text.find(flag +
                                                  " does not apply to " +
                                                  mode),
                          std::string::npos)
                    << args << ":\n" << result.stderr_text;
            }
        }
        EXPECT_GE(accepted, 1) << flag << " is refused by every mode";
    }
    EXPECT_EQ(walked, values.size()) << "--help misses a flag";
}

TEST(FlatsimCli, FlagOutsideItsModeExitsTwoNamingFlagAndMode)
{
    // Each of these once exited 0 and dropped the flag.
    const std::string spec = write_cloud_spec("flatsim_cli_refuse.sweep");
    const std::string csv = "flatsim_cli_refused.csv";
    std::remove(csv.c_str());
    const std::pair<std::string, std::string> cases[] = {
        {"--serve --accel baseaccel", "--accel does not apply to --serve"},
        {"--serve --devices 4", "--devices does not apply to --serve"},
        {"--block --scope la", "--scope does not apply to --block"},
        {"--sweep " + spec + " --objective energy",
         "--objective does not apply to --sweep"},
        {"--scope la --sweep-csv " + csv,
         "--sweep-csv does not apply to a single run"},
    };
    for (const auto& [args, message] : cases) {
        const CliResult result = run_flatsim(args);
        EXPECT_EQ(result.exit_code, 2) << args;
        expect_json_diagnostic(result, "usage");
        EXPECT_NE(result.stderr_text.find(message), std::string::npos)
            << result.stderr_text;
    }
    EXPECT_FALSE(std::ifstream(csv).good()) << "a refused run wrote "
                                            << csv;
    std::remove(spec.c_str());
}

TEST(FlatsimCli, SweepPointsSearchInTheRequestedMode)
{
    // The mapper's probe fires only if the points search analytically.
    const std::string spec = write_cloud_spec("flatsim_cli_mode.sweep");
    const CliOutput result = run_flatsim_stdout(
        "--sweep " + spec + " --search-mode analytic --json "
        "--inject-fault dse.analytic_search:0");
    std::remove(spec.c_str());
    EXPECT_EQ(result.exit_code, 4);
    EXPECT_NE(result.stdout_text.find(
                  "\"index\":0,\"tag\":\"bert/cloud/flat-opt/seq=4096/"
                  "batch=8\",\"model\":\"bert\",\"platform\":\"cloud\","
                  "\"policy\":\"flat-opt\",\"seq\":4096,\"batch\":8,"
                  "\"status\":\"failed\""),
              std::string::npos)
        << result.stdout_text;
}

TEST(FlatsimCli, BlockJournalResumesToTheSamePicks)
{
    const std::string journal = "flatsim_cli_block_journal.jsonl";
    std::remove(journal.c_str());
    const std::string args = "--block --model bert --platform cloud "
                             "--seq 512 --batch 1 --quick --json";
    const CliOutput fresh = run_flatsim_stdout(args + " --journal " +
                                               journal);
    ASSERT_EQ(fresh.exit_code, 0);
    const std::string text = read_file(journal);
    EXPECT_NE(text.find("{\"scope\":\"search:"), std::string::npos)
        << "no L-A slice records in:\n" << text;

    // A crash halfway through the journal's bytes.
    write_file(journal, text.substr(0, text.size() / 2));
    const CliOutput resumed =
        run_flatsim_stdout(args + " --resume " + journal);
    std::remove(journal.c_str());
    EXPECT_EQ(resumed.exit_code, 0);
    // Same dataflows, cycles and energies; only the split of points
    // evaluated / pruned may differ.
    EXPECT_EQ(scrub(scrub(resumed.stdout_text, "evaluated"), "pruned"),
              scrub(scrub(fresh.stdout_text, "evaluated"), "pruned"));
}

TEST(FlatsimCli, ServeJournalIsStaleUnderAnotherObjectiveOrBandwidth)
{
    // Both resumes once replayed the journal's step costs.
    const std::string journal = "flatsim_cli_serve_identity.jsonl";
    const std::string base =
        "--serve --model bert --platform edge --serve-requests 4 "
        "--prompt-tokens 1024 --output-tokens 4 ";
    const std::pair<std::string, std::string> cases[] = {
        {"", "--objective energy"},
        {"--offchip-bw 25GB/s", "--offchip-bw 25.00001GB/s"},
    };
    for (const auto& [written, resumed] : cases) {
        std::remove(journal.c_str());
        ASSERT_EQ(run_flatsim_stdout(base + written + " --journal " +
                                     journal)
                      .exit_code,
                  0);
        const CliResult result =
            run_flatsim(base + resumed + " --resume " + journal);
        EXPECT_EQ(result.exit_code, 1) << resumed;
        expect_json_diagnostic(result, "config");
        EXPECT_NE(result.stderr_text.find("stale"), std::string::npos);
    }
    std::remove(journal.c_str());
}

TEST(FlatsimCli, SweepResumeUnderAnotherSearchModeIsStale)
{
    const std::string spec = write_cloud_spec("flatsim_cli_stale.sweep");
    const std::string journal = "flatsim_cli_stale_mode.jsonl";
    std::remove(journal.c_str());
    ASSERT_EQ(
        run_flatsim_stdout("--sweep " + spec + " --journal " + journal)
            .exit_code,
        0);
    const CliResult result = run_flatsim(
        "--sweep " + spec + " --search-mode analytic --resume " + journal);
    std::remove(spec.c_str());
    std::remove(journal.c_str());
    EXPECT_EQ(result.exit_code, 1);
    expect_json_diagnostic(result, "config");
}

TEST(FlatsimCli, ServeFlagsShapeTheReport)
{
    const std::string base =
        "--serve --model bert --serve-requests 4 --quick --json ";
    const std::string plain = run_flatsim_stdout(base).stdout_text;
    const auto field = [&](const std::string& flags, const char* key) {
        const CliOutput out = run_flatsim_stdout(base + flags);
        EXPECT_EQ(out.exit_code, 0) << flags;
        return json_field(out.stdout_text, key);
    };
    EXPECT_EQ(field("--max-batch 2", "max_batch"), "2");
    EXPECT_EQ(field("--output-tokens 3", "generated_tokens"), "12");
    EXPECT_NE(field("--prompt-tokens 64", "prefilled_tokens"),
              json_field(plain, "prefilled_tokens"));
    EXPECT_NE(field("--serve-seed 2", "prefilled_tokens"),
              json_field(plain, "prefilled_tokens"));
    EXPECT_NE(field("--ctx-bucket 4096", "cost_lookups"),
              json_field(plain, "cost_lookups"));
}

TEST(FlatsimCli, RunFlagsShapeTheReport)
{
    const std::string base = "--model bert --seq 1024 --scope la --quick "
                             "--json ";
    const auto field = [&](const std::string& flags, const char* key) {
        const CliOutput out = run_flatsim_stdout(base + flags);
        EXPECT_EQ(out.exit_code, 0) << flags;
        return json_field(out.stdout_text, key);
    };
    EXPECT_NE(field("", "la_points_pruned"), "0");
    EXPECT_EQ(field("--no-prune", "la_points_pruned"), "0");
    EXPECT_EQ(field("--devices 4 --link-latency 2us", "link_latency_s"),
              "2e-06");
    EXPECT_EQ(field("--devices 4 --scaleout pod-tree", "topology"),
              "\"tree\"");
    const std::string fabric = "flatsim_cli_fabric.cfg";
    write_file(fabric, "topology = tree\ndevices = 4\n");
    EXPECT_EQ(field("--scaleout-file " + fabric, "topology"), "\"tree\"");
    std::remove(fabric.c_str());
    // A small SG spills to the second-level buffer, so its bandwidth
    // sets the L-A cycles.
    const std::string spill = "--seq 4096 --buffer 64KiB --sg2 8MiB ";
    EXPECT_NE(field(spill + "--sg2-bw 60GB/s", "cycles"),
              field(spill, "cycles"));
}

TEST(FlatsimCli, MootFlagsAreAppliedOrRefused)
{
    // Each of these once exited 0 and dropped the flag: another flag's
    // value made it moot, or a platform file gave the level it sets.
    const std::string base = "--model bert --platform edge --seq 4096 "
                             "--batch 8 --scope la --quick --buffer 64KiB ";
    const auto cycles = [&](const std::string& flags) {
        const CliOutput out = run_flatsim_stdout(base + "--json " + flags);
        EXPECT_EQ(out.exit_code, 0) << flags;
        return json_field(out.stdout_text, "cycles");
    };
    const std::string platform = "flatsim_cli_sg2.cfg";
    write_file(platform, "sg2 = 8MiB\nsg2_bw = 200GB/s\n");
    const std::string from_file = "--platform-file " + platform + " ";
    EXPECT_EQ(cycles(from_file + "--sg2-bw 60GB/s"),
              cycles("--sg2 8MiB --sg2-bw 60GB/s"));
    EXPECT_NE(cycles(from_file + "--sg2-bw 60GB/s"), cycles(from_file));
    std::remove(platform.c_str());

    const std::string trace = "flatsim_cli_unread_trace.csv";
    std::remove(trace.c_str());
    const std::pair<std::string, std::string> refused[] = {
        {base + "--sg2-bw 60GB/s", "--sg2-bw needs an SG2 level"},
        {"--serve --arrival poisson --arrival-file " + trace,
         "--arrival-file is read only by --arrival replay"},
        {"--serve --arrival bursty --arrival-file " + trace,
         "--arrival-file is read only by --arrival replay"},
        {base + "--devices 1 --topology tree",
         "--topology needs a fabric of more than one device"},
        {base + "--shard-axis seq",
         "--shard-axis needs a fabric of more than one device"},
        {base + "--link-bw 300GB/s",
         "--link-bw needs a fabric of more than one device"},
        {base + "--scaleout single --link-latency 2us",
         "--link-latency needs a fabric of more than one device"},
    };
    for (const auto& [args, message] : refused) {
        const CliResult result = run_flatsim(args);
        EXPECT_EQ(result.exit_code, 2) << args;
        expect_json_diagnostic(result, "usage");
        EXPECT_NE(result.stderr_text.find(message), std::string::npos)
            << args << ":\n" << result.stderr_text;
    }
}

TEST(FlatsimCli, SweepFlagsShapeTheReport)
{
    const std::string spec = write_cloud_spec("flatsim_cli_knobs.sweep");
    const std::string base = "--sweep " + spec + " --threads 1 --json ";
    // Point 0 sleeps well past its deadline.
    const CliOutput late = run_flatsim_stdout(
        base + "--deadline 20 --inject-fault sweep.point:0:delay=200");
    EXPECT_EQ(late.exit_code, 4);
    EXPECT_NE(late.stdout_text.find("\"kind\":\"timeout\""),
              std::string::npos);
    // A failed point 0 stops the sweep under --fail-fast; a later
    // --keep-going takes it back.
    const std::string poisoned = base + "--inject-fault sweep.point:0 ";
    EXPECT_EQ(json_field(run_flatsim_stdout(poisoned + "--fail-fast")
                             .stdout_text,
                         "skipped"),
              "1");
    EXPECT_EQ(json_field(run_flatsim_stdout(poisoned +
                                            "--fail-fast --keep-going")
                             .stdout_text,
                         "skipped"),
              "0");
    const std::string csv = "flatsim_cli_knobs.csv";
    EXPECT_EQ(run_flatsim_stdout(base + "--sweep-csv " + csv).exit_code,
              0);
    const std::string rows = read_file(csv);
    std::remove(csv.c_str());
    std::remove(spec.c_str());
    EXPECT_EQ(rows.rfind("index,tag,status,", 0), 0u) << rows;
    EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'), 3) << rows;
}

} // namespace
