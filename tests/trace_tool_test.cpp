// Exit-code contract of the tsteiner_trace CLI: 0 = artifact valid, 1 =
// unreadable / malformed / invariant-violating data, 2 = usage error. The
// binary path is injected by CMake as TSTEINER_TRACE_TOOL. Artifacts are
// produced in-process through the same obs writers the flow uses, so the
// tool is tested against real output, not hand-written fixtures.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "testutil.hpp"

namespace tsteiner {
namespace {

int run_tool(const std::string& args) {
  const std::string cmd =
      std::string(TSTEINER_TRACE_TOOL) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A real trace file: nested spans recorded by the production tracer.
std::string make_trace(const std::string& dir) {
  const std::string path = dir + "/trace.json";
  obs::reset_trace();
  obs::enable_trace(path);
  {
    TS_TRACE_SPAN("outer");
    { TS_TRACE_SPAN("inner"); }
    { TS_TRACE_SPAN_CAT("inner2", "test"); }
  }
  obs::disable_trace();
  obs::reset_trace();
  return path;
}

obs::RefineIterationRecord make_iter(int i, double best_wns) {
  obs::RefineIterationRecord rec;
  rec.iter = i;
  rec.wns = best_wns - 0.1;
  rec.tns = -5.0;
  rec.best_wns = best_wns;
  rec.best_tns = -5.0;
  rec.accepted = true;
  rec.theta = 0.5;
  rec.grad_norm = 1.0;
  rec.max_move = 2.0;
  rec.lambda_w = -200.0;
  rec.lambda_t = -2.0;
  rec.wall_s = 0.001;
  return rec;
}

/// A real run report: phases + one refine run with monotone keep-best.
std::string make_report(const std::string& dir, const std::string& file,
                        double wns0, double wns1) {
  const std::string path = dir + "/" + file;
  obs::RunReport report;
  report.set_option("suite_options", "scale=0.1");
  PhaseStat stat;
  stat.wall_s = 0.5;
  stat.busy_s = 1.0;
  report.add_phase("flow.global_route", stat);
  obs::RefineRunRecord run;
  run.design = "d1";
  run.iterations = 2;
  run.init_wns = wns0 - 0.1;
  run.init_tns = -5.0;
  run.best_wns = wns1;
  run.best_tns = -5.0;
  run.theta = 0.5;
  run.iters.push_back(make_iter(0, wns0));
  run.iters.push_back(make_iter(1, wns1));
  report.add_refine(run);
  EXPECT_TRUE(report.write(path));
  return path;
}

/// A real JSONL stream through the production per-line writer.
std::string make_jsonl(const std::string& dir, double wns0, double wns1) {
  const std::string path = dir + "/iters.jsonl";
  obs::set_iteration_log_path(path);
  obs::log_refine_iteration("d1", make_iter(0, wns0));
  obs::log_refine_iteration("d1", make_iter(1, wns1));
  obs::set_iteration_log_path("");
  return path;
}

TEST(TraceTool, VerifyAndSummarizeSucceedOnValidArtifacts) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string trace = make_trace(dir);
  const std::string report = make_report(dir, "run.json", -1.2, -1.0);
  const std::string jsonl = make_jsonl(dir, -1.2, -1.0);
  EXPECT_EQ(run_tool("verify " + trace), 0);
  EXPECT_EQ(run_tool("summarize " + trace), 0);
  EXPECT_EQ(run_tool("verify " + report), 0);
  EXPECT_EQ(run_tool("summarize " + report), 0);
  EXPECT_EQ(run_tool("verify " + jsonl), 0);
  EXPECT_EQ(run_tool("summarize " + jsonl), 0);
}

TEST(TraceTool, TruncatedTraceFails) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string trace = make_trace(dir);
  std::ifstream in(trace, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 20u);
  const std::string cut = dir + "/cut.json";
  std::ofstream(cut, std::ios::binary) << bytes.substr(0, bytes.size() - 10);
  EXPECT_EQ(run_tool("verify " + cut), 1);
}

TEST(TraceTool, GarbageAndMissingFilesFail) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string garbage = dir + "/garbage.json";
  std::ofstream(garbage) << "this is not json\n";
  EXPECT_EQ(run_tool("verify " + garbage), 1);
  EXPECT_EQ(run_tool("summarize " + garbage), 1);
  EXPECT_EQ(run_tool("verify " + dir + "/does_not_exist.json"), 1);
}

TEST(TraceTool, NonMonotoneKeepBestFailsVerify) {
  const std::string dir = testutil::test_tmp_dir();
  // best_wns regressing from -1.0 to -1.5 violates the keep-best invariant
  // both in the JSONL stream and inside the report's embedded iterations.
  const std::string jsonl = make_jsonl(dir, -1.0, -1.5);
  EXPECT_EQ(run_tool("verify " + jsonl), 1);
  const std::string report = make_report(dir, "bad.json", -1.0, -1.5);
  EXPECT_EQ(run_tool("verify " + report), 1);
}

/// Two refine runs of one design in one stream: the second restarts at iter 0
/// from a worse best_wns (-1.4) and ends at `second_best`.
std::string make_two_run_jsonl(const std::string& dir, double second_best) {
  const std::string path = dir + "/two_runs.jsonl";
  obs::set_iteration_log_path(path);
  obs::log_refine_iteration("d1", make_iter(0, -1.2));
  obs::log_refine_iteration("d1", make_iter(1, -1.0));
  obs::log_refine_iteration("d1", make_iter(0, -1.4));
  obs::log_refine_iteration("d1", make_iter(1, second_best));
  obs::set_iteration_log_path("");
  return path;
}

TEST(TraceTool, JsonlRestartStartsANewRun) {
  // The restart is a new keep-best baseline, not a regression.
  const std::string path = make_two_run_jsonl(testutil::test_tmp_dir(), -1.3);
  EXPECT_EQ(run_tool("verify " + path), 0);
  EXPECT_EQ(run_tool("summarize " + path), 0);
}

TEST(TraceTool, JsonlRegressionInsideSecondRunFails) {
  // best_wns regressing inside the second run still fails.
  const std::string path = make_two_run_jsonl(testutil::test_tmp_dir(), -1.6);
  EXPECT_EQ(run_tool("verify " + path), 1);
}

TEST(TraceTool, SignoffProbeFieldsVerify) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string path = dir + "/signoff_iters.jsonl";
  obs::set_iteration_log_path(path);
  obs::log_refine_iteration("d1", make_iter(0, -1.2));
  obs::RefineIterationRecord probed = make_iter(1, -1.1);
  probed.has_signoff = true;
  probed.signoff_wns = -1.3;
  probed.signoff_tns = -40.0;
  probed.signoff_dirty_frac = 0.04;
  probed.signoff_incremental = true;
  obs::log_refine_iteration("d1", probed);
  obs::set_iteration_log_path("");
  EXPECT_EQ(run_tool("verify " + path), 0);

  // An out-of-range dirty fraction must fail verification.
  std::ofstream bad(dir + "/bad_signoff.jsonl");
  bad << "{\"design\":\"d1\",\"iter\":0,\"wns\":-1,\"tns\":-1,\"best_wns\":-1,"
         "\"best_tns\":-1,\"accept\":true,\"theta\":0.5,\"grad_norm\":1,"
         "\"max_move\":1,\"lambda_w\":-200,\"lambda_t\":-2,\"wall_s\":0.001,"
         "\"signoff_wns\":-1,\"signoff_tns\":-1,\"signoff_dirty_frac\":1.5,"
         "\"signoff_incremental\":true}\n";
  bad.close();
  EXPECT_EQ(run_tool("verify " + dir + "/bad_signoff.jsonl"), 1);
}

TEST(TraceTool, DiffComparesTwoReports) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string a = make_report(dir, "a.json", -1.2, -1.0);
  const std::string b = make_report(dir, "b.json", -1.4, -1.1);
  EXPECT_EQ(run_tool("diff " + a + " " + b), 0);
  // diff requires run reports on both sides.
  const std::string trace = make_trace(dir);
  EXPECT_EQ(run_tool("diff " + a + " " + trace), 1);
}

TEST(TraceTool, UsageErrorsExitTwo) {
  const std::string dir = testutil::test_tmp_dir();
  const std::string trace = make_trace(dir);
  EXPECT_EQ(run_tool(""), 2);                    // no command
  EXPECT_EQ(run_tool("verify"), 2);              // missing file argument
  EXPECT_EQ(run_tool("frobnicate " + trace), 2); // unknown command
  EXPECT_EQ(run_tool("diff " + trace), 2);       // diff needs two files
}

}  // namespace
}  // namespace tsteiner
