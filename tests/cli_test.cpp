// Exit-code and error-path tests for tools/pmlp_cli: argument and path
// errors must print an actionable message (valid dataset choices, the
// offending path) and exit with code 2 — never propagate an exception to
// std::terminate (which would abort with SIGABRT, status 134) and never
// start an expensive run that is doomed to fail at the end.
//
// The binary under test is passed in by CMake as PMLP_CLI_PATH.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "eq4_oracle.hpp"
#include "pmlp/core/chromosome.hpp"
#include "pmlp/core/flow_engine.hpp"
#include "pmlp/core/serialize.hpp"
#include "pmlp/core/suite.hpp"

namespace core = pmlp::core;
namespace fs = std::filesystem;

namespace {

struct CliResult {
  int status = -1;   ///< exit code; -1 = signal/abnormal termination
  std::string out;   ///< stdout + stderr
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(PMLP_CLI_PATH) + " " + args + " 2>&1";
  CliResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  std::array<char, 4096> buf;
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.out.append(buf.data(), n);
  }
  const int rc = ::pclose(pipe);
  if (WIFEXITED(rc)) r.status = WEXITSTATUS(rc);
  return r;
}

/// The error path must exit with the usage code, not crash: a raw
/// exception reaching std::terminate aborts (WIFEXITED false -> -1).
void expect_usage_error(const CliResult& r, const char* needle) {
  EXPECT_EQ(r.status, 2) << r.out;
  EXPECT_NE(r.out.find(needle), std::string::npos) << r.out;
}

std::string first_word(const std::string& s) {
  return s.substr(0, s.find(' '));
}

}  // namespace

TEST(Cli, UnknownDatasetListsChoices) {
  const auto r = run_cli("run Bogus 8 1");
  expect_usage_error(r, "unknown dataset 'Bogus'");
  // The message must name the valid choices.
  EXPECT_NE(r.out.find("BreastCancer"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("WhiteWine"), std::string::npos) << r.out;
}

TEST(Cli, UnknownDatasetInMetricsAndBaseline) {
  for (const char* sub : {"metrics", "baseline"}) {
    const auto r = run_cli(std::string(sub) + " Nope");
    expect_usage_error(r, "unknown dataset 'Nope'");
    EXPECT_NE(r.out.find("Cardio"), std::string::npos) << r.out;
  }
}

TEST(Cli, CampaignUnknownDatasetListsChoices) {
  const auto r = run_cli("campaign --datasets BreastCancer,Bogus 8 1");
  expect_usage_error(r, "unknown dataset 'Bogus'");
  EXPECT_NE(r.out.find("Pendigits"), std::string::npos) << r.out;
}

TEST(Cli, CampaignEmptyDatasetEntryRejected) {
  const auto r = run_cli("campaign --datasets BreastCancer,, 8 1");
  expect_usage_error(r, "empty entry");
}

TEST(Cli, CampaignDuplicateDatasetRejected) {
  const auto r = run_cli("campaign --datasets Cardio,Cardio 8 1");
  expect_usage_error(r, "duplicate dataset 'Cardio'");
}

TEST(Cli, UnwritableJsonFailsBeforeTraining) {
  const auto r =
      run_cli("run BreastCancer 8 1 --json /nonexistent_dir_xyz/out.json");
  expect_usage_error(r, "/nonexistent_dir_xyz/out.json");
  // Fail-fast: no training output may precede the error.
  EXPECT_EQ(r.out.find("stage ga"), std::string::npos) << r.out;
}

TEST(Cli, CampaignUnwritableJsonFailsBeforeTraining) {
  const auto r = run_cli(
      "campaign --datasets BreastCancer --json /nonexistent_dir_xyz/c.json "
      "8 1");
  expect_usage_error(r, "/nonexistent_dir_xyz/c.json");
}

TEST(Cli, CheckpointPathThatIsAFileRejected) {
  const fs::path file =
      fs::temp_directory_path() / "pmlp_cli_test_ckpt_file.txt";
  std::ofstream(file) << "not a directory\n";
  const auto r = run_cli("run BreastCancer 8 1 --checkpoint " +
                         file.string());
  fs::remove(file);
  expect_usage_error(r, "not a directory");
}

TEST(Cli, GarbledPopulationRejected) {
  const auto r = run_cli("run BreastCancer twelve");
  expect_usage_error(r, "positive int");
}

TEST(Cli, GarbledGenerationsRejected) {
  const auto r = run_cli("campaign 8 zero");
  expect_usage_error(r, "positive int");
}

TEST(Cli, MissingOptionValueRejected) {
  for (const char* flag : {"--datasets", "--seeds", "--threads", "--json"}) {
    const auto r = run_cli(std::string("campaign ") + flag);
    EXPECT_EQ(r.status, 2) << flag << ": " << r.out;
    EXPECT_NE(r.out.find("requires a value"), std::string::npos)
        << flag << ": " << r.out;
  }
  // A missing positional argument names the subcommand, not just usage.
  for (const char* args : {"metrics", "serve", "evaluate m.model"}) {
    expect_usage_error(run_cli(args),
                       (first_word(args) + "' is missing arguments").c_str());
  }
}

TEST(Cli, UnconsumedFlagsRejectedBeforeTraining) {
  // A flag the selected subcommand silently ignores would cost a full run
  // to discover; it must be rejected up front instead.
  const auto campaign = run_cli("campaign --save-front fronts 8 1");
  expect_usage_error(campaign, "--save-front is not supported");
  const auto run = run_cli("run BreastCancer 8 1 --seeds 3");
  expect_usage_error(run, "--seeds is not supported");
  const auto listed = run_cli("list --datasets BreastCancer");
  expect_usage_error(listed, "--datasets is not supported");
  // Unknown options and extra positional arguments are rejected by name,
  // not silently turned into (or dropped as) positional arguments.
  expect_usage_error(run_cli("list --bogus"), "unknown option '--bogus'");
  expect_usage_error(run_cli("campaign 4 1 --datasetz BreastCancer"),
                     "unknown option '--datasetz'");
  expect_usage_error(run_cli("metrics Cardio extra"),
                     "unexpected argument 'extra'");
  expect_usage_error(
      run_cli("campaign status extra --checkpoint /nonexistent_dir_xyz/c"),
      "unexpected argument 'extra'");
  // The three campaign modes each take only their own flags.
  for (const char* flag :
       {"--seeds 3", "--resume", "--datasets Cardio", "--ga-checkpoint 2"}) {
    expect_usage_error(
        run_cli("campaign status --checkpoint /nonexistent_dir_xyz/c " +
                std::string(flag)),
        (first_word(flag) + " is not supported by the 'campaign status'")
            .c_str());
  }
  for (const char* flag : {"--datasets Cardio", "--seeds 4", "--resume"}) {
    expect_usage_error(
        run_cli("campaign --worker --checkpoint /nonexistent_dir_xyz/c " +
                std::string(flag)),
        (first_word(flag) + " is not supported by the 'campaign --worker'")
            .c_str());
  }
}

TEST(Cli, SaveFrontRerunRemovesStaleModels) {
  // A rerun producing a smaller front must not leave models from the
  // previous, larger front behind: the directory is republished atomically
  // (write .tmp sibling, rename into place), so after the run it holds
  // exactly the indexed files — nothing stale, no leftover staging dirs.
  const fs::path dir =
      fs::temp_directory_path() / "pmlp_cli_test_front_rerun";
  fs::remove_all(dir);
  // Exit 1 just means no design fell within the 5% loss budget at this tiny
  // GA budget; the front is saved either way. Only usage errors (2) or a
  // crash would invalidate the setup.
  const auto first =
      run_cli("run BreastCancer 8 2 --save-front " + dir.string());
  ASSERT_TRUE(first.status == 0 || first.status == 1) << first.out;
  ASSERT_TRUE(fs::exists(dir / "index.tsv")) << first.out;
  // Plant a stale model a glob-based loader would happily serve.
  std::ofstream(dir / "front_099.model") << "stale leftover\n";
  const auto second =
      run_cli("run BreastCancer 8 2 --save-front " + dir.string());
  ASSERT_TRUE(second.status == 0 || second.status == 1) << second.out;
  EXPECT_FALSE(fs::exists(dir / "front_099.model"));
  EXPECT_FALSE(fs::exists(dir.string() + ".tmp"));
  EXPECT_FALSE(fs::exists(dir.string() + ".old"));
  // The strict loader accepts the directory (it rejects any unindexed
  // front_*.model), and the on-disk set matches the index exactly.
  const auto entries = core::load_front_dir(dir.string());
  ASSERT_FALSE(entries.empty());
  std::set<std::string> on_disk;
  for (const auto& ent : fs::directory_iterator(dir)) {
    on_disk.insert(ent.path().filename().string());
  }
  std::set<std::string> expected = {"index.tsv"};
  for (const auto& e : entries) expected.insert(e.file);
  EXPECT_EQ(on_disk, expected);
  fs::remove_all(dir);
}

TEST(Cli, ServeFlagsRejectedOnOtherSubcommands) {
  // The ignored-flag table must cover the serve flags both ways round.
  const auto serve_seeds = run_cli("serve --seeds 3 somedir");
  expect_usage_error(serve_seeds, "--seeds is not supported");
  const auto campaign_port = run_cli("campaign --port 9000 8 1");
  expect_usage_error(campaign_port, "--port is not supported");
  const auto run_batch = run_cli("run BreastCancer 8 1 --batch 4");
  expect_usage_error(run_batch, "--batch is not supported");
  // A typo'd serve flag must not fall back to an OS-assigned port.
  expect_usage_error(run_cli("serve somedir --prot 9000"),
                     "unknown option '--prot'");
  expect_usage_error(run_cli("serve a b"), "unexpected argument 'b'");
}

TEST(Cli, RtlFlagsRejectedOnOtherSubcommands) {
  // The new RTL flags must be in the ignored-flag table like every other
  // subcommand-specific option.
  const auto run_vectors = run_cli("run BreastCancer 8 1 --rtl-vectors 16");
  expect_usage_error(run_vectors, "--rtl-vectors is not supported");
  const auto serve_random = run_cli("serve --rtl-random 8 somedir");
  expect_usage_error(serve_random, "--rtl-random is not supported");
  const auto run_require = run_cli("run BreastCancer 8 1 --require-sim");
  expect_usage_error(run_require, "--require-sim is not supported");
  // --require-sim only makes sense where a simulator can run: verify-rtl,
  // not the export-only subcommand.
  const auto export_require =
      run_cli("export-rtl somedir - out --require-sim");
  expect_usage_error(export_require, "--require-sim is not supported");
}

TEST(Cli, RtlVectorFlagValuesValidated) {
  const auto garbled = run_cli("export-rtl somedir - out --rtl-vectors x");
  expect_usage_error(garbled, "non-negative int");
  const auto negative = run_cli("verify-rtl somedir - out --rtl-random -3");
  expect_usage_error(negative, "non-negative int");
}

TEST(Cli, ExportRtlMissingInputIsRuntimeFailure) {
  const auto r = run_cli("export-rtl /nonexistent_dir_xyz/front - out");
  EXPECT_EQ(r.status, 1) << r.out;
  EXPECT_NE(r.out.find("error:"), std::string::npos) << r.out;
}

TEST(Cli, ServeMissingDirectoryIsUsageError) {
  const auto r = run_cli("serve /nonexistent_dir_xyz/front");
  expect_usage_error(r, "does not exist or is not a directory");
}

TEST(Cli, ServeBadPortRejected) {
  const auto r = run_cli("serve --port 99999 somedir");
  EXPECT_EQ(r.status, 2) << r.out;
}

TEST(Cli, ClassifyBadCodesAreUsageErrors) {
  const fs::path dir =
      fs::temp_directory_path() / "pmlp_cli_test_classify";
  fs::remove_all(dir);
  const auto setup =
      run_cli("run BreastCancer 8 2 --save-front " + dir.string());
  ASSERT_TRUE(setup.status == 0 || setup.status == 1) << setup.out;
  ASSERT_TRUE(fs::exists(dir / "front_000.model")) << setup.out;
  const std::string model = (dir / "front_000.model").string();
  // Wrong arity (BreastCancer has 10 features).
  const auto arity = run_cli("classify " + model + " 1 2 3");
  expect_usage_error(arity, "feature codes");
  // Non-numeric code.
  const auto garbled =
      run_cli("classify " + model + " 1 2 3 4 5 6 7 8 9 x");
  expect_usage_error(garbled, "feature code 'x'");
  // Out of range for 4-bit inputs.
  const auto range =
      run_cli("classify " + model + " 1 2 3 4 5 6 7 8 9 16");
  expect_usage_error(range, "feature code '16'");
  // A valid request prints a bare class id and exits 0.
  const auto good =
      run_cli("classify " + model + " 1 2 3 4 5 6 7 8 9 10");
  EXPECT_EQ(good.status, 0) << good.out;
  fs::remove_all(dir);
}

TEST(Cli, ExportToUnwritablePrefixFails) {
  const fs::path dir = fs::temp_directory_path() / "pmlp_cli_test_export";
  fs::remove_all(dir);
  const auto setup =
      run_cli("run BreastCancer 8 2 --save-front " + dir.string());
  ASSERT_TRUE(fs::exists(dir / "front_000.model")) << setup.out;
  const auto r = run_cli("export " + (dir / "front_000.model").string() +
                         " BreastCancer /nonexistent_dir_xyz/bc");
  fs::remove_all(dir);
  EXPECT_EQ(r.status, 1) << r.out;
  EXPECT_NE(r.out.find("cannot write /nonexistent_dir_xyz/bc.v"),
            std::string::npos)
      << r.out;
  EXPECT_EQ(r.out.find("wrote"), std::string::npos) << r.out;
}

TEST(Cli, DatasetWidthMismatchIsUsageErrorBeforeAnyFile) {
  // A BreastCancer model (10 inputs) against Cardio (21 features) is an
  // argument error naming both widths, caught before export opens a file.
  const fs::path dir = fs::temp_directory_path() / "pmlp_cli_test_width";
  fs::remove_all(dir);
  const auto setup =
      run_cli("run BreastCancer 8 2 --save-front " + dir.string());
  ASSERT_TRUE(fs::exists(dir / "front_000.model")) << setup.out;
  const std::string model = (dir / "front_000.model").string();
  const char* msg = "dataset Cardio has 21 features but the model expects 10";
  expect_usage_error(run_cli("evaluate " + model + " Cardio"), msg);
  const fs::path prefix = dir / "out";
  expect_usage_error(
      run_cli("export " + model + " Cardio " + prefix.string()), msg);
  EXPECT_FALSE(fs::exists(prefix.string() + ".v"));
  EXPECT_FALSE(fs::exists(prefix.string() + "_tb.v"));
  EXPECT_FALSE(fs::exists(prefix.string() + "_tb.hex"));
  fs::remove_all(dir);
}

TEST(Cli, ExportWritesDutTestbenchAndStimulusHex) {
  // A prefix with a directory (`<dir>/bc`): the modules are named after the
  // prefix's basename, and the testbench names its hex file relative to its
  // own directory, which is where a simulator runs it from.
  const fs::path dir = fs::temp_directory_path() / "pmlp_cli_test_export_hex";
  fs::remove_all(dir);
  const auto setup =
      run_cli("run BreastCancer 8 2 --save-front " + dir.string());
  ASSERT_TRUE(fs::exists(dir / "front_000.model")) << setup.out;
  const std::string prefix = (dir / "bc").string();
  const auto r = run_cli("export " + (dir / "front_000.model").string() +
                         " BreastCancer " + prefix);
  ASSERT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find(" cells), " + prefix + "_tb.v and " + prefix +
                       "_tb.hex (64 vectors)"),
            std::string::npos)
      << r.out;
  std::ifstream dut(prefix + ".v");
  const std::string dut_text((std::istreambuf_iterator<char>(dut)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(dut_text.find("module bc (\n"), std::string::npos);
  std::ifstream tb(prefix + "_tb.v");
  const std::string text((std::istreambuf_iterator<char>(tb)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("module bc_tb;\n"), std::string::npos);
  EXPECT_NE(text.find("  bc dut(\n"), std::string::npos);
  EXPECT_NE(text.find("$readmemh(\"bc_tb.hex\", stim);"), std::string::npos);
  std::ifstream hex(prefix + "_tb.hex");
  int lines = 0;
  for (std::string line; std::getline(hex, line);) ++lines;
  EXPECT_EQ(lines, 64);
  fs::remove_all(dir);
}

TEST(Cli, ClassifyMissingModelIsRuntimeFailure) {
  const auto r = run_cli("classify /nonexistent_dir_xyz/m.model 1 2 3");
  EXPECT_EQ(r.status, 1) << r.out;
  EXPECT_NE(r.out.find("error:"), std::string::npos) << r.out;
}

TEST(Cli, EvaluatePrintsOracleAccuracy) {
  // A seeded random Cardio model: the accuracy `evaluate` prints for it on
  // the flow's test split is the naive Eq. 4 oracle's, as printed.
  const auto& topo = core::paper_topology("Cardio");
  const core::ChromosomeCodec codec(topo, core::BitConfig{});
  std::mt19937_64 rng(27);
  std::vector<int> genes(static_cast<std::size_t>(codec.n_genes()));
  for (int g = 0; g < codec.n_genes(); ++g) {
    const auto b = codec.bounds(g);
    genes[static_cast<std::size_t>(g)] =
        std::uniform_int_distribution<int>(b.lo, b.hi)(rng);
  }
  const auto model = codec.decode(genes);
  const fs::path path =
      fs::temp_directory_path() / "pmlp_cli_test_evaluate.model";
  core::save_model_file(model, path.string());
  const auto r = run_cli("evaluate " + path.string() + " Cardio");
  fs::remove(path);
  ASSERT_EQ(r.status, 0) << r.out;

  core::FlowEngine engine(core::load_paper_dataset("Cardio"), topo,
                          core::FlowConfig{});
  std::ostringstream want;
  want << "  accuracy "
       << pmlp::oracles::accuracy_naive(model, engine.split().test) << "\n";
  EXPECT_NE(r.out.find(want.str()), std::string::npos)
      << "want " << want.str() << r.out;
}

TEST(Cli, CorruptModelIsRuntimeFailureNotUsageError) {
  const fs::path model =
      fs::temp_directory_path() / "pmlp_cli_test_corrupt.model";
  std::ofstream(model) << "not a model file\n";
  const auto r = run_cli("evaluate " + model.string() + " Cardio");
  fs::remove(model);
  // Corrupt artifacts are runtime failures (exit 1); only argument errors
  // use the usage exit code 2.
  EXPECT_EQ(r.status, 1) << r.out;
  EXPECT_NE(r.out.find("error:"), std::string::npos) << r.out;
}

TEST(Cli, CampaignResumeWithoutCheckpointRejected) {
  const auto r = run_cli("campaign --resume --datasets BreastCancer 8 1");
  expect_usage_error(r, "--resume requires --checkpoint");
}

TEST(Cli, CampaignResumeFromMissingRootRejected) {
  const auto r = run_cli(
      "campaign --resume --datasets BreastCancer --checkpoint "
      "/nonexistent_dir_xyz/camp 8 1");
  expect_usage_error(r, "no campaign checkpoint");
}

TEST(Cli, EvaluateMissingModelExitsNonZero) {
  const auto r = run_cli("evaluate /nonexistent_dir_xyz/m.model Cardio");
  // Runtime (not usage) failure: non-zero, message, no terminate.
  EXPECT_EQ(r.status, 1) << r.out;
  EXPECT_NE(r.out.find("error:"), std::string::npos) << r.out;
}

TEST(Cli, ListSucceeds) {
  const auto r = run_cli("list");
  EXPECT_EQ(r.status, 0) << r.out;
  EXPECT_NE(r.out.find("BreastCancer"), std::string::npos);
}
