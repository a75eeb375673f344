#include "pmlp/rtl/sim_runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

namespace pmlp::rtl {

namespace fs = std::filesystem;

namespace {

/// POSIX-shell single-quote: safe for std::system() argument splicing.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

/// Search PATH for an executable named `tool`.
std::optional<std::string> which(const std::string& tool) {
  const char* path_env = std::getenv("PATH");
  if (path_env == nullptr) return std::nullopt;
  std::istringstream dirs(path_env);
  std::string dir;
  while (std::getline(dirs, dir, ':')) {
    if (dir.empty()) continue;
    std::error_code ec;
    const fs::path candidate = fs::path(dir) / tool;
    if (fs::is_regular_file(candidate, ec)) {
      const auto perms = fs::status(candidate, ec).permissions();
      if (ec) continue;
      if ((perms & (fs::perms::owner_exec | fs::perms::group_exec |
                    fs::perms::others_exec)) != fs::perms::none) {
        return candidate.string();
      }
    }
  }
  return std::nullopt;
}

std::string tool_from_basename(const std::string& path) {
  const std::string base = fs::path(path).filename().string();
  if (base.find("verilator") != std::string::npos) return "verilator";
  return "iverilog";
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

std::optional<Simulator> find_simulator() {
  const char* env = std::getenv("PMLP_SIMULATOR");
  if (env != nullptr && env[0] != '\0') {
    const std::string v = env;
    if (v == "off" || v == "none" || v == "0") return std::nullopt;
    if (v.find('/') != std::string::npos) {
      std::error_code ec;
      if (!fs::is_regular_file(v, ec)) return std::nullopt;
      return Simulator{tool_from_basename(v), v};
    }
    if (auto p = which(v)) return Simulator{tool_from_basename(*p), *p};
    return std::nullopt;
  }
  for (const char* tool : {"iverilog", "verilator"}) {
    if (auto p = which(tool)) return Simulator{tool, *p};
  }
  return std::nullopt;
}

SimRun parse_testbench_log(const std::string& log) {
  SimRun run;
  run.log = log;
  run.errors = -1;  // no summary seen yet
  std::istringstream is(log);
  std::string line;
  while (std::getline(is, line)) {
    int n = 0;
    if (std::sscanf(line.c_str(), "TESTBENCH PASS (%d vectors)", &n) == 1) {
      run.ok = true;
      run.vectors = n;
      run.errors = 0;
      return run;
    }
    if (std::sscanf(line.c_str(), "TESTBENCH FAIL: %d errors", &n) == 1) {
      run.ok = false;
      run.errors = n;
      return run;
    }
  }
  return run;
}

SimRunner::SimRunner(Simulator sim) : sim_(std::move(sim)) {}

SimRun SimRunner::run(const std::string& dut_file, const std::string& tb_file,
                      const std::string& work_dir) const {
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  // The simulation runs in the testbench's directory, where its $readmemh
  // path points; every other path is absolute so the directory change
  // cannot move it.
  const fs::path work = fs::absolute(work_dir);
  const fs::path dut = fs::absolute(dut_file);
  const fs::path tb = fs::absolute(tb_file);
  const fs::path tool = fs::absolute(sim_.path);
  const std::string log = shell_quote((work / "sim.log").string());
  std::string command =
      "cd " + shell_quote(tb.parent_path().string()) + " > " + log + " 2>&1";

  if (sim_.name == "verilator") {
    // Verilator 5 can build and run a timed testbench directly.
    const fs::path objdir = work / "obj_dir";
    command += " && " + shell_quote(tool.string()) +
               " --binary --timing -Wno-fatal -j 1 --Mdir " +
               shell_quote(objdir.string()) + " -o sim " +
               shell_quote(tb.string()) + " " + shell_quote(dut.string()) +
               " >> " + log + " 2>&1 && " +
               shell_quote((objdir / "sim").string()) + " >> " + log +
               " 2>&1";
  } else {
    // Icarus: compile to a vvp image, then run it with the vvp that ships
    // next to the discovered iverilog (fall back to PATH).
    const fs::path image = work / "sim.vvp";
    const fs::path vvp_sibling = tool.parent_path() / "vvp";
    const std::string vvp = fs::exists(vvp_sibling, ec)
                                ? vvp_sibling.string()
                                : std::string("vvp");
    command += " && " + shell_quote(tool.string()) + " -g2001 -o " +
               shell_quote(image.string()) + " " + shell_quote(dut.string()) +
               " " + shell_quote(tb.string()) + " >> " + log + " 2>&1 && " +
               shell_quote(vvp) + " " + shell_quote(image.string()) + " >> " +
               log + " 2>&1";
  }

  const int rc = std::system(command.c_str());
  SimRun result = parse_testbench_log(read_file(work / "sim.log"));
  result.command = command;
  if (rc != 0) result.ok = false;
  return result;
}

}  // namespace pmlp::rtl
