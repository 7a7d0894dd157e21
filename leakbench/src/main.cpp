// leakbench entry point: runs one workload, a self-check of the checks, or the
// estimator error table. Usage (normally through leakbench/run.py):
//
//   leakbench --workload NAME --seed N --seconds S --trace 0|1
//   leakbench --selfcheck
//   leakbench --error-table [--circuits a,b] [--vectors N]
//             [--grid-max-ua X] [--seed N]
//
// A workload run prints its result as one JSON object on the last line of
// standard output; progress and check failures go to standard error.
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.h"

namespace {

using leakbench::Config;
using leakbench::Report;

const std::map<std::string, std::function<Report(const Config&)>>&
workloads() {
  static const std::map<std::string, std::function<Report(const Config&)>>
      table = {{"chip_random", leakbench::runChipRandom},
               {"chip_walk", leakbench::runChipWalk},
               {"corner_signoff", leakbench::runCornerSignoff},
               {"serve_mix", leakbench::runServeMix}};
  return table;
}

const std::set<std::string> kValueFlags = {
    "--workload", "--seed",     "--seconds",    "--trace",
    "--circuits", "--vectors", "--grid-max-ua"};

int usage(const std::string& why) {
  std::cerr << "leakbench: " << why << "\n"
            << "usage: leakbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
            << "       leakbench --selfcheck\n"
            << "       leakbench --error-table [--circuits a,b] "
               "[--vectors N] [--grid-max-ua X] [--seed N]\n"
            << "workloads:";
  for (const auto& [name, run] : workloads()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

/// Parses a whole non-negative number or fails.
bool parseNumber(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && out >= 0.0;
}

std::vector<std::string> splitList(const std::string& text) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : text + ",") {
    if (c == ',') {
      if (!item.empty()) {
        out.push_back(item);
      }
      item.clear();
    } else {
      item += c;
    }
  }
  return out;
}

int selfCheck() {
  const std::vector<std::pair<const char*, bool (*)()>> checks = {
      {"chip_random (estimate scaled by 1 + 1e-3)",
       leakbench::selfCheckChipRandom},
      {"chip_walk (one result bit flipped)", leakbench::selfCheckChipWalk},
      {"corner_signoff (sleep-vector leakage scaled by 1 + 1e-3)",
       leakbench::selfCheckCornerSignoff},
      {"serve_mix (one payload byte changed)", leakbench::selfCheckServeMix},
  };
  bool all = true;
  for (const auto& [name, check] : checks) {
    const bool ok = check();
    std::cout << (ok ? "ok    " : "FAIL  ") << name
              << (ok ? ": clean output passed, wrong output counted failed"
                     : ": the checker did not tell clean from wrong")
              << "\n";
    all = all && ok;
  }
  return all ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool selfcheck = false;
  bool error_table = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selfcheck") {
      selfcheck = true;
    } else if (key == "--error-table") {
      error_table = true;
    } else if (kValueFlags.count(key) != 0 && i + 1 < argc) {
      args[key.substr(2)] = argv[++i];
    } else {
      return usage("unexpected argument '" + key + "'");
    }
  }
  try {
    if (selfcheck) {
      return selfCheck();
    }
    double seed = 1.0;
    if (args.count("seed") && !parseNumber(args["seed"], seed)) {
      return usage("bad --seed");
    }
    if (error_table) {
      double vectors = 8.0;
      double grid_max_ua = 0.0;
      if ((args.count("vectors") && !parseNumber(args["vectors"], vectors)) ||
          vectors < 1.0 ||
          (args.count("grid-max-ua") &&
           !parseNumber(args["grid-max-ua"], grid_max_ua))) {
        return usage("bad --vectors or --grid-max-ua");
      }
      const std::vector<std::string> circuits = splitList(
          args.count("circuits") ? args["circuits"] : "s838,s5378");
      return leakbench::printErrorTable(
          circuits, static_cast<std::size_t>(vectors), grid_max_ua,
          static_cast<std::uint64_t>(seed));
    }
    Config config;
    config.workload = args["workload"];
    config.seed = static_cast<std::uint64_t>(seed);
    double trace = 0.0;
    if (!parseNumber(args.count("seconds") ? args["seconds"] : "10",
                     config.seconds) ||
        config.seconds <= 0.0 ||
        (args.count("trace") && !parseNumber(args["trace"], trace)) ||
        (trace != 0.0 && trace != 1.0)) {
      return usage("bad --seconds or --trace");
    }
    config.trace = trace == 1.0;
    const auto it = workloads().find(config.workload);
    if (it == workloads().end()) {
      return usage("unknown workload '" + config.workload + "'");
    }
    const Report report = it->second(config);
    leakbench::printResult(report, config.trace);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "leakbench: " << e.what() << "\n";
    return 1;
  }
}
