// gfa_perfbench: the end-to-end verifier benchmark (README.md). run.py builds
// it and calls
//
//   gfa_perfbench --workload <verify_k64|extract_k96|serve_mutants_k16>
//                 --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// With `--workload serve_mutants_k16 --survey <n>` it runs no benchmark but
// classifies n unfiltered mutant draws per golden circuit (README.md).
//
// It prints an environment header, every metric with its unit and sample
// count, and last a one-line JSON result. Exit status: 0 when every answer
// was right, 1 on a wrong answer, 2 on a usage, build or set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "perfbench.h"
#include "util/parallel_for.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: gfa_perfbench --workload <verify_k64|extract_k96|"
               "serve_mutants_k16> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--survey <n>]\n");
  return 2;
}

std::string pclmul_state() {
#if PERFBENCH_PCLMUL
  return __builtin_cpu_supports("pclmul") ? "on" : "off (the CPU lacks it)";
#else
  return "off (not compiled in)";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "gfa_perfbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Options options;
  bool seeded = false;
  std::size_t survey = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      seeded = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--survey") {
      survey = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || survey == 0) return usage();
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !seeded || options.workdir.empty()) return usage();

  // One pool width for every run; the container gives about one core.
  gfa::set_parallel_thread_count(1);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  const char* digest = std::getenv("PERFBENCH_SOURCE_DIGEST");
  Report report;
  report.header = {
      {"workload", options.workload},
      {"seed", std::to_string(options.seed)},
      {"trace", options.trace ? "1" : "0"},
      {"run_seconds", std::to_string(options.seconds)},
      {"pool_width", std::to_string(gfa::parallel_thread_count())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"pclmul", pclmul_state()},
      {"commit", commit != nullptr ? commit : "unknown"},
      {"source_digest", digest != nullptr ? digest : "unknown"},
  };
  try {
    if (survey != 0 && options.workload == "serve_mutants_k16")
      run_survey(options, survey, report);
    else if (survey != 0) return usage();
    else if (options.workload == "verify_k64") run_verify(options, report);
    else if (options.workload == "extract_k96") run_extract(options, report);
    else if (options.workload == "serve_mutants_k16") run_serve(options, report);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gfa_perfbench: %s\n", e.what());
    return 2;
  }
  report.print();
  return report.correct ? 0 : 1;
}
