//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// atmem_perfbench: runs one benchmark workload and prints its metrics.
///
///   atmem_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                   --scratch DIR [--spans-out PATH] [--tiny]
///
/// The last line of standard output is the result object
/// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
/// --trace 0, per-layer metrics with --trace 1. The lines before it give
/// provenance, the output checks, and every metric by name and unit.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "support/BuildInfo.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#ifndef ATMEM_PERFBENCH_BUILD_TYPE
#define ATMEM_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "atmem_perfbench: %s\nusage: atmem_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --scratch DIR "
               "[--spans-out PATH] [--tiny]\n",
               Why);
  return 2;
}

std::string jsonEscape(const std::string &In) {
  std::string Out;
  for (char C : In) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

bool parseNumber(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  std::string SpansOut;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--tiny") {
      Opts.Tiny = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    double Number = 0.0;
    if (Arg == "--workload") {
      Opts.Workload = Value;
    } else if (Arg == "--scratch") {
      Opts.ScratchDir = Value;
    } else if (Arg == "--spans-out") {
      SpansOut = Value;
    } else if (!parseNumber(Value, Number) || Number < 0) {
      return usage(("bad value for " + Arg).c_str());
    } else if (Arg == "--seed") {
      Opts.Seed = static_cast<uint64_t>(Number);
      HaveSeed = true;
    } else if (Arg == "--seconds") {
      Opts.Seconds = Number;
      HaveSeconds = true;
    } else if (Arg == "--trace") {
      Opts.Trace = Number != 0.0;
      HaveTrace = true;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  bool Known = false;
  for (const std::string &Name : workloadNames())
    Known |= Name == Opts.Workload;
  if (!Known)
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());
  if (!HaveSeed || !HaveSeconds || !HaveTrace || Opts.ScratchDir.empty())
    return usage("--seed, --seconds, --trace and --scratch are required");
  std::error_code Ec;
  std::filesystem::create_directories(Opts.ScratchDir, Ec);
  if (Ec)
    return usage(("cannot create " + Opts.ScratchDir).c_str());

  SpanRecorder Rec(Opts.Trace);
  Report R = runWorkload(Opts, Rec);

  char Prov[1024];
  std::snprintf(
      Prov, sizeof(Prov),
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"git_sha\": "
      "\"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", \"cpu_model\": "
      "\"%s\", \"nproc\": %u, \"sim_threads\": %u, \"clock\": \"%s\"}",
      Opts.Workload.c_str(), static_cast<unsigned long long>(Opts.Seed),
      Opts.Trace ? 1 : 0, jsonEscape(atmem::support::gitSha()).c_str(),
      jsonEscape(atmem::support::compilerId()).c_str(),
      ATMEM_PERFBENCH_BUILD_TYPE,
      jsonEscape(atmem::support::cpuModel()).c_str(),
      std::thread::hardware_concurrency(), R.SimThreads,
      clockName(Rec.clock()));
  std::printf("provenance: %s\n", Prov);
  for (const std::string &Note : R.Notes)
    std::printf("%s\n", Note.c_str());

  if (Opts.Trace) {
    double Total = Rec.now();
    double SelfSum = 0.0;
    for (const auto &[Name, Sec] : Rec.selfSeconds()) {
      std::printf("self %-28s %10.3f ms\n", Name.c_str(), Sec * 1e3);
      SelfSum += Sec;
    }
    std::printf("self total %.6f s of %.6f s on the %s clock, %.6f s wall\n",
                SelfSum, Total, clockName(Rec.clock()), Rec.wall());
    if (!SpansOut.empty() && !Rec.writeJson(SpansOut, Prov)) {
      std::fprintf(stderr, "atmem_perfbench: cannot write %s\n",
                   SpansOut.c_str());
      return 1;
    }
  }

  for (const Metric &M : R.EndToEnd)
    std::printf("end_to_end %-24s %.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (Opts.Trace)
    for (const Metric &M : R.Layer)
      std::printf("per_layer  %-28s %.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());

  const std::vector<Metric> &Out = Opts.Trace ? R.Layer : R.EndToEnd;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].Name.c_str(), Out[I].Value,
                Out[I].Unit.c_str());
  std::printf("}}\n");
  return 0;
}
