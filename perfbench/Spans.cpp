//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstdio>
#include <ctime>

using namespace perfbench;

const char *perfbench::clockName(ClockKind Kind) {
  return Kind == ClockKind::Wall ? "wall" : "process_cpu";
}

double Clock::processCpu() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

int64_t SpanRecorder::open(const char *Name) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = Name;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Group = CurrentGroup;
  Spans.push_back(std::move(S));
  auto Index = static_cast<int64_t>(Spans.size() - 1);
  Stack.push_back(Index);
  return Index;
}

void SpanRecorder::close(int64_t Index, double Start, double End) {
  if (Index < 0)
    return;
  Spans[Index].Start = Start;
  Spans[Index].End = End;
  Stack.pop_back();
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  // Spans come from one thread and nest strictly, so the children of a
  // span never overlap each other and their durations simply add up.
  std::vector<double> ChildCover(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildCover[S.Parent] += S.End - S.Start;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[Spans[I].Name] += (Spans[I].End - Spans[I].Start) - ChildCover[I];
  return Self;
}

bool SpanRecorder::writeJson(const std::string &Path,
                             const std::string &ProvenanceJson) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"provenance\": %s,\n\"clock\": \"%s\",\n\"spans\": [\n",
               ProvenanceJson.c_str(), clockName(Clk.kind()));
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %lld, \"group\": %llu}%s\n",
                 I, S.Name.c_str(), S.Start, S.End,
                 static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Group),
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "],\n\"self_s\": {");
  bool First = true;
  for (const auto &[Name, Sec] : selfSeconds()) {
    std::fprintf(F, "%s\n  \"%s\": %.9f", First ? "" : ",", Name.c_str(),
                 Sec);
    First = false;
  }
  std::fprintf(F, "\n},\n\"wall_s\": %.9f}\n", Clk.wall());
  return std::fclose(F) == 0;
}
