//===----------------------------------------------------------------------===//
//
// Part of the ATMem reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "FaultInjection.h"

#include "../support/Prng.h"
#include "../support/StringUtils.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

namespace atmem {
namespace fault {

namespace detail {
std::atomic<bool> GArmed{false};
} // namespace detail

namespace {

/// Per-site state: the registered name, the armed plan (if any), and hit
/// bookkeeping relative to the most recent arm().
struct SiteState {
  std::string Name;
  bool Armed = false;
  FaultPlan Plan;
  uint64_t Hits = 0;
  uint64_t Fires = 0;
  /// Probability-mode stream; reseeded on every arm() so schedules replay.
  Xoshiro256 Rng{1};
};

} // namespace

struct FaultRegistry::Impl {
  mutable std::mutex Mu;
  std::vector<SiteState> Sites;
  std::map<std::string, uint32_t> Index;
  uint32_t ArmedCount = 0;

  uint32_t idFor(const std::string &Name) {
    auto It = Index.find(Name);
    if (It != Index.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Sites.size());
    Sites.emplace_back();
    Sites.back().Name = Name;
    Index.emplace(Name, Id);
    return Id;
  }
};

FaultRegistry::FaultRegistry() : I(new Impl) {}

FaultRegistry &FaultRegistry::instance() {
  static FaultRegistry R;
  return R;
}

uint32_t FaultRegistry::siteId(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->idFor(Name);
}

bool FaultRegistry::shouldFail(uint32_t Id) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  if (Id >= I->Sites.size())
    return false;
  SiteState &S = I->Sites[Id];
  ++S.Hits;
  if (!S.Armed)
    return false;
  bool Fire = false;
  switch (S.Plan.Mode) {
  case Trigger::Nth:
    Fire = S.Hits == S.Plan.N;
    break;
  case Trigger::EveryKth:
    Fire = S.Plan.N != 0 && S.Hits % S.Plan.N == 0;
    break;
  case Trigger::Probability:
    Fire = S.Rng.nextDouble() < S.Plan.P;
    break;
  }
  if (Fire)
    ++S.Fires;
  return Fire;
}

void FaultRegistry::arm(const std::string &SiteName, const FaultPlan &Plan) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  SiteState &S = I->Sites[I->idFor(SiteName)];
  if (!S.Armed)
    ++I->ArmedCount;
  S.Armed = true;
  S.Plan = Plan;
  S.Hits = 0;
  S.Fires = 0;
  S.Rng = Xoshiro256(Plan.Seed);
  detail::GArmed.store(true, std::memory_order_relaxed);
}

void FaultRegistry::disarm(const std::string &SiteName) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->Index.find(SiteName);
  if (It == I->Index.end())
    return;
  SiteState &S = I->Sites[It->second];
  if (S.Armed)
    --I->ArmedCount;
  S.Armed = false;
  if (I->ArmedCount == 0)
    detail::GArmed.store(false, std::memory_order_relaxed);
}

void FaultRegistry::disarmAll() {
  std::lock_guard<std::mutex> Lock(I->Mu);
  for (SiteState &S : I->Sites)
    S.Armed = false;
  I->ArmedCount = 0;
  detail::GArmed.store(false, std::memory_order_relaxed);
}

uint64_t FaultRegistry::hits(const std::string &SiteName) const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->Index.find(SiteName);
  return It == I->Index.end() ? 0 : I->Sites[It->second].Hits;
}

uint64_t FaultRegistry::fires(const std::string &SiteName) const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  auto It = I->Index.find(SiteName);
  return It == I->Index.end() ? 0 : I->Sites[It->second].Fires;
}

std::vector<std::string> FaultRegistry::registeredSites() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  std::vector<std::string> Names;
  Names.reserve(I->Index.size());
  for (const auto &Entry : I->Index)
    Names.push_back(Entry.first);
  return Names;
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

namespace {

void setError(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
}

bool parseProbability(std::string_view Text, double &Out) {
  if (Text.empty())
    return false;
  // strtod accepts trailing garbage; require full consumption ourselves.
  std::string Copy(Text);
  char *End = nullptr;
  double Value = std::strtod(Copy.c_str(), &End);
  if (End != Copy.c_str() + Copy.size())
    return false;
  if (!(Value >= 0.0 && Value <= 1.0))
    return false;
  Out = Value;
  return true;
}

/// Parses one `site=trigger` entry into (Name, Plan); no side effects.
bool parseEntry(std::string_view Entry, std::string &Name, FaultPlan &Plan,
                std::string *Error) {
  size_t Eq = Entry.find('=');
  if (Eq == std::string_view::npos || Eq == 0) {
    setError(Error, "fault-spec entry '" + std::string(Entry) +
                        "' is missing 'site=trigger'");
    return false;
  }
  Name = std::string(Entry.substr(0, Eq));
  std::string_view Trig = Entry.substr(Eq + 1);
  size_t Colon = Trig.find(':');
  if (Colon == std::string_view::npos) {
    setError(Error, "fault-spec trigger '" + std::string(Trig) +
                        "' is missing a ':' argument");
    return false;
  }
  std::string_view Kind = Trig.substr(0, Colon);
  std::string_view Args = Trig.substr(Colon + 1);
  if (Kind == "nth" || Kind == "every") {
    uint64_t N = 0;
    if (!tryParseUnsigned(Args, N) || N == 0) {
      setError(Error, "fault-spec trigger '" + std::string(Trig) +
                          "' needs a positive integer");
      return false;
    }
    Plan.Mode = Kind == "nth" ? Trigger::Nth : Trigger::EveryKth;
    Plan.N = N;
    return true;
  }
  if (Kind == "prob") {
    std::string_view PText = Args;
    std::string_view SeedText;
    size_t SeedColon = Args.find(':');
    if (SeedColon != std::string_view::npos) {
      PText = Args.substr(0, SeedColon);
      SeedText = Args.substr(SeedColon + 1);
    }
    Plan.Mode = Trigger::Probability;
    if (!parseProbability(PText, Plan.P)) {
      setError(Error, "fault-spec probability '" + std::string(PText) +
                          "' must be a number in [0,1]");
      return false;
    }
    Plan.Seed = 1;
    if (!SeedText.empty() && !tryParseUnsigned(SeedText, Plan.Seed)) {
      setError(Error, "fault-spec seed '" + std::string(SeedText) +
                          "' must be a non-negative integer");
      return false;
    }
    return true;
  }
  setError(Error, "fault-spec trigger kind '" + std::string(Kind) +
                      "' is not one of nth/every/prob");
  return false;
}

} // namespace

bool armFromSpec(std::string_view Spec, std::string *Error) {
  // Parse the whole spec before arming anything so a malformed tail cannot
  // leave a half-armed process.
  std::vector<std::pair<std::string, FaultPlan>> Parsed;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string_view::npos)
      Comma = Spec.size();
    std::string_view Entry = Spec.substr(Pos, Comma - Pos);
    if (Entry.empty()) {
      setError(Error, "fault-spec has an empty entry");
      return false;
    }
    std::string Name;
    FaultPlan Plan;
    if (!parseEntry(Entry, Name, Plan, Error))
      return false;
    Parsed.emplace_back(std::move(Name), Plan);
    if (Comma == Spec.size())
      break;
    Pos = Comma + 1;
  }
  if (Parsed.empty()) {
    setError(Error, "fault-spec is empty");
    return false;
  }
  FaultRegistry &R = FaultRegistry::instance();
  for (const auto &Entry : Parsed)
    R.arm(Entry.first, Entry.second);
  return true;
}

bool armFromEnvironment(std::string *Error) {
  const char *Spec = std::getenv("ATMEM_FAULT_SPEC");
  if (!Spec || !*Spec)
    return true;
  return armFromSpec(Spec, Error);
}

const char *faultSpecHelp() {
  return "site=trigger[,site=trigger...] where trigger is nth:N, every:K, "
         "or prob:P[:seed]";
}

} // namespace fault
} // namespace atmem
