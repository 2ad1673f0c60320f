#include "npb/kernel.hpp"

#include <cctype>
#include <initializer_list>

#include "npb/kernels_impl.hpp"

namespace paxsim::npb {

std::string_view benchmark_name(Benchmark b) noexcept {
  switch (b) {
    case Benchmark::kCG: return "CG";
    case Benchmark::kMG: return "MG";
    case Benchmark::kFT: return "FT";
    case Benchmark::kIS: return "IS";
    case Benchmark::kEP: return "EP";
    case Benchmark::kBT: return "BT";
    case Benchmark::kSP: return "SP";
    case Benchmark::kLU: return "LU";
    case Benchmark::kRacyHist: return "RW";
    case Benchmark::kRacyFlag: return "RF";
  }
  return "??";
}

bool seed_reaches_simulator(Benchmark b) noexcept {
  switch (b) {
    case Benchmark::kCG:  // the random sparse matrix's column indices
    case Benchmark::kIS:  // the keys pick the buckets and ranks written
    case Benchmark::kEP:  // the acceptance test is a simulated branch
      return true;
    case Benchmark::kMG:  // places the charges: values only
    case Benchmark::kFT:  // fills the initial field: values only
    case Benchmark::kBT:  // fills the initial state: values only
    case Benchmark::kSP:
    case Benchmark::kLU:  // fills the right-hand side: values only
    case Benchmark::kRacyHist:  // no seed read
    case Benchmark::kRacyFlag:
      return false;
  }
  return true;
}

bool parse_benchmark(std::string_view s, Benchmark& out) noexcept {
  if (s.size() != 2) return false;
  const char a = static_cast<char>(std::toupper(s[0]));
  const char b = static_cast<char>(std::toupper(s[1]));
  const auto match = [&](Benchmark bm) {
    const std::string_view n = benchmark_name(bm);
    if (n[0] == a && n[1] == b) {
      out = bm;
      return true;
    }
    return false;
  };
  for (const Benchmark bm : kAllBenchmarks) {
    if (match(bm)) return true;
  }
  for (const Benchmark bm : kRacyBenchmarks) {
    if (match(bm)) return true;
  }
  return false;
}

std::string_view class_name(ProblemClass c) noexcept {
  switch (c) {
    case ProblemClass::kClassS: return "S";
    case ProblemClass::kClassW: return "W";
    case ProblemClass::kClassA: return "A";
    case ProblemClass::kClassB: return "B";
  }
  return "?";
}

bool parse_class(std::string_view s, ProblemClass& out) noexcept {
  for (const ProblemClass c : {ProblemClass::kClassS, ProblemClass::kClassW,
                               ProblemClass::kClassA, ProblemClass::kClassB}) {
    if (class_name(c) == s) {
      out = c;
      return true;
    }
  }
  return false;
}

std::unique_ptr<Kernel> make_kernel(Benchmark b) {
  switch (b) {
    case Benchmark::kCG: return detail::make_cg();
    case Benchmark::kMG: return detail::make_mg();
    case Benchmark::kFT: return detail::make_ft();
    case Benchmark::kIS: return detail::make_is();
    case Benchmark::kEP: return detail::make_ep();
    case Benchmark::kBT: return detail::make_bt();
    case Benchmark::kSP: return detail::make_sp();
    case Benchmark::kLU: return detail::make_lu();
    case Benchmark::kRacyHist: return detail::make_racy_hist();
    case Benchmark::kRacyFlag: return detail::make_racy_flag();
  }
  return nullptr;
}

}  // namespace paxsim::npb
