// paxsim/tune/space.cpp
#include "tune/space.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "harness/engine.hpp"

namespace paxsim::tune {

harness::RunOptions SearchSpace::options_for(
    const Point& p, const harness::RunOptions& base) const {
  harness::RunOptions opt = base;
  opt.sched_kind = sched_kinds[p.sched];
  opt.sched_chunk = chunks[p.chunk];
  opt.grain = grains[p.grain];
  opt.machine_scale = scales[p.scale];
  return opt;
}

std::vector<Point> SearchSpace::cells(npb::Benchmark bench,
                                      const harness::RunOptions& base,
                                      std::uint64_t seed) const {
  std::vector<Point> out;
  std::unordered_set<harness::CellKey, harness::CellKeyHash> seen;
  Point p;
  for (p.config = 0; p.config < configs.size(); ++p.config) {
    for (p.sched = 0; p.sched < sched_kinds.size(); ++p.sched) {
      for (p.chunk = 0; p.chunk < chunks.size(); ++p.chunk) {
        for (p.grain = 0; p.grain < grains.size(); ++p.grain) {
          for (p.scale = 0; p.scale < scales.size(); ++p.scale) {
            const harness::CellKey key = harness::CellKey::from(
                bench, configs[p.config], options_for(p, base), seed);
            if (seen.insert(key).second) out.push_back(p);
          }
        }
      }
    }
  }
  return out;
}

namespace {

// std::to_string(double) renders "16.000000"; labels want "16".
std::string trim_double(double v) {
  std::string s = std::to_string(v);
  const std::size_t dot = s.find('.');
  if (dot == std::string::npos) return s;
  std::size_t last = s.find_last_not_of('0');
  if (last == dot) --last;
  s.erase(last + 1);
  return s;
}

}  // namespace

std::string SearchSpace::describe(const Point& p) const {
  const int kind = sched_kinds[p.sched];
  std::string s = "config=\"";
  s += configs[p.config].name;
  s += "\" sched=";
  s += harness::sched_name(kind);
  if (kind >= 0) {
    s += " chunk=";
    s += std::to_string(chunks[p.chunk]);
  }
  s += " grain=";
  s += std::to_string(grains[p.grain]);
  s += " scale=";
  s += trim_double(scales[p.scale]);
  return s;
}

void SearchSpace::validate() const {
  if (configs.empty() || sched_kinds.empty() || chunks.empty() ||
      grains.empty() || scales.empty()) {
    throw std::invalid_argument("SearchSpace: empty axis");
  }
  for (const int k : sched_kinds) {
    if (k < -1 || k > 2) {
      throw std::invalid_argument("SearchSpace: bad schedule kind " +
                                  std::to_string(k));
    }
  }
  for (const std::size_t g : grains) {
    if (g < 1) throw std::invalid_argument("SearchSpace: grain must be >= 1");
  }
  for (const double s : scales) {
    if (!std::isfinite(s) || s < 1.0) {
      throw std::invalid_argument("SearchSpace: scale must be finite and >= 1");
    }
  }
}

}  // namespace paxsim::tune
