// paxsim/tune/space.cpp
#include "tune/space.hpp"

#include <cmath>
#include <stdexcept>

namespace paxsim::tune {

std::size_t SearchSpace::axis_size(std::size_t axis) const {
  switch (axis) {
    case 0: return configs.size();
    case 1: return sched_kinds.size();
    case 2: return chunks.size();
    case 3: return grains.size();
    case 4: return scales.size();
    default: throw std::invalid_argument("SearchSpace: bad axis");
  }
}

std::size_t SearchSpace::size() const {
  std::size_t n = 1;
  for (std::size_t a = 0; a < kAxes; ++a) n *= axis_size(a);
  return n;
}

std::size_t SearchSpace::distinct_cells() const {
  // Kernel-default schedule rows collapse the chunk axis to one point.
  std::size_t defaults = 0;
  for (const int k : sched_kinds) {
    if (k < 0) ++defaults;
  }
  const std::size_t per_config =
      (defaults + (sched_kinds.size() - defaults) * chunks.size()) *
      grains.size() * scales.size();
  return configs.size() * per_config;
}

std::size_t SearchSpace::to_flat(const Point& p) const {
  // Mixed radix, config most significant — grid order walks configurations
  // in Table-1 order first, which keeps trajectories readable.
  std::size_t flat = p.config;
  flat = flat * sched_kinds.size() + p.sched;
  flat = flat * chunks.size() + p.chunk;
  flat = flat * grains.size() + p.grain;
  flat = flat * scales.size() + p.scale;
  return flat;
}

Point SearchSpace::from_flat(std::size_t flat) const {
  Point p;
  p.scale = flat % scales.size();
  flat /= scales.size();
  p.grain = flat % grains.size();
  flat /= grains.size();
  p.chunk = flat % chunks.size();
  flat /= chunks.size();
  p.sched = flat % sched_kinds.size();
  flat /= sched_kinds.size();
  p.config = flat;
  return p;
}

Point SearchSpace::canonicalize(Point p) const {
  if (sched_kinds[p.sched] < 0) p.chunk = 0;
  return p;
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
  s += kind < 0 ? "default"
                : (kind == 0 ? "static" : (kind == 1 ? "dynamic" : "guided"));
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
  for (std::size_t a = 0; a < kAxes; ++a) {
    if (axis_size(a) == 0) {
      throw std::invalid_argument("SearchSpace: empty axis " +
                                  std::to_string(a));
    }
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
