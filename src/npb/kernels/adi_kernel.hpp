// NPB BT / SP — simplified ADI application kernels (shared implementation).
//
// Both applications advance a 5-component field on a 3-D grid by an
// alternating-direction implicit step: for each dimension, every grid line
// is solved with the Thomas algorithm for an implicit diffusion system
// (I + sigma * tridiag(-1, 2, -1)) u* = u with reflective (Neumann) ends.
// This is a real, unconditionally stable solve with two exact invariants we
// verify: total mass is conserved and energy (sum u^2) is non-increasing.
//
// The two benchmarks differ exactly where the NPB originals differ:
//   * BT solves 5x5 *block* tridiagonal systems — all five components move
//     in one pass per dimension, with heavy per-cell arithmetic (the block
//     factorisations).  Compute-rich, good cache locality.
//   * SP solves *scalar* (penta)diagonal systems — one component per pass,
//     five passes per dimension, light per-cell arithmetic.  Same data, 5x
//     the memory sweeps: SP is the bandwidth-hungry sibling.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "npb/array.hpp"
#include "npb/kernel.hpp"
#include "npb/rng.hpp"

namespace paxsim::npb::detail {

struct AdiShape {
  std::size_t n;  // grid edge
  int steps;
};

inline AdiShape adi_size(ProblemClass c) {
  // Class B keeps the field at ~10x the (scaled) per-core L2, preserving
  // the "grid far exceeds the cache" regime the real class B sits in — a
  // smaller grid would let the split working set become L2-resident and
  // manufacture superlinear speedups the paper does not show.
  switch (c) {
    case ProblemClass::kClassS: return {8, 2};
    case ProblemClass::kClassW: return {16, 3};
    case ProblemClass::kClassA: return {24, 3};
    case ProblemClass::kClassB: return {32, 4};
  }
  return {8, 2};
}

/// Behavioural knobs distinguishing BT from SP.
struct AdiProfile {
  Benchmark bench;
  bool per_component_passes;     // SP: one pass per component
  std::uint32_t cell_uops;       // arithmetic per cell per pass
  std::uint32_t body_uops;       // static code-block size
};

template <AdiProfile Profile>
class AdiKernel final : public Kernel {
 public:
  [[nodiscard]] Benchmark id() const noexcept override { return Profile.bench; }

  void setup(sim::AddressSpace& space, const ProblemConfig& cfg) override {
    const AdiShape sz = adi_size(cfg.cls);
    n_ = sz.n;
    steps_ = sz.steps;
    u_ = Array<double>(space, kComp * n_ * n_ * n_);
    NpbRandom rng(cfg.seed);
    double mass = 0, energy = 0;
    for (std::size_t c = 0; c < u_.size(); ++c) {
      const double v = rng.next() - 0.5;
      u_.host(c) = v;
      mass += v;
      energy += v * v;
    }
    initial_mass_ = mass;
    initial_energy_ = energy;
    energy_history_.assign(1, energy);
  }

  [[nodiscard]] int total_steps() const noexcept override { return steps_; }

  void step(xomp::Team& team, int /*s*/) override {
    for (int dim = 0; dim < 3; ++dim) {
      if constexpr (Profile.per_component_passes) {
        for (std::size_t comp = 0; comp < kComp; ++comp) {
          sweep(team, dim, comp, comp + 1);
        }
      } else {
        sweep(team, dim, 0, kComp);
      }
    }
    energy_history_.push_back(host_energy());
  }

  [[nodiscard]] bool verify() const override {
    // Mass conservation (Neumann ends) and monotone energy decay.
    double mass = 0;
    for (std::size_t c = 0; c < u_.size(); ++c) {
      if (!std::isfinite(u_.host(c))) return false;
      mass += u_.host(c);
    }
    if (std::abs(mass - initial_mass_) >
        1e-9 * (1.0 + std::abs(initial_mass_))) {
      return false;
    }
    for (std::size_t s = 1; s < energy_history_.size(); ++s) {
      if (energy_history_[s] > energy_history_[s - 1] * (1.0 + 1e-12)) {
        return false;
      }
    }
    return energy_history_.back() < initial_energy_;
  }

  [[nodiscard]] std::size_t footprint_bytes() const noexcept override {
    return u_.footprint_bytes();
  }

  [[nodiscard]] double result_signature() const override {
    return energy_history_.back();
  }

 private:
  static constexpr std::size_t kComp = 5;
  static constexpr double kSigma = 0.4;
  static constexpr xomp::CodeBlock kBlkSweep{1, Profile.body_uops};

  [[nodiscard]] std::size_t cell(std::size_t i, std::size_t j,
                                 std::size_t k) const noexcept {
    return ((k * n_ + j) * n_ + i);
  }

  /// Solves (I + sigma*L) x = rhs along one line (Thomas), reflective ends.
  static void thomas(std::vector<double>& x) {
    const std::size_t n = x.size();
    static thread_local std::vector<double> cp, dp;
    cp.assign(n, 0.0);
    dp.assign(n, 0.0);
    auto diag = [n](std::size_t t) {
      return (t == 0 || t + 1 == n) ? 1.0 + kSigma : 1.0 + 2.0 * kSigma;
    };
    const double off = -kSigma;
    cp[0] = off / diag(0);
    dp[0] = x[0] / diag(0);
    for (std::size_t t = 1; t < n; ++t) {
      const double m = diag(t) - off * cp[t - 1];
      cp[t] = off / m;
      dp[t] = (x[t] - off * dp[t - 1]) / m;
    }
    x[n - 1] = dp[n - 1];
    for (std::size_t t = n - 1; t-- > 0;) x[t] = dp[t] - cp[t] * x[t + 1];
  }

  /// One implicit sweep along dimension @p dim for components
  /// [comp_lo, comp_hi), parallel over the n^2 grid lines.
  ///
  /// BT visits each 40-byte cell once per dimension and solves all five
  /// components off that single visit (block-tridiagonal: one pass, heavy
  /// per-cell arithmetic).  SP is called once per component, so it re-sweeps
  /// the whole interleaved field five times per dimension with light
  /// arithmetic — 5x the memory traffic over the same lines, the scalar-
  /// pentadiagonal signature.
  void sweep(xomp::Team& team, int dim, std::size_t comp_lo,
             std::size_t comp_hi) {
    const std::size_t n = n_;
    const auto ncomp = static_cast<std::uint32_t>(comp_hi - comp_lo);
    // One scratch set per team rank, so no two ranks' loop bodies write the
    // same host buffer (the shape paxlint's shared-scratch check asks of
    // every parallel body).  thomas() keeps its temporaries thread_local
    // because concurrent --jobs workers share its statics.
    if (scratch_.size() < static_cast<std::size_t>(team.size())) {
      scratch_.resize(static_cast<std::size_t>(team.size()));
    }
    team.parallel_for(
        0, n * n, xomp::Schedule::static_default(), kBlkSweep,
        [&](std::size_t line, sim::HwContext& ctx, int rank) {
          Scratch& sc = scratch_[static_cast<std::size_t>(rank)];
          std::vector<double>& line_buf = sc.line_buf;
          const std::size_t a = line % n;
          const std::size_t b = line / n;
          line_buf.resize(n * (comp_hi - comp_lo));
          // Gather: one visit per cell, all requested components ride the
          // same 40-byte cell record.
          for (std::size_t t = 0; t < n; ++t) {
            const std::size_t c = line_cell(dim, a, b, t);
            ctx.load(u_.addr(kComp * c + comp_lo));
            for (std::size_t comp = comp_lo; comp < comp_hi; ++comp) {
              line_buf[(comp - comp_lo) * n + t] = u_.host(kComp * c + comp);
            }
          }
          // Per-cell arithmetic (5x5 block factorisations for BT, scalar
          // eliminations for SP), then the real Thomas solves.
          ctx.alu(static_cast<std::uint32_t>(n) * Profile.cell_uops * ncomp);
          for (std::size_t comp = comp_lo; comp < comp_hi; ++comp) {
            sc.comp_view.assign(
                line_buf.begin() + static_cast<std::ptrdiff_t>((comp - comp_lo) * n),
                line_buf.begin() + static_cast<std::ptrdiff_t>((comp - comp_lo + 1) * n));
            thomas(sc.comp_view);
            for (std::size_t t = 0; t < n; ++t) {
              line_buf[(comp - comp_lo) * n + t] = sc.comp_view[t];
            }
          }
          // Scatter: again one store per cell visit.
          for (std::size_t t = 0; t < n; ++t) {
            const std::size_t c = line_cell(dim, a, b, t);
            ctx.store(u_.addr(kComp * c + comp_lo));
            for (std::size_t comp = comp_lo; comp < comp_hi; ++comp) {
              u_.host(kComp * c + comp) = line_buf[(comp - comp_lo) * n + t];
            }
          }
        });
  }

  [[nodiscard]] std::size_t line_cell(int dim, std::size_t a, std::size_t b,
                                      std::size_t t) const noexcept {
    switch (dim) {
      case 0: return cell(t, a, b);
      case 1: return cell(a, t, b);
      default: return cell(a, b, t);
    }
  }

  [[nodiscard]] double host_energy() const {
    double e = 0;
    for (std::size_t c = 0; c < u_.size(); ++c) e += u_.host(c) * u_.host(c);
    return e;
  }

  std::size_t n_ = 0;
  int steps_ = 0;
  double initial_mass_ = 0;
  double initial_energy_ = 0;
  struct Scratch {
    std::vector<double> line_buf;
    std::vector<double> comp_view;
  };

  std::vector<double> energy_history_;
  std::vector<Scratch> scratch_;  // indexed by team rank
  Array<double> u_;
};

}  // namespace paxsim::npb::detail
