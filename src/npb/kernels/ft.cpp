// NPB FT — 3-D fast Fourier transform.
//
// Each timed step performs a forward 3-D FFT, a pointwise evolution
// (multiplication by per-point phase factors), an inverse 3-D FFT and a
// checksum — the NPB FT time-step structure.
//
// Compute/memory signature: FT is the *compute-bound* member of the pair
// study (the paper pairs it against memory-bound CG): each pencil is
// gathered (strided for the y/z dimensions), transformed with O(n log n)
// in-register arithmetic, and scattered back.  The butterfly arithmetic is
// modelled as issue-bound uops — its operands live in L1/registers — while
// the pencil gather/scatter produces the real strided address stream.
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <vector>

#include "npb/array.hpp"
#include "npb/kernel.hpp"
#include "npb/kernels_impl.hpp"
#include "npb/rng.hpp"

namespace paxsim::npb {
namespace {

struct FtSize {
  std::size_t nx, ny, nz;  // powers of two
  int steps;
};

FtSize ft_size(ProblemClass c) {
  switch (c) {
    case ProblemClass::kClassS: return {8, 8, 8, 2};
    case ProblemClass::kClassW: return {16, 16, 8, 2};
    case ProblemClass::kClassA: return {32, 16, 16, 3};
    case ProblemClass::kClassB: return {32, 32, 16, 3};
  }
  return {8, 8, 8, 2};
}

constexpr xomp::CodeBlock kBlkFftPencil{1, 48};
constexpr xomp::CodeBlock kBlkEvolve{2, 16};
constexpr xomp::CodeBlock kBlkChecksum{3, 12};

using Cplx = std::complex<double>;

/// In-place iterative radix-2 Cooley-Tukey on a host buffer.
void fft1d(std::vector<Cplx>& a, bool inverse) {
  const std::size_t n = a.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Cplx wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Cplx w(1.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cplx u = a[i + k];
        const Cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

class FtKernel final : public Kernel {
 public:
  [[nodiscard]] Benchmark id() const noexcept override { return Benchmark::kFT; }

  void setup(sim::AddressSpace& space, const ProblemConfig& cfg) override {
    const FtSize sz = ft_size(cfg.cls);
    nx_ = sz.nx;
    ny_ = sz.ny;
    nz_ = sz.nz;
    steps_ = sz.steps;
    const std::size_t n = nx_ * ny_ * nz_;
    // Complex data as interleaved re/im doubles: u (field) and w (the
    // transpose/work array NPB FT ping-pongs against).
    u_ = Array<double>(space, 2 * n);
    w_ = Array<double>(space, 2 * n);
    orig_.resize(n);
    NpbRandom rng(cfg.seed);
    for (std::size_t c = 0; c < n; ++c) {
      const double re = rng.next() - 0.5;
      const double im = rng.next() - 0.5;
      u_.host(2 * c) = re;
      u_.host(2 * c + 1) = im;
      orig_[c] = Cplx(re, im);
    }
    checksums_.clear();
  }

  [[nodiscard]] int total_steps() const noexcept override { return steps_; }

  void step(xomp::Team& team, int s) override {
    fft3d(team, /*inverse=*/false);
    evolve(team, s + 1);
    fft3d(team, /*inverse=*/true);
    checksums_.push_back(checksum(team));
  }

  [[nodiscard]] bool verify() const override {
    // Forward FFT + unit-magnitude phase evolution + inverse FFT preserves
    // the field's energy; and the round trip without evolution would return
    // the original exactly.  Check (a) all checksums finite, (b) energy
    // conserved to near machine precision against the initial field.
    if (checksums_.empty()) return false;
    for (const Cplx c : checksums_) {
      if (!std::isfinite(c.real()) || !std::isfinite(c.imag())) return false;
    }
    double e0 = 0, e1 = 0;
    for (std::size_t c = 0; c < orig_.size(); ++c) {
      e0 += std::norm(orig_[c]);
      e1 += u_.host(2 * c) * u_.host(2 * c) +
            u_.host(2 * c + 1) * u_.host(2 * c + 1);
    }
    return std::abs(e0 - e1) <= 1e-9 * e0;
  }

  [[nodiscard]] std::size_t footprint_bytes() const noexcept override {
    return u_.footprint_bytes() + w_.footprint_bytes();
  }

  [[nodiscard]] const std::vector<Cplx>& checksums() const noexcept {
    return checksums_;
  }

  [[nodiscard]] double result_signature() const override {
    return checksums_.empty() ? 0.0
                              : checksums_.back().real() +
                                    checksums_.back().imag();
  }

 private:
  [[nodiscard]] std::size_t at(std::size_t i, std::size_t j,
                               std::size_t k) const noexcept {
    return (k * ny_ + j) * nx_ + i;
  }

  /// Transforms all pencils along dimension @p dim, parallel over pencils.
  ///
  /// NPB FT performs each pass over a *transposed* copy so the 1-D FFTs
  /// always stream contiguously (cffts1..3 + transpose); we model the same
  /// discipline: each pass reads its pencil from one array and writes it to
  /// the other at transposed-layout (contiguous) addresses, ping-ponging
  /// between u_ and the work array.  The address stream the machine sees is
  /// therefore two long prefetchable streams per pass — the real FT memory
  /// signature — while the butterfly arithmetic itself is in-register.
  ///
  /// Arithmetic density is charged at the *unscaled* class-B FFT depth
  /// (512-point transforms, ~9 stages) so that scaling the grid down does
  /// not silently turn the suite's compute-bound member memory-bound.
  void fft_dim(xomp::Team& team, int dim, bool inverse, int pass_index) {
    const std::size_t len = dim == 0 ? nx_ : (dim == 1 ? ny_ : nz_);
    const std::size_t n_pencils = (nx_ * ny_ * nz_) / len;
    constexpr std::uint32_t kClassBStages = 9;  // log2(512)

    Array<double>& src = (pass_index % 2 == 0) ? u_ : w_;
    Array<double>& dst = (pass_index % 2 == 0) ? w_ : u_;

    // One scratch pencil per team rank, so no two ranks' loop bodies write
    // the same host buffer (the shape paxlint's shared-scratch check asks of
    // every parallel body).
    if (pencils_.size() < static_cast<std::size_t>(team.size())) {
      pencils_.resize(static_cast<std::size_t>(team.size()));
    }
    team.parallel_for(
        0, n_pencils, xomp::Schedule::static_default(), kBlkFftPencil,
        [&](std::size_t p, sim::HwContext& ctx, int rank) {
          std::vector<Cplx>& pencil = pencils_[static_cast<std::size_t>(rank)];
          pencil.resize(len);
          // Contiguous read of this pencil in the pass's layout.
          for (std::size_t t = 0; t < len; ++t) {
            const std::size_t c = pencil_cell(dim, p, t);
            ctx.load(src.addr(2 * (p * len + t)));
            pencil[t] = Cplx(src.host(2 * c), src.host(2 * c + 1));
          }
          // Butterflies: ~16 uops per point per stage (complex mul/add plus
          // addressing), in-register.
          ctx.alu(static_cast<std::uint32_t>(len) * kClassBStages * 16);
          fft1d(pencil, inverse);
          // Contiguous write into the other array's layout.
          for (std::size_t t = 0; t < len; ++t) {
            const std::size_t c = pencil_cell(dim, p, t);
            ctx.store(dst.addr(2 * (p * len + t)));
            dst.host(2 * c) = pencil[t].real();
            dst.host(2 * c + 1) = pencil[t].imag();
          }
        });
  }

  [[nodiscard]] std::size_t pencil_cell(int dim, std::size_t p,
                                        std::size_t t) const noexcept {
    switch (dim) {
      case 0: {  // pencil p = (j,k), element t = i
        const std::size_t j = p % ny_;
        const std::size_t k = p / ny_;
        return at(t, j, k);
      }
      case 1: {  // pencil p = (i,k), element t = j
        const std::size_t i = p % nx_;
        const std::size_t k = p / nx_;
        return at(i, t, k);
      }
      default: {  // pencil p = (i,j), element t = k
        const std::size_t i = p % nx_;
        const std::size_t j = p / nx_;
        return at(i, j, t);
      }
    }
  }

  /// Forward 3-D FFT: passes 0,1,2 ping-pong u_ -> w_ -> u_ -> w_, leaving
  /// the spectrum in w_.  Inverse: passes 3,4,5 bring it back to u_.
  void fft3d(xomp::Team& team, bool inverse) {
    if (!inverse) {
      fft_dim(team, 0, false, 0);
      fft_dim(team, 1, false, 1);
      fft_dim(team, 2, false, 2);
    } else {
      fft_dim(team, 2, true, 3);
      fft_dim(team, 1, true, 4);
      fft_dim(team, 0, true, 5);
    }
  }

  /// Pointwise multiplication by a unit-magnitude per-cell phase (stands in
  /// for NPB's exp(-4 pi^2 t |k|^2) evolution while conserving energy so the
  /// verification invariant stays exact).  Operates on the spectrum, which
  /// after the forward passes lives in w_.
  void evolve(xomp::Team& team, int t) {
    const std::size_t n = nx_ * ny_ * nz_;
    team.parallel_for(0, n, xomp::Schedule::static_default(), kBlkEvolve,
                      [&](std::size_t c, sim::HwContext& ctx, int) {
                        ctx.load(w_.addr(2 * c));
                        ctx.alu(8);
                        const double phase =
                            1e-3 * static_cast<double>(t) * static_cast<double>(c % 97);
                        const Cplx w(std::cos(phase), std::sin(phase));
                        const Cplx v =
                            Cplx(w_.host(2 * c), w_.host(2 * c + 1)) * w;
                        ctx.store(w_.addr(2 * c));
                        w_.host(2 * c) = v.real();
                        w_.host(2 * c + 1) = v.imag();
                      });
  }

  Cplx checksum(xomp::Team& team) {
    const std::size_t n = nx_ * ny_ * nz_;
    const std::size_t samples = std::min<std::size_t>(1024, n);
    const double re = team.parallel_reduce(
        0, samples, xomp::Schedule::static_default(), kBlkChecksum,
        [&](std::size_t q, sim::HwContext& ctx, int) {
          const std::size_t c = (q * 1099511628211ull) % n;
          ctx.load(u_.addr(2 * c));
          ctx.alu(2);
          return u_.host(2 * c);
        });
    const double im = team.parallel_reduce(
        0, samples, xomp::Schedule::static_default(), kBlkChecksum,
        [&](std::size_t q, sim::HwContext& ctx, int) {
          const std::size_t c = (q * 1099511628211ull) % n;
          ctx.load(u_.addr(2 * c + 1));
          ctx.alu(2);
          return u_.host(2 * c + 1);
        });
    return {re, im};
  }

  std::size_t nx_ = 0, ny_ = 0, nz_ = 0;
  int steps_ = 0;
  Array<double> u_, w_;
  std::vector<Cplx> orig_;
  std::vector<Cplx> checksums_;
  std::vector<std::vector<Cplx>> pencils_;  // indexed by team rank
};

}  // namespace

namespace detail {
std::unique_ptr<Kernel> make_ft() { return std::make_unique<FtKernel>(); }
}  // namespace detail

}  // namespace paxsim::npb
