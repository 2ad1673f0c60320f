// bench/sec3_lmbench.cpp — regenerates the paper's Section 3 platform
// characterisation: LMbench-style load latency ladder and streaming
// read/write bandwidth, one package vs both packages, on the *unscaled*
// calibrated machine.  It takes no arguments: the stream buffer is sized
// for that machine's caches, so other machines (--machine=) are refused.
#include <cstdio>

#include "paxsim.hpp"

using namespace paxsim;

int main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr,
                 "error: unexpected argument '%s'\nusage: %s  (no arguments: "
                 "it measures the calibrated machine)\n",
                 argv[1], argv[0]);
    return 2;
  }
  const sim::MachineParams full{};
  std::printf("paxsim reproduction of Grant & Afsahi, IPPS 2007 — Section 3\n");
  std::printf("LMbench-analog on the calibrated machine (unscaled)\n\n");

  std::printf("%-16s %12s\n", "working set", "ns / load");
  const auto sizes = lmb::default_ladder_sizes(4 * 1024, 64 * 1024 * 1024);
  for (const auto& pt : lmb::latency_ladder(full, sizes, 8000)) {
    std::printf("%13zu KB %12.2f\n", pt.working_set_bytes / 1024, pt.ns_per_load);
  }
  std::printf("\npaper anchors: L1 1.43 ns, L2 10.6 ns, memory 136.85 ns\n\n");

  const auto one = lmb::stream_bandwidth(full, /*both_chips=*/false);
  const auto two = lmb::stream_bandwidth(full, /*both_chips=*/true);
  std::printf("%-12s %10s %10s\n", "placement", "read GB/s", "write GB/s");
  std::printf("%-12s %10.2f %10.2f   (paper: 3.57 / 1.77)\n", "one chip",
              one.read_gbps, one.write_gbps);
  std::printf("%-12s %10.2f %10.2f   (paper: 4.43 / 2.60)\n", "two chips",
              two.read_gbps, two.write_gbps);
  return 0;
}
