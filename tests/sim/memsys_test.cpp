// Unit tests for the bus/memory-controller bandwidth model: base latency,
// FIFO capacity, queue-visibility gating, utilisation windows, and the
// calibrated occupancy relationships.
#include "sim/memsys.hpp"

#include <gtest/gtest.h>

#include "sim/params.hpp"
#include "sim/topology.hpp"

namespace paxsim::sim {
namespace {

// The calibrated Paxville memory path, built through the explicit
// constructors as Machine builds it: node 0's controller and package links
// bound to it.
const Topology& pax() {
  static const Topology t = Topology::paxville();
  return t;
}
double mem_latency() { return static_cast<double>(pax().nodes[0].latency); }
double bus_occ() { return pax().link_read_occupancy; }
MemoryController make_controller() {
  return MemoryController(pax().nodes[0].read_occupancy,
                          pax().nodes[0].write_occupancy);
}
FrontSideBus make_bus(MemoryController* mc) {
  return FrontSideBus(pax().link_read_occupancy, pax().link_write_occupancy,
                      mc, mem_latency());
}

TEST(MemSysTest, UncontendedReadLatencyIsBase) {
  MemoryController mc = make_controller();
  FrontSideBus bus = make_bus(&mc);
  EXPECT_DOUBLE_EQ(bus.read(0.0), mem_latency());
}

TEST(MemSysTest, SpacedReadsStayAtBaseLatency) {
  MemoryController mc = make_controller();
  FrontSideBus bus = make_bus(&mc);
  double t = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_NEAR(bus.read(t), mem_latency(), 1.0);
    t += 10 * bus_occ();  // 10% utilisation
  }
}

TEST(MemSysTest, SaturatedReadsQueueVisibly) {
  MemoryController mc = make_controller();
  FrontSideBus bus = make_bus(&mc);
  // 2x oversubscription within bucket windows: later requests in each
  // window must see backlog delay.
  double max_lat = 0;
  double t = 0;
  for (int i = 0; i < 5000; ++i) {
    max_lat = std::max(max_lat, bus.read(t));
    t += bus_occ() / 2;  // 2x oversubscription
  }
  EXPECT_GT(max_lat, mem_latency() * 1.5)
      << "sustained oversubscription must expose queueing";
}

TEST(MemSysTest, BucketServerEnforcesCapacityWithinWindow) {
  BucketServer s;
  // Requests at the same instant: k-th waits k*occ behind.
  EXPECT_DOUBLE_EQ(s.reserve(0.0, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(s.reserve(0.0, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(s.reserve(0.0, 50.0), 100.0);
  // A request arriving after the backlog has drained waits nothing.
  EXPECT_DOUBLE_EQ(s.reserve(200.0, 50.0), 0.0);
}

TEST(MemSysTest, BucketServerSkewedRequestersDoNotContend) {
  BucketServer s;
  // Heavy use around t=1e9...
  for (int i = 0; i < 100; ++i) s.reserve(1e9, 50.0);
  // ...must not delay a requester a million cycles earlier (different
  // window): this is the co-scheduled-programs property.
  EXPECT_DOUBLE_EQ(s.reserve(1e9 - 1e6, 50.0), 0.0);
}

TEST(MemSysTest, BucketServerWindowResets) {
  BucketServer s;
  for (int i = 0; i < 1000; ++i) s.reserve(0.0, 50.0);
  // Far into a later window the backlog is gone.
  EXPECT_DOUBLE_EQ(
      s.reserve(BucketServer::kWindowCycles * 10 + 1.0, 50.0), 0.0);
}

TEST(MemSysTest, UtilizationWindowTracksLoad) {
  UtilizationWindow w;
  EXPECT_DOUBLE_EQ(w.utilization(0.0), 0.0);
  // 50% duty cycle for a while.
  for (double t = 0; t < 200000; t += 100) w.account(t, 50);
  EXPECT_NEAR(w.utilization(200000), 0.5, 0.1);
  w.reset();
  EXPECT_DOUBLE_EQ(w.utilization(200000), 0.0);
}

TEST(MemSysTest, BusUtilizationRisesWithTraffic) {
  MemoryController mc = make_controller();
  FrontSideBus bus = make_bus(&mc);
  double t = 0;
  for (int i = 0; i < 2000; ++i) {
    bus.read(t);
    t += bus_occ();  // back-to-back: 100% utilisation
  }
  EXPECT_GT(bus.utilization(t), 0.9);
}

TEST(MemSysTest, ControllerSharedBetweenBuses) {
  // Two buses at full tilt must jointly exceed the controller's capacity
  // and therefore see queueing that a single bus does not.
  MemoryController mc = make_controller();
  FrontSideBus bus0 = make_bus(&mc);
  FrontSideBus bus1 = make_bus(&mc);
  double t = 0;
  double late = 0;
  for (int i = 0; i < 20000; ++i) {
    late = std::max(late, bus0.read(t));
    late = std::max(late, bus1.read(t));
    t += bus_occ();  // each bus individually at capacity
  }
  EXPECT_GT(mc.utilization(t), 0.9)
      << "joint demand 2x per-bus capacity saturates the controller";
  EXPECT_GT(late, mem_latency())
      << "controller backlog must surface as latency";
}

TEST(MemSysTest, WriteOccupancyCalibration) {
  // The calibration identity: per line of written data the path carries an
  // RFO read plus a writeback, so write bandwidth ~ half of read bandwidth
  // (paper: 1.77 vs 3.57 GB/s on one package).
  const Topology& t = pax();
  const double ghz = MachineParams{}.clock_ghz;
  EXPECT_NEAR(t.link_write_occupancy, t.link_read_occupancy, 1e-9);
  const double write_gbps =
      64.0 / (t.link_read_occupancy + t.link_write_occupancy) * ghz;
  EXPECT_NEAR(write_gbps, 1.77, 0.05);
  const double read_gbps = 64.0 / t.link_read_occupancy * ghz;
  EXPECT_NEAR(read_gbps, 3.57, 0.05);
  const MemNode& node = t.nodes[0];
  const double agg_read = 64.0 / node.read_occupancy * ghz;
  EXPECT_NEAR(agg_read, 4.43, 0.05);
  const double agg_write =
      64.0 / (node.read_occupancy + node.write_occupancy) * ghz;
  EXPECT_NEAR(agg_write, 2.60, 0.05);
}

TEST(MemSysTest, ResetClearsState) {
  MemoryController mc = make_controller();
  FrontSideBus bus = make_bus(&mc);
  for (int i = 0; i < 100; ++i) bus.read(0.0);
  bus.reset();
  mc.reset();
  EXPECT_DOUBLE_EQ(bus.read(0.0), mem_latency());
}

}  // namespace
}  // namespace paxsim::sim
