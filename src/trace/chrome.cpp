// paxsim/trace/chrome.cpp
#include "trace/chrome.hpp"

#include <iomanip>
#include <ostream>

#include "trace/report.hpp"

namespace paxsim::trace {
namespace {

/// Emits the fixed prefix of one event object: {"ph":"<ph>","pid":0,
/// "tid":<tid>,"ts":<ts> — caller appends the rest and closes the brace.
void event_head(std::ostream& os, bool& first, char ph, int tid, double ts) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"ph":")" << ph << R"(","pid":0,"tid":)" << tid << R"(,"ts":)"
     << ts;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const TraceReport& report) {
  const auto flags = os.flags();
  const auto precision = os.precision();
  os << std::fixed << std::setprecision(3);

  os << "{\"traceEvents\":[\n";
  bool first = true;

  // Track metadata: one named thread per hardware context.  The contexts
  // are in slot order, so a context's index is the tid its events carry.
  if (!first) os << ",\n";
  first = false;
  os << R"({"ph":"M","pid":0,"name":"process_name",)"
     << R"("args":{"name":"paxsim machine"}})";
  for (std::size_t tid = 0; tid < report.contexts.size(); ++tid) {
    const sim::LogicalCpu cpu = report.contexts[tid].cpu;
    os << ",\n"
       << R"({"ph":"M","pid":0,"tid":)" << tid
       << R"(,"name":"thread_name","args":{"name":"cpu)" << tid << " (chip"
       << int{cpu.chip} << " core" << int{cpu.core} << " ctx"
       << int{cpu.context} << ")\"}}";
  }

  for (const TraceEvent& ev : report.events) {
    const int tid = ev.cpu;
    switch (ev.kind) {
      case TraceEvent::Kind::kFork:
        event_head(os, first, 'B', tid, ev.t0);
        os << R"(,"cat":"region","name":"region )" << ev.region << "\"}";
        break;
      case TraceEvent::Kind::kJoin:
        event_head(os, first, 'E', tid, ev.t0);
        os << R"(,"cat":"region"})";
        break;
      case TraceEvent::Kind::kLoop:
        event_head(os, first, 'i', tid, ev.t0);
        os << R"(,"s":"t","cat":"loop","name":"loop body )" << ev.a << "\"}";
        break;
      case TraceEvent::Kind::kBarrier:
        event_head(os, first, 'i', tid, ev.t0);
        os << R"(,"s":"t","cat":"sync","name":"barrier"})";
        break;
      case TraceEvent::Kind::kCriticalEnter:
        event_head(os, first, 'B', tid, ev.t0);
        os << R"(,"cat":"sync","name":"critical )" << ev.a << "\"}";
        break;
      case TraceEvent::Kind::kCriticalExit:
        event_head(os, first, 'E', tid, ev.t0);
        os << R"(,"cat":"sync"})";
        break;
      case TraceEvent::Kind::kMemMiss:
        event_head(os, first, 'X', tid, ev.t0);
        os << R"(,"dur":)" << (ev.t1 - ev.t0)
           << R"(,"cat":"mem","name":"mem miss"})";
        break;
      case TraceEvent::Kind::kThreadMoved:
        event_head(os, first, 'i', tid, ev.t0);
        os << R"(,"s":"t","cat":"sched","name":"thread moved from cpu)"
           << ev.a << "\"}";
        break;
      case TraceEvent::Kind::kSample:
        // One counter track per context; the three series stack in the
        // viewer, mirroring the CPI-stack decomposition coarsely.
        event_head(os, first, 'C', tid, ev.t0);
        os << R"(,"name":"cpu)" << tid << R"( cycles","args":{"busy":)"
           << ev.v0 << R"(,"mem_stall":)" << ev.v1 << R"(,"other_stall":)"
           << ev.v2 << "}}";
        break;
    }
  }

  os << "\n],\n\"displayTimeUnit\":\"ns\",\n"
     << "\"otherData\":{\"events_recorded\":" << report.events_recorded
     << ",\"events_dropped\":" << report.events_dropped
     << ",\"wall_cycles\":" << report.wall_cycles << "}}\n";

  os.flags(flags);
  os.precision(precision);
}

}  // namespace paxsim::trace
