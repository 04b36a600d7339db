// Real-transport throughput: the loopback-UDP bus under a windowed flood.
//
// Member 0 floods 256-byte datagrams round-robin to three receivers on one
// bus through its batched recvmmsg/sendmmsg path, windowed on outstanding
// datagrams. Reported: delivered msgs/s, p99 end-to-end delivery latency
// (payloads carry their send timestamp), and syscalls per delivered message
// (send + recv + poll). A path without batching makes at least two per
// message, one sendto and one recvfrom, so batching must stay under one.
// The protocol endpoints over this transport are measured by the
// end-to-end benchmark's UDP workloads (bench/e2e).
//
// RRMP_UDP_SECONDS truncates the flood's duration for CI smoke runs
// (default 1.5 s).
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/udp_host.h"

namespace rrmp {
namespace {

constexpr std::uint16_t kBasePort = 41200;
constexpr std::size_t kReceivers = 3;
constexpr std::size_t kPayloadBytes = 256;
constexpr std::size_t kWindow = 256;  // max outstanding datagrams

double flood_seconds() {
  if (const char* env = std::getenv("RRMP_UDP_SECONDS")) {
    double v = std::atof(env);
    if (v > 0) return v;
  }
  return 1.5;
}

struct FloodResult {
  double msgs_per_sec = 0;
  double p99_us = 0;
  double syscalls_per_msg = 0;
  std::uint64_t delivered = 0;
};

/// Windowed flood on one bus: a 1 ms producer timer keeps up to kWindow
/// datagrams outstanding; receivers record per-datagram latency from the
/// timestamp stamped into the payload.
FloodResult run_flood(double seconds) {
  net::UdpBus bus(1 + kReceivers, kBasePort);
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t reclaimed = 0;  // window slots written off as lost
  std::vector<std::int64_t> latencies;
  latencies.reserve(1 << 20);

  std::vector<std::uint8_t> payload(kPayloadBytes, 0xAB);
  auto top_up = [&] {
    while (sent - delivered - reclaimed < kWindow) {
      std::int64_t stamp = bus.now().us();
      std::memcpy(payload.data(), &stamp, sizeof(stamp));
      bus.send(0, static_cast<MemberId>(1 + sent % kReceivers), payload);
      ++sent;
    }
  };
  // Self-clocking window: each delivery opens a slot and the callback
  // refills it immediately, so the loop measures the syscall + copy path,
  // not a producer pacing interval.
  bus.set_receive_callback(
      [&](MemberId, MemberId, SharedBytes bytes) {
        if (bytes.size() < 8) return;
        std::int64_t stamp;
        std::memcpy(&stamp, bytes.data(), sizeof(stamp));
        latencies.push_back(bus.now().us() - stamp);
        ++delivered;
        top_up();
      });

  std::uint64_t last_delivered = 0;
  int stall_ticks = 0;
  std::function<void()> reclaim_tick = [&] {
    // Datagrams the kernel drops (socket-buffer overflow) would leak
    // window slots forever; a window that makes no delivery progress for
    // 50 ticks is written off wholesale and refilled.
    if (delivered == last_delivered &&
        sent - delivered - reclaimed >= kWindow) {
      if (++stall_ticks >= 50) {
        reclaimed += sent - delivered - reclaimed;
        stall_ticks = 0;
      }
    } else {
      stall_ticks = 0;
      last_delivered = delivered;
    }
    top_up();
    bus.schedule_after(Duration::millis(1), reclaim_tick);
  };
  bus.schedule_after(Duration::zero(), reclaim_tick);

  TimePoint start = bus.now();
  bus.run_until(start + Duration::micros(
                            static_cast<std::int64_t>(seconds * 1e6)));
  double elapsed = static_cast<double>((bus.now() - start).us()) / 1e6;

  FloodResult r;
  r.delivered = delivered;
  r.msgs_per_sec = elapsed > 0 ? static_cast<double>(delivered) / elapsed : 0;
  if (!latencies.empty()) {
    std::size_t idx = latencies.size() * 99 / 100;
    idx = std::min(idx, latencies.size() - 1);
    std::nth_element(latencies.begin(),
                     latencies.begin() + static_cast<std::ptrdiff_t>(idx),
                     latencies.end());
    r.p99_us = static_cast<double>(latencies[idx]);
  }
  std::uint64_t syscalls =
      bus.send_syscalls() + bus.recv_syscalls() + bus.poll_syscalls();
  r.syscalls_per_msg =
      delivered > 0 ? static_cast<double>(syscalls) / static_cast<double>(delivered)
                    : 0;
  return r;
}

}  // namespace
}  // namespace rrmp

int main() {
  using namespace rrmp;
  double seconds = flood_seconds();
  bench::banner("UDP throughput (real loopback sockets)",
                "windowed flood, " + std::to_string(kPayloadBytes) +
                    " B payloads, window " + std::to_string(kWindow) +
                    ", " + std::to_string(seconds) + " s");
  bench::JsonReport report("udp_throughput");

  bool sockets_ok = true;
  try {
    net::UdpBus probe(1, kBasePort);
  } catch (const std::runtime_error&) {
    sockets_ok = false;
  }
  if (!sockets_ok) {
    // Sandboxes that forbid binding UDP sockets skip the measurement the
    // same way the tier-2 socket suites do.
    std::printf("UDP sockets unavailable: skipping measurement\n");
    report.verdict(true, "skipped: UDP sockets unavailable");
    report.write_if_requested();
    return 0;
  }

  FloodResult flood = run_flood(seconds);
  analysis::Table table({"mode", "msgs/s", "p99 us", "syscalls/msg",
                         "delivered"});
  table.add_row({"batched recvmmsg/sendmmsg x32",
                 std::to_string(static_cast<std::int64_t>(flood.msgs_per_sec)),
                 std::to_string(static_cast<std::int64_t>(flood.p99_us)),
                 std::to_string(flood.syscalls_per_msg),
                 std::to_string(flood.delivered)});
  table.print(std::cout);
  bench::maybe_write_csv("udp_throughput", table);
  report.add_table("bus flood: batched syscalls", table);

  report.add_scalar("batched_msgs_per_sec", flood.msgs_per_sec);
  report.add_scalar("batched_p99_us", flood.p99_us);
  report.add_scalar("batched_syscalls_per_msg", flood.syscalls_per_msg);

  report.verdict(flood.delivered > 0 && flood.syscalls_per_msg < 1.0,
                 "batching needs under one syscall per delivered message");
  report.verdict(flood.p99_us > 0, "p99 delivery latency measured");

  report.write_if_requested();
  return report.all_ok() ? 0 : 1;
}
