// WAN deep-dive: watch one regional loss travel the error-recovery
// hierarchy, then a late request trigger the random search for a bufferer.
//
//   $ ./wan_recovery
//
// Reproduces the paper's Figure 2 scenario (regional loss: local requests +
// one probabilistic remote request + regional re-multicast) and the §3.3
// search, with event-level narration from per-member delivery handlers.
#include <algorithm>
#include <cstdio>

#include "harness/cluster.h"

using namespace rrmp;

int main() {
  std::printf("== Scene 1: an entire downstream region misses a message ==\n");
  {
    harness::ClusterConfig config;
    config.region_sizes = {10, 10};
    config.seed = 31337;
    harness::Cluster cluster(config);

    std::vector<MemberId> parent = cluster.region_members(0);
    MessageId id = cluster.inject_data_to(parent[0], 1, parent);
    cluster.inject_session_to(parent[0], 1, cluster.region_members(1));
    cluster.run_until_quiet(Duration::seconds(3));

    const auto& c = cluster.metrics().counters();
    std::printf("  region 1 (10 members) missed message %u:%llu entirely\n",
                id.source, static_cast<unsigned long long>(id.seq));
    std::printf("  -> %llu remote requests crossed to region 0 "
                "(expected ~lambda = 1 per round)\n",
                static_cast<unsigned long long>(c.remote_requests_sent));
    std::printf("  -> %llu regional re-multicast(s) spread the repair\n",
                static_cast<unsigned long long>(c.regional_multicasts));
    std::printf("  -> all 20 members have it: %s\n\n",
                cluster.all_received(id) ? "yes" : "NO");
  }

  std::printf("== Scene 2: a late request arrives after everyone went idle "
              "(search, Sec. 3.3) ==\n");
  {
    // Build a region where the message was received and discarded
    // everywhere except at 3 random long-term bufferers, then let a
    // downstream member ask for it.
    harness::ClusterConfig config;
    config.region_sizes = {12, 1};
    config.seed = 90210;
    harness::Cluster cluster(config);

    std::vector<MemberId> region0 = cluster.region_members(0);
    MessageId id = cluster.inject_data_to(region0[0], 1, region0);
    RandomEngine rng(5);
    std::vector<std::size_t> keep = rng.sample_indices(region0.size(), 3);
    std::vector<bool> is_bufferer(region0.size(), false);
    for (std::size_t i : keep) is_bufferer[i] = true;
    for (std::size_t i = 0; i < region0.size(); ++i) {
      if (is_bufferer[i]) {
        cluster.force_long_term(region0[i], id);
        std::printf("  member %u is a long-term bufferer\n", region0[i]);
      } else {
        cluster.force_discard(region0[i], id);
      }
    }
    MemberId requester = cluster.region_members(1)[0];
    MemberId entry = region0[7];
    std::printf("  remote request from member %u lands at member %u "
                "(discarded its copy)\n", requester, entry);
    cluster.inject_remote_request(entry, id, requester);
    cluster.run_until_quiet(Duration::seconds(2));

    TimePoint t = cluster.metrics().first_remote_repair(id);
    std::printf("  -> search hops: %llu, repair sent after %.1f ms, "
                "requester has the message: %s\n",
                static_cast<unsigned long long>(
                    cluster.metrics().counters().search_hops),
                t.ms(), cluster.endpoint(requester).has_received(id)
                            ? "yes" : "NO");
  }

  std::printf("\n== Scene 3: narrated run (event by event) ==\n");
  {
    // A small two-region cluster narrated through the endpoints' delivery
    // handlers: each logs (time, member) as it delivers, and the log is
    // printed in time order once the run is quiet.
    harness::ClusterConfig config;
    config.region_sizes = {6, 4};
    config.seed = 1999;
    config.protocol.lambda = 2.0;
    harness::Cluster cluster(config);
    struct Delivery {
      TimePoint at;
      MemberId member;
    };
    std::vector<Delivery> log;
    for (MemberId m = 0; m < cluster.size(); ++m) {
      cluster.endpoint(m).set_delivery_handler(
          [&cluster, &log, m](const proto::Data&) {
            log.push_back({cluster.host(m).now(), m});
          });
    }
    std::vector<MemberId> parent = cluster.region_members(0);
    MessageId id = cluster.inject_data_to(parent[0], 1, parent);
    cluster.inject_session_to(parent[0], 1, cluster.region_members(1));
    cluster.run_until_quiet(Duration::seconds(2));
    // Each region runs in its own simulator lane, so the log holds one
    // lane's window before the next: order it by time.
    std::stable_sort(log.begin(), log.end(),
                     [](const Delivery& a, const Delivery& b) {
                       return a.at < b.at;
                     });
    for (const Delivery& d : log) {
      std::printf("  [%6.1f ms] member %2u delivered %u:%llu\n", d.at.ms(),
                  d.member, id.source,
                  static_cast<unsigned long long>(id.seq));
    }
    std::printf("  done: %s\n", cluster.all_received(id) ? "all delivered"
                                                         : "INCOMPLETE");
  }
  return 0;
}
