// rebeca_perfbench: the measuring half of the repo benchmark (run.py is
// the other). Each mode prints JSON lines on stdout; run.py aggregates.
//
//   rebeca_perfbench once    --workload W --seed N
//       one untraced run in a fresh process: simulated metrics, the
//       per-subscription check, the report digest and peak RSS.
//   rebeca_perfbench measure --workload W --seed N --seconds S
//       repeated untraced runs for S seconds (at least three, after one
//       warm-up): one "rep" line per run with its host times, plus
//       set-up-only samples ("setup" lines).
//   rebeca_perfbench trace   --workload W --seed N --seconds S --out F
//       an untraced reference run, then a traced run with spans around
//       each phase, report() and teardown, broker/counter snapshots at
//       phase ends, and the per-layer probes; writes the spans to F and
//       prints one "trace" line with every per-layer metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "perfbench/src/check.hpp"
#include "perfbench/src/probes.hpp"
#include "perfbench/src/trace.hpp"
#include "perfbench/src/workloads.hpp"
#include "src/metrics/checkers.hpp"

namespace {

using perfbench::MetricSet;
using perfbench::now_s;
using perfbench::Workload;
using rebeca::metrics::MessageClass;
using rebeca::scenario::Scenario;
using rebeca::scenario::ScenarioReport;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string out;
};

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--out") a.out = v;
    else return false;
  }
  return !a.workload.empty();
}

std::string fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::uint64_t all_messages(const rebeca::metrics::MessageCounters& m) {
  return m.total() + m.count(MessageClass::dropped);
}

/// The simulated end-to-end metrics: exact functions of the seed.
void simulated_metrics(const ScenarioReport& r, MetricSet& out) {
  out.add("latency_p50_ms", static_cast<double>(r.latency.p50) / 1e6, "ms");
  out.add("latency_p99_ms", static_cast<double>(r.latency.p99) / 1e6, "ms");
  out.add("msgs_per_delivery",
          r.delivered ? static_cast<double>(all_messages(r.messages)) /
                            static_cast<double>(r.delivered)
                      : 0,
          "ratio");
}

int run_once(Workload& w) {
  auto s = w.builder.build();
  s->run();
  const ScenarioReport r = s->report();
  const double peak_mb = perfbench::proc_status_mb("VmHWM");
  const perfbench::CheckResult c = perfbench::check_deliveries(w, *s, r);
  MetricSet sim;
  simulated_metrics(r, sim);
  std::cout << "{\"kind\": \"once\", \"report_digest\": \""
            << fnv1a(r.to_string()) << "\", \"peak_rss_mb\": " << num(peak_mb)
            << ", \"published\": " << r.published
            << ", \"delivered\": " << r.delivered
            << ", \"report_duplicates\": " << r.duplicates
            << ", \"expected\": " << c.expected
            << ", \"checked_deliveries\": " << c.delivered
            << ", \"missing\": " << c.missing
            << ", \"duplicates\": " << c.duplicates
            << ", \"spurious\": " << c.spurious
            << ", \"fifo_violations\": " << c.fifo_violations
            << ", \"report_only_duplicate_clients\": "
            << c.report_only_duplicate_clients
            << ", \"failed\": " << c.failed()
            << ", \"simulated\": " << sim.json() << "}" << std::endl;
  return 0;
}

int run_measure(Workload& w, double seconds) {
  // Set-up takes under a millisecond: one sample per rep alone would
  // leave its median at the mercy of a few samples.
  constexpr std::size_t kExtraSetups = 8;
  const double start = now_s();
  // Rep 0 warms the allocator and caches and is not reported.
  for (std::size_t rep = 0; rep < 4 || now_s() - start < seconds; ++rep) {
    for (std::size_t i = 0; i < kExtraSetups; ++i) {
      const double t0 = now_s();
      auto s = w.builder.build();
      const double t1 = now_s();
      s.reset();
      std::cout << "{\"kind\": \"setup\", \"setup_s\": " << num(t1 - t0) << "}\n";
    }
    const double t0 = now_s();
    auto s = w.builder.build();
    const double t1 = now_s();
    s->run();
    const double t2 = now_s();
    const ScenarioReport r = s->report();
    const double t3 = now_s();
    s.reset();
    const double t4 = now_s();
    if (rep == 0) continue;
    std::cout << "{\"kind\": \"rep\", \"setup_s\": " << num(t1 - t0)
              << ", \"run_s\": " << num(t2 - t1)
              << ", \"report_s\": " << num(t3 - t2)
              << ", \"teardown_s\": " << num(t4 - t3)
              << ", \"wall_s\": " << num(t4 - t0)
              << ", \"deliveries\": " << r.delivered
              << ", \"report_digest\": \"" << fnv1a(r.to_string()) << "\"}"
              << std::endl;
  }
  return 0;
}

/// Broker-plane gauges and counters summed over all brokers.
struct BrokerSums {
  double routing_entries = 0, routing_tags = 0, match_index_entries = 0,
         cover_index_entries = 0, virtuals = 0, pending_moveouts = 0,
         pins_active = 0, replayed = 0, replay_truncated = 0,
         reexposed_filters = 0;

  /// Gauges keep their largest reading; cumulative counters the latest.
  void keep_peak(const BrokerSums& b) {
    routing_entries = std::max(routing_entries, b.routing_entries);
    routing_tags = std::max(routing_tags, b.routing_tags);
    match_index_entries = std::max(match_index_entries, b.match_index_entries);
    cover_index_entries = std::max(cover_index_entries, b.cover_index_entries);
    virtuals = std::max(virtuals, b.virtuals);
    pending_moveouts = std::max(pending_moveouts, b.pending_moveouts);
    pins_active = std::max(pins_active, b.pins_active);
    replayed = b.replayed;
    replay_truncated = b.replay_truncated;
    reexposed_filters = b.reexposed_filters;
  }
};

BrokerSums broker_sums(Scenario& s) {
  BrokerSums b;
  for (std::size_t i = 0; i < s.overlay().broker_count(); ++i) {
    const rebeca::broker::Broker& br = s.overlay().broker(i);
    b.routing_entries += static_cast<double>(br.routing_entry_count());
    b.routing_tags += static_cast<double>(br.routing_tag_count());
    b.match_index_entries += static_cast<double>(br.match_index_entries());
    b.cover_index_entries += static_cast<double>(br.cover_index_entries());
    b.virtuals += static_cast<double>(br.virtual_count());
    b.pending_moveouts += static_cast<double>(br.pending_moveout_count());
    b.pins_active += static_cast<double>(br.reexpose_pin_count());
    b.replayed += static_cast<double>(br.replayed_notifications());
    b.replay_truncated += static_cast<double>(br.replay_truncated());
    b.reexposed_filters += static_cast<double>(br.reexposed_filters());
  }
  return b;
}

int run_trace(Workload& w, double seconds, const std::string& out_path) {
  // Untraced reference run of the same seed: the guard compares its
  // report byte for byte with the traced run's.
  double untraced_wall = 0;
  std::string reference;
  {
    const double u0 = now_s();
    auto s = w.builder.build();
    s->run();
    const ScenarioReport r = s->report();
    s.reset();
    untraced_wall = now_s() - u0;
    reference = r.to_string();
  }

  perfbench::Tracer t;
  const int root = t.begin("workload." + w.name);
  const int setup = t.begin("setup");
  auto s = w.builder.build();
  t.end(setup);

  const int run = t.begin("run");
  double phase_s[3] = {};
  const bool classic = s->shard_count() == 0;
  double queue_depth = 0;
  BrokerSums peak;
  rebeca::metrics::MessageCounters counters;
  double collect_s = 0;
  static const char* const kPhaseNames[] = {"settle", "traffic", "drain"};
  for (std::size_t i = 0; i < 3; ++i) {
    const int p = t.begin(std::string("phase.") + kPhaseNames[i]);
    s->run_next_phase();
    phase_s[i] = t.end(p);
    const int c = t.begin("collect");
    if (classic) {
      queue_depth = std::max(queue_depth,
                             static_cast<double>(s->sim().pending_events()));
    }
    counters = s->overlay().total_counters();
    peak.keep_peak(broker_sums(*s));
    collect_s += t.end(c);
  }
  const double run_s = t.end(run);
  const double rss_after_run = perfbench::proc_status_mb("VmRSS");

  const int rep = t.begin("report");
  const ScenarioReport r = s->report();
  const double report_s = t.end(rep);
  const double rss_after_report = perfbench::proc_status_mb("VmRSS");
  const bool identical = r.to_string() == reference;

  // Capture the probes' inputs from the live run.
  perfbench::ProbeInputs in;
  const std::vector<rebeca::filter::Notification>& pubs = s->publications();
  in.publications.assign(pubs.begin(),
                         pubs.begin() + static_cast<std::ptrdiff_t>(
                                            std::min<std::size_t>(pubs.size(), 2048)));
  in.queue_depth = static_cast<std::size_t>(queue_depth);
  const perfbench::ConsumerDecl* busiest = nullptr;
  double delivered = 0, duplicates = 0, filtered = 0;
  std::vector<rebeca::filter::Filter> all_filters;
  std::vector<rebeca::SubKey> all_keys;
  std::vector<bool> roaming;
  for (const perfbench::ConsumerDecl& c : w.consumers) {
    const rebeca::client::Client& cl = s->client(c.name);
    for (std::size_t k = 0; k < c.filters.size(); ++k) {
      all_filters.push_back(c.filters[k]);
      all_keys.push_back(rebeca::SubKey{cl.id(), static_cast<std::uint32_t>(k + 1)});
      roaming.push_back(c.roams);
    }
    delivered += static_cast<double>(cl.deliveries().size());
    duplicates += static_cast<double>(cl.duplicate_count());
    filtered += static_cast<double>(cl.filtered_count());
    if (busiest == nullptr || cl.deliveries().size() >=
                                  s->client(busiest->name).deliveries().size()) {
      busiest = &c;
    }
  }
  const rebeca::client::Client& consumer = s->client(busiest->name);
  in.consumer = consumer.id();
  in.consumer_filters = busiest->filters;
  in.consumer_log = consumer.deliveries();

  const std::size_t sample = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(
          peak.match_index_entries /
          static_cast<double>(s->overlay().broker_count()))),
      1, all_filters.size());
  for (std::size_t i = 0; i < sample; ++i) {
    const std::size_t j = i * all_filters.size() / sample;
    if (roaming[j]) in.roamer_subs.push_back(in.filters.size());
    in.filters.push_back(all_filters[j]);
    in.keys.push_back(all_keys[j]);
  }
  if (in.roamer_subs.empty()) {
    for (std::size_t i = 0; i < std::min<std::size_t>(sample, 4); ++i) {
      in.roamer_subs.push_back(i);
    }
  }

  // metrics: the report plane's checkers over the captured logs.
  const int mp = t.begin("probe.metrics");
  std::vector<std::vector<rebeca::NotificationId>> expected;
  for (const perfbench::ConsumerDecl& c : w.consumers) {
    std::vector<rebeca::NotificationId> ids;
    for (const rebeca::filter::Notification& n : pubs) {
      if (std::any_of(c.filters.begin(), c.filters.end(),
                      [&](const rebeca::filter::Filter& f) { return f.matches(n); })) {
        ids.push_back(n.id());
      }
    }
    expected.push_back(std::move(ids));
  }
  const double e0 = now_s();
  for (std::size_t i = 0; i < w.consumers.size(); ++i) {
    (void)rebeca::metrics::check_exactly_once(
        s->client(w.consumers[i].name).deliveries(), expected[i]);
  }
  const double e1 = now_s();
  for (const perfbench::ConsumerDecl& c : w.consumers) {
    (void)rebeca::metrics::check_sender_fifo(s->client(c.name).deliveries());
  }
  const double e2 = now_s();
  t.end(mp);

  const perfbench::CheckResult check = perfbench::check_deliveries(w, *s, r);

  const int td = t.begin("teardown");
  s.reset();
  const double teardown_s = t.end(td);
  t.end(root);
  const double traced_wall = t.duration(setup) + run_s + report_s + teardown_s;

  MetricSet m;
  for (std::size_t i = 0; i < 3; ++i) {
    m.add(std::string("scenario.") + kPhaseNames[i] + "_s", phase_s[i], "s");
  }
  m.add("scenario.run_s", run_s, "s");
  m.add("scenario.report_s", report_s, "s");
  m.add("scenario.teardown_s", teardown_s, "s");
  m.add("scenario.rss_after_run_mb", rss_after_run, "MiB");
  m.add("scenario.rss_after_report_mb", rss_after_report, "MiB");
  m.add("trace.overhead_ratio", traced_wall / untraced_wall, "ratio");
  m.add("trace.collect_s", collect_s, "s");
  m.add("trace.report_identical", identical ? 1 : 0, "bool");

  static const std::pair<const char*, MessageClass> kClasses[] = {
      {"notification", MessageClass::notification},
      {"delivery", MessageClass::delivery},
      {"sub_admin", MessageClass::subscription_admin},
      {"relocation", MessageClass::relocation_control},
      {"reexpose", MessageClass::reexpose},
      {"replay", MessageClass::replay},
      {"client_ctl", MessageClass::client_control},
      {"dropped", MessageClass::dropped}};
  for (const auto& [name, cls] : kClasses) {
    m.add(std::string("net.msgs.") + name,
          static_cast<double>(counters.count(cls)), "count");
  }
  m.add("sim.queue_depth", queue_depth, "count");
  m.add("routing.probe_filters", static_cast<double>(sample), "count");
  m.add("broker.routing_entries", peak.routing_entries, "count");
  m.add("broker.routing_tags", peak.routing_tags, "count");
  m.add("broker.match_index_entries", peak.match_index_entries, "count");
  m.add("broker.cover_index_entries", peak.cover_index_entries, "count");
  m.add("broker.virtuals", peak.virtuals, "count");
  m.add("broker.pending_moveouts", peak.pending_moveouts, "count");
  m.add("broker.pins_active", peak.pins_active, "count");
  m.add("broker.replayed", peak.replayed, "count");
  m.add("broker.replay_truncated", peak.replay_truncated, "count");
  m.add("broker.reexposed_filters", peak.reexposed_filters, "count");
  m.add("client.delivered", delivered, "count");
  m.add("client.duplicates", duplicates, "count");
  m.add("client.filtered", filtered, "count");
  m.add("check.failed_ratio",
        check.expected ? static_cast<double>(check.failed()) /
                             static_cast<double>(check.expected)
                       : 0,
        "ratio");
  m.add("check.report_only_duplicate_clients",
        static_cast<double>(check.report_only_duplicate_clients), "count");
  m.add("metrics.exactly_once_ns", delivered ? (e1 - e0) * 1e9 / delivered : 0,
        "ns");
  m.add("metrics.fifo_ns", delivered ? (e2 - e1) * 1e9 / delivered : 0, "ns");

  // Probes: about a thirtieth of the run budget each.
  const int pr = t.begin("probe.layers");
  perfbench::run_probes(in, std::max(0.05, seconds / 30), m);
  t.end(pr);

  // Per-layer share of run_s: operation count x probed unit cost. The
  // counts are the run's own; the unit costs come from the probes.
  const double msgs = static_cast<double>(all_messages(counters));
  const double published = static_cast<double>(pubs.size());
  const double routed =
      static_cast<double>(counters.count(MessageClass::notification)) + published;
  // Every admin message received refreshes the receiving broker's links;
  // the tree averages 24/13 links per broker.
  const double refreshes =
      (static_cast<double>(counters.count(MessageClass::subscription_admin)) +
       static_cast<double>(counters.count(MessageClass::relocation_control)) +
       static_cast<double>(counters.count(MessageClass::client_control))) *
      24.0 / 13.0;
  const double share_sim = msgs * m.get("sim.event_ns") * 1e-9 / run_s;
  const double share_net = msgs * m.get("net.link_send_ns") * 1e-9 / run_s;
  const double share_match = routed * m.get("routing.match_collect_ns") * 1e-9 / run_s;
  const double share_admin = refreshes * m.get("routing.forward_set_ns") * 1e-9 / run_s;
  const double share_client =
      static_cast<double>(counters.count(MessageClass::delivery)) *
      m.get("client.deliver_ns") * 1e-9 / run_s;
  m.add("sim.run_share", share_sim, "ratio");
  m.add("net.run_share", share_net, "ratio");
  m.add("routing.match_run_share", share_match, "ratio");
  m.add("routing.admin_run_share", share_admin, "ratio");
  m.add("client.run_share", share_client, "ratio");
  m.add("scenario.run_accounted_share",
        share_sim + share_net + share_match + share_admin + share_client, "ratio");
  // The report plane: one Filter::matches per (publication, tracked
  // filter) at most, plus the exactly-once checker per delivery.
  const double report_matches =
      published * static_cast<double>(all_filters.size());
  m.add("filter.report_share",
        report_matches * m.get("filter.matches_ns") * 1e-9 / report_s, "ratio");
  m.add("metrics.report_share", (e1 - e0) / report_s, "ratio");

  if (!out_path.empty() && !t.write(out_path)) {
    std::cerr << "cannot write trace to " << out_path << "\n";
    return 1;
  }
  std::cout << "{\"kind\": \"trace\", \"report_identical\": "
            << (identical ? "true" : "false")
            << ", \"failed\": " << check.failed()
            << ", \"expected\": " << check.expected
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::cerr << "usage: rebeca_perfbench once|measure|trace --workload W "
                 "--seed N [--seconds S] [--out FILE]\n";
    return 2;
  }
  const std::unique_ptr<Workload> w = perfbench::make_workload(a.workload, a.seed);
  if (!w) {
    std::cerr << "unknown workload " << a.workload << "\n";
    return 2;
  }
  if (a.mode == "once") return run_once(*w);
  if (a.mode == "measure") return run_measure(*w, a.seconds);
  if (a.mode == "trace") return run_trace(*w, a.seconds, a.out);
  std::cerr << "unknown mode " << a.mode << "\n";
  return 2;
}
