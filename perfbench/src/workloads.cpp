#include "perfbench/src/workloads.hpp"

#include <algorithm>
#include <cmath>

#include "src/filter/attr.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

using rebeca::filter::Constraint;
using rebeca::filter::Filter;
using rebeca::filter::Notification;
using rebeca::scenario::RoamSpec;
using rebeca::scenario::Scenario;
using rebeca::scenario::TopologySpec;
namespace sim = rebeca::sim;
namespace util = rebeca::util;

namespace {

// balanced_tree(2, 3): broker 0 is the root, 1..3 inner, 4..12 leaves.
constexpr std::size_t kBrokers = 13;
constexpr std::size_t kFirstLeaf = 4;

std::string symbol(std::size_t k) {
  std::string s = "S";
  s += std::to_string(k);
  return s;
}

/// One producer's open-loop Poisson stream: inter-arrival times and
/// content both come from the producer's own RNG, so the schedule is a
/// pure function of the workload seed.
struct ProducerRun {
  rebeca::client::Client* client = nullptr;
  util::Rng rng{1};
  double mean_ns = 0;
  sim::TimePoint stop = 0;
  const ContentSpec* content = nullptr;
};

struct Attrs {
  rebeca::filter::AttrId sym, px, zone;
};

const Attrs& attrs() {
  static const Attrs a{rebeca::filter::AttrTable::global().intern("sym"),
                       rebeca::filter::AttrTable::global().intern("px"),
                       rebeca::filter::AttrTable::global().intern("zone")};
  return a;
}

Notification draw(ProducerRun& p) {
  const ContentSpec& c = *p.content;
  Notification n;
  if (c.symbols > 0) n.set(attrs().sym, symbol(p.rng.index(c.symbols)));
  if (c.zones > 0) {
    n.set(attrs().zone, static_cast<std::int64_t>(p.rng.index(c.zones)));
  }
  n.set(attrs().px, p.rng.uniform_i64(0, c.px_max - 1));
  return n;
}

sim::Duration next_gap(ProducerRun& p) {
  return std::max<sim::Duration>(1, std::llround(p.rng.exponential(p.mean_ns)));
}

void tick(std::shared_ptr<ProducerRun> p, sim::Executor* exec) {
  p->client->publish(draw(*p));
  const sim::TimePoint next = exec->now() + next_gap(*p);
  if (next >= p->stop) return;
  exec->post_at(next, [p = std::move(p), exec]() mutable {
    tick(std::move(p), exec);
  });
}

/// Starts every producer's stream; runs on entry to the traffic phase.
void start_traffic(const Workload& w, Scenario& s) {
  sim::Executor* exec = &s.exec();
  const sim::TimePoint stop = s.now() + w.traffic;
  for (const ProducerDecl& pd : w.producers) {
    auto p = std::make_shared<ProducerRun>();
    p->client = &s.client(pd.name);
    p->rng = util::Rng(pd.seed);
    p->mean_ns = static_cast<double>(pd.mean_interval);
    p->stop = stop;
    p->content = &w.content;
    const sim::TimePoint first = s.now() + next_gap(*p);
    if (first >= stop) continue;
    exec->post_at(first, [p = std::move(p), exec]() mutable {
      tick(std::move(p), exec);
    });
  }
}

void common_shape(Workload& w) {
  w.builder.seed(w.seed);
  w.builder.topology(TopologySpec::balanced_tree(2, 3));
  w.builder.routing(rebeca::routing::Strategy::covering);
  w.builder.broker_link_delay(
      sim::DelayModel::uniform(sim::millis(4), sim::millis(6)));
  w.builder.client_link_delay(
      sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));
}

void declare(Workload& w, sim::Duration dwell_lo, sim::Duration dwell_hi,
             sim::Duration gap) {
  // Placement is fixed, not drawn: the hop-count mix, and with it the
  // latency distribution, must not swing from seed to seed. Consumers go
  // round-robin over the leaves, producers evenly over all brokers.
  for (std::size_t i = 0; i < w.consumers.size(); ++i) {
    const ConsumerDecl& c = w.consumers[i];
    auto& spec = w.builder.client(c.name);
    spec.at_broker(kFirstLeaf + i % (kBrokers - kFirstLeaf));
    for (const Filter& f : c.filters) spec.subscribes(f);
    if (!c.roams) continue;
    // Itineraries are fixed too: the admin-plane cost of a relocation
    // depends on how far the client jumps, and twenty roamers are too few
    // for random paths to average out. Dwell steps through five values.
    const sim::Duration dwell =
        dwell_lo + (dwell_hi - dwell_lo) * static_cast<sim::Duration>(i % 5) / 4;
    // Roaming ends attached before the traffic phase ends, so every
    // expected publication is deliverable by the end of the drain.
    const auto hops = static_cast<std::uint64_t>(
        (w.traffic - sim::millis(100)) / (dwell + gap));
    spec.roams(RoamSpec()
                   .random_waypoint()
                   .dwelling(dwell)
                   .dark_for(gap)
                   .hops(std::max<std::uint64_t>(1, hops))
                   .with_seed(1000 + i)
                   .from_phase("traffic"));
  }
  for (std::size_t p = 0; p < w.producers.size(); ++p) {
    w.builder.client(w.producers[p].name)
        .at_broker(p * kBrokers / w.producers.size());
  }
  const Workload* wp = &w;
  w.builder.phase("settle", w.settle);
  w.builder.phase("traffic", w.traffic,
                  [wp](Scenario& s) { start_traffic(*wp, s); });
  w.builder.phase("drain", w.drain);
  if (w.shards > 0) w.builder.shards(w.shards);
}

/// ~320 consumers with selective, overlapping sym/px filters (20 of them
/// random-waypoint roamers) and 8 Poisson producers at 1 ms each.
void make_fanout(Workload& w, util::Rng& rng) {
  constexpr std::size_t kStatic = 300;
  constexpr std::size_t kRoamers = 20;
  constexpr std::size_t kProducers = 8;
  w.content = ContentSpec{8, 1000, 0};
  w.settle = sim::millis(500);
  w.traffic = sim::millis(1500);
  w.drain = sim::millis(500);
  for (std::size_t i = 0; i < kStatic + kRoamers; ++i) {
    ConsumerDecl c;
    c.roams = i >= kStatic;
    c.name = (c.roams ? "r" : "c") + std::to_string(i);
    // Symbols round-robin and exactly one consumer in ten watching a
    // whole symbol (the rest a price band): the delivery volume then
    // hardly moves from seed to seed, only which bands overlap does.
    Filter f;
    f.where("sym", Constraint::eq(symbol(i % w.content.symbols)));
    if (i % 10 != 9) {
      const std::int64_t width = rng.uniform_i64(100, 400);
      const std::int64_t lo = rng.uniform_i64(0, w.content.px_max - width);
      f.where("px", Constraint::range(lo, lo + width));
    }
    c.filters.push_back(std::move(f));
    w.consumers.push_back(std::move(c));
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    w.producers.push_back(
        ProducerDecl{"p" + std::to_string(p), sim::millis(1), rng.next()});
  }
  declare(w, sim::millis(800), sim::millis(1200), sim::millis(50));
}

/// ~60 clients with several overlapping zone/px range subscriptions
/// each, a third of them roaming with short dwell times, and a low
/// publish rate: the broker admin plane carries the load.
void make_roam_churn(Workload& w, util::Rng& rng) {
  constexpr std::size_t kClients = 60;
  constexpr std::size_t kRoamers = 20;
  constexpr std::size_t kSubs = 3;
  constexpr std::size_t kProducers = 8;
  w.content = ContentSpec{0, 1000, 3};
  w.settle = sim::millis(500);
  w.traffic = sim::millis(500);
  w.drain = sim::millis(500);
  for (std::size_t i = 0; i < kClients; ++i) {
    ConsumerDecl c;
    c.roams = i >= kClients - kRoamers;
    c.name = (c.roams ? "r" : "c") + std::to_string(i);
    const auto zone = static_cast<std::int64_t>(i % w.content.zones);
    // Staggered bands wider than their stagger: each sub overlaps the
    // next, none covers another.
    const std::int64_t width = 150 + 50 * static_cast<std::int64_t>(i / 3 % 3);
    const std::int64_t step = width / 2;
    // Bases sit on a fixed spread: the admin plane's cost depends
    // sharply on the covering structure, which must not move with the
    // seed. The seed draws the publications and the link jitter.
    const std::int64_t span =
        w.content.px_max - width - step * static_cast<std::int64_t>(kSubs);
    const std::int64_t base = static_cast<std::int64_t>(i * 37) % span;
    for (std::size_t k = 0; k < kSubs; ++k) {
      const std::int64_t lo = base + step * static_cast<std::int64_t>(k);
      c.filters.push_back(Filter()
                              .where("zone", Constraint::eq(zone))
                              .where("px", Constraint::range(lo, lo + width)));
    }
    w.consumers.push_back(std::move(c));
  }
  for (std::size_t p = 0; p < kProducers; ++p) {
    w.producers.push_back(
        ProducerDecl{"p" + std::to_string(p), sim::millis(3), rng.next()});
  }
  declare(w, sim::millis(150), sim::millis(250), sim::millis(30));
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->seed = seed;
  util::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  common_shape(*w);
  if (name == "fanout") {
    make_fanout(*w, rng);
  } else if (name == "fanout_sharded") {
    // The identical declaration, run on the sharded engine.
    w->shards = 4;
    make_fanout(*w, rng);
  } else if (name == "roam_churn") {
    make_roam_churn(*w, rng);
  } else {
    return nullptr;
  }
  return w;
}

}  // namespace perfbench
