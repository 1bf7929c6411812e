// geomcast benchmark driver: runs ONE named workload per process and prints
// its metrics as JSON. Build and invoke it through perfbench/run.py:
//
//   python3 perfbench/run.py --workload fanout-1k --seed 1 --seconds 30 --trace 0
//
// A workload is a few independent scenario instances, each with its own
// seed derived from --seed. After one untimed warm-up repetition, a run
// repeats the whole pipeline for the instances in turn — overlay build,
// PubSubSystem construction, issuing the schedule, run() until the queue
// drains — for --seconds. Host times are the median over all repetitions of
// all instances, each rescaled by a fixed reference kernel timed around it
// (see ReferenceKernel); simulated metrics pool the instances' counts.
// Inputs (peer coordinates plus the schedule) are generated outside every
// timed region; the timers wrap the calls into the public layer functions
// from outside.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced repetitions and prints the per-layer metrics: counts read from
// GroupStats / NetworkStats / HopStats, host time per layer call taken from
// spans recorded around those calls, and the obs::TraceSink overhead. The
// spans are kept in memory and written as Chrome trace-event JSON to
// --trace-out at the end.
//
// Every repetition checks its output: an order-independent digest of the
// delivered (peer, group, seq, time) tuples (equal across repetitions, and
// between traced and untraced runs), no application-level duplicate
// delivery, per-(peer, group) in-order release at QoS 2 apart from the
// out-of-band releases the system itself counts, and a drained queue. A
// failed check prints the result with "correct": false and exits 1.
#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory_resource>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "groups/group_tree.hpp"
#include "groups/pubsub.hpp"
#include "obs/trace.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/grid_knn.hpp"
#include "overlay/routing.hpp"
#include "workload.hpp"

#ifndef GEOMCAST_BENCH_BUILD_TYPE
#define GEOMCAST_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef GEOMCAST_BENCH_COMPILER
#define GEOMCAST_BENCH_COMPILER "unknown"
#endif

namespace {

using namespace geomcast;
using perfbench::OpKind;
using Clock = std::chrono::steady_clock;

constexpr double kBudgetSeconds = 150.0;   // no repetition starts that would end later
constexpr std::uint64_t kSeedStride = 64;  // instance i of seed s runs seed s*64+i

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ spans ----

/// Spans around the layer calls of the traced repetitions: name, start,
/// end, and the index of the enclosing span (-1 at the top).
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the log was created
    double end = 0.0;
    int parent = -1;
  };

  int begin(std::string name, int parent) {
    spans_.push_back({std::move(name), now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write span file " + path);
    out << "{\"traceEvents\":[";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const char* parent =
          s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name.c_str() : "";
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent_id\":%d,\"parent\":\"%s\"}}",
                    i ? "," : "", s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6, i,
                    s.parent, parent);
      out << buf;
    }
    out << "]}\n";
  }

 private:
  double now() const { return seconds_since(origin_); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Runs `fn`, returns its host seconds, and records a span when tracing.
template <class F>
double timed(SpanLog* log, const char* name, int parent, F&& fn) {
  const int id = log != nullptr ? log->begin(name, parent) : -1;
  const auto t0 = Clock::now();
  fn();
  const double secs = seconds_since(t0);
  if (log != nullptr) log->end(id);
  return secs;
}

// ---------------------------------------------------------- output checks ----

struct Delivery {
  overlay::PeerId peer;
  groups::GroupId group;
  std::uint64_t seq;
  double time;
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --------------------------------------------------------- host reference ----

/// Shared hosts change speed by tens of percent over seconds to minutes, and
/// the simulator — heap-ordered events, hash lookups, scattered writes over
/// megabytes — slows with them far more than a tight arithmetic loop does.
/// This kernel is a fixed discrete-event loop of the same shape built only
/// from the standard library, so it never changes with the code under test.
/// Each timed phase is bracketed by kernel runs (the run after one phase is
/// the run before the next), and host times are reported rescaled to a host
/// on which one kernel run takes kReferenceSeconds, to the power of how
/// closely the workload follows the kernel (Workload::kernel_elasticity):
/// host drift cancels, a change in the program shows in full. Every run
/// first walks the kernel's data, so its speed does not depend on what the
/// program left in the caches.
class ReferenceKernel {
 public:
  static constexpr double kReferenceSeconds = 0.05;

  ReferenceKernel()
      : arena_(region_.base, kArenaBytes, std::pmr::null_memory_resource()),
        table_(&arena_),
        state_(kStates, &arena_),
        queue_(&arena_) {
    table_.reserve(kKeys);
    for (std::uint32_t i = 0; i < kKeys; ++i) table_.emplace(mix64(i), i);
    queue_.reserve(kPending + 1);
  }

  /// Host seconds of the most recent run.
  [[nodiscard]] double last() const { return last_; }

  /// One run of the loop; returns its host seconds.
  double run() {
    std::uint64_t warm = 0;
    for (const State& st : state_) warm += st.b;
    for (const auto& [key, value] : table_) warm += key ^ value;
    sink_ = warm;
    const auto t0 = Clock::now();
    const auto later = std::greater<>{};
    queue_.clear();
    std::uint64_t x = 12345;
    for (std::uint32_t i = 0; i < kPending; ++i) {
      x = mix64(x);
      queue_.emplace_back(static_cast<double>(x % 1000000) * 1e-6, i);
      std::push_heap(queue_.begin(), queue_.end(), later);
    }
    std::uint64_t acc = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      std::pop_heap(queue_.begin(), queue_.end(), later);
      const auto [time, id] = queue_.back();
      queue_.pop_back();
      x = mix64(x + id);
      const auto it = table_.find(mix64(x & (kKeys - 1)));
      State& st = state_[((it != table_.end() ? it->second : 0) ^ x) & (kStates - 1)];
      st.a += x;
      st.b ^= st.a;
      st.time = time;
      st.count += id;
      acc += st.b;
      queue_.emplace_back(time + static_cast<double>((x >> 20) % 1000) * 1e-6, id ^ (step & 1));
      std::push_heap(queue_.begin(), queue_.end(), later);
    }
    sink_ = acc;
    last_ = seconds_since(t0);
    return last_;
  }

 private:
  static constexpr std::uint32_t kStates = 1u << 18, kKeys = 1u << 17, kPending = 20000,
                                 kSteps = 150000;
  static constexpr std::size_t kArenaBytes = std::size_t{24} << 20, kHugePage = 2u << 20;
  struct State {
    std::uint64_t a = 0, b = 0;
    double time = 0.0;
    std::uint64_t count = 0;
  };
  /// The kernel's own memory: mapped apart from the heap and, where the
  /// host allows, backed by huge pages, so TLB misses do not depend on
  /// what the program allocated before.
  struct Region {
    Region() {
      map = mmap(nullptr, kArenaBytes + kHugePage, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (map == MAP_FAILED) throw std::runtime_error("cannot map the reference kernel's arena");
      const auto at = reinterpret_cast<std::uintptr_t>(map);
      base = reinterpret_cast<void*>((at + kHugePage - 1) & ~(kHugePage - 1));
      madvise(base, kArenaBytes, MADV_HUGEPAGE);
    }
    ~Region() { munmap(map, kArenaBytes + kHugePage); }
    Region(const Region&) = delete;
    Region& operator=(const Region&) = delete;
    void* map = nullptr;
    void* base = nullptr;
  };
  Region region_;
  std::pmr::monotonic_buffer_resource arena_;
  std::pmr::unordered_map<std::uint64_t, std::uint32_t> table_;
  std::pmr::vector<State> state_;
  std::pmr::vector<std::pair<double, std::uint32_t>> queue_;
  volatile std::uint64_t sink_ = 0;
  double last_ = 0.0;
};

// ------------------------------------------------------------ repetition ----

/// Counters of one repetition; they sum across a workload's instances.
struct Counts {
  groups::GroupStats stats;
  multicast::HopStats hop;
  std::uint64_t events = 0, sent = 0, dropped = 0, control_envelopes = 0, graft_hops = 0,
                graft_aborts = 0, retained_peak = 0, ops_scheduled = 0, ops_failed = 0;
  // Order-independent digest of the delivered (peer, group, seq, time)
  // tuples: two 64-bit sums of per-tuple hashes.
  std::uint64_t digest_lo = 0, digest_hi = 0;
  // Traced repetitions only.
  std::uint64_t trace_events = 0, trace_dropped = 0, routes = 0, route_failures = 0,
                route_hops = 0;

  Counts& operator+=(const Counts& o) {
    stats += o.stats;
    hop.data_messages += o.hop.data_messages;
    hop.ack_messages += o.hop.ack_messages;
    hop.retransmissions += o.hop.retransmissions;
    hop.abandoned_hops += o.hop.abandoned_hops;
    events += o.events;
    sent += o.sent;
    dropped += o.dropped;
    control_envelopes += o.control_envelopes;
    graft_hops += o.graft_hops;
    graft_aborts += o.graft_aborts;
    retained_peak = std::max(retained_peak, o.retained_peak);
    ops_scheduled += o.ops_scheduled;
    ops_failed += o.ops_failed;
    digest_lo += o.digest_lo;
    digest_hi += o.digest_hi;
    trace_events += o.trace_events;
    trace_dropped += o.trace_dropped;
    routes += o.routes;
    route_failures += o.route_failures;
    route_hops += o.route_hops;
    return *this;
  }

  [[nodiscard]] std::string digest() const {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(digest_hi),
                  static_cast<unsigned long long>(digest_lo));
    return buf;
  }
};

struct Rep {
  double overlay_s = 0.0, construct_s = 0.0, schedule_s = 0.0, run_s = 0.0;
  double grid_knn_s = 0.0, build_ms = 0.0;  // traced repetitions only
  // Reference kernel seconds before set-up, between set-up and run(), after
  // run(), and (traced) after the standalone layer calls; 0 in the warm-up.
  double ref_start = 0.0, ref_setup = 0.0, ref_run = 0.0, ref_layers = 0.0;
  double elasticity = 1.0;     // the workload's kernel_elasticity
  bool built_overlay = false;  // false: reused the instance's overlay
  Counts counts;
  std::vector<std::string> violations;

  [[nodiscard]] double setup_s() const { return overlay_s + construct_s + schedule_s; }

  /// Host seconds of a phase, rescaled by the kernel runs that bracket it.
  [[nodiscard]] double scaled(double secs, double ref_before, double ref_after) const {
    const double kernel = 0.5 * (ref_before + ref_after);
    return secs * std::pow(ReferenceKernel::kReferenceSeconds / kernel, elasticity);
  }
  [[nodiscard]] double in_setup(double secs) const { return scaled(secs, ref_start, ref_setup); }
  [[nodiscard]] double in_run(double secs) const { return scaled(secs, ref_setup, ref_run); }
  [[nodiscard]] double in_layers(double secs) const { return scaled(secs, ref_run, ref_layers); }
};

/// Digest, duplicate check and QoS 2 order check of one repetition's
/// deliveries, in the order the probe saw them.
void check_deliveries(const std::vector<Delivery>& log, bool in_order, Rep& rep) {
  Counts& c = rep.counts;
  std::unordered_map<std::uint64_t, std::uint64_t> next_seq;  // per (peer, group)
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys;
  keys.reserve(log.size());
  std::uint64_t out_of_order = 0;
  for (const Delivery& d : log) {
    std::uint64_t time_bits = 0;
    std::memcpy(&time_bits, &d.time, sizeof time_bits);
    const std::uint64_t h = mix64(d.peer ^ mix64(d.group ^ mix64(d.seq ^ mix64(time_bits))));
    c.digest_lo += mix64(h ^ 0x6c6f77ULL);
    c.digest_hi += mix64(h ^ 0x68696768ULL);
    const std::uint64_t key = (static_cast<std::uint64_t>(d.peer) << 32) ^ d.group;
    auto [it, fresh] = next_seq.try_emplace(key, d.seq + 1);
    if (!fresh) {
      if (d.seq + 1 <= it->second) {
        ++out_of_order;
      } else {
        it->second = d.seq + 1;
      }
    }
    keys.emplace_back(key, d.seq);
  }
  std::sort(keys.begin(), keys.end());
  std::uint64_t duplicates = 0;
  for (std::size_t i = 1; i < keys.size(); ++i)
    if (keys[i] == keys[i - 1]) ++duplicates;

  if (duplicates > 0)
    rep.violations.push_back(std::to_string(duplicates) +
                             " duplicate application-level deliveries");
  if (log.size() != c.stats.deliveries)
    rep.violations.push_back("probe saw " + std::to_string(log.size()) +
                             " deliveries, stats count " + std::to_string(c.stats.deliveries));
  // QoS 2 releases in order per (peer, group) except the out-of-band
  // pre-window releases the system counts itself (see groups/pubsub.hpp).
  if (in_order && out_of_order != c.stats.pre_window_deliveries)
    rep.violations.push_back("QoS 2: " + std::to_string(out_of_order) +
                             " out-of-order releases, " +
                             std::to_string(c.stats.pre_window_deliveries) +
                             " counted as pre-window");
}

/// One independent scenario of a workload: its own seed, peer coordinates
/// and schedule.
struct Instance {
  const perfbench::Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::vector<geometry::Point> points;
  std::optional<perfbench::Schedule> schedule;  // drawn on the first overlay
  // Built by the first timed untraced repetition and reused by the later
  // ones (it is a pure function of the points): a 100k-peer overlay takes
  // ten times as long as run(), and the runs are what need repeating.
  std::optional<overlay::OverlayGraph> graph;
};

overlay::OverlayGraph build_overlay(const Instance& in) {
  if (in.workload->knn_k > 0)
    return overlay::build_equilibrium_local(in.points, overlay::EmptyRectSelector{},
                                            in.workload->knn_k);
  return overlay::build_equilibrium(in.points, overlay::EmptyRectSelector{});
}

/// Subscribe, unsubscribe and publish requests that never took effect at
/// the group root — stranded in routing, lost, or sent by a departed peer —
/// per group and kind, against the scheduled counts.
std::uint64_t failed_ops(const perfbench::Schedule& s, const groups::PubSubSystem& system) {
  std::uint64_t failed = 0;
  const auto shortfall = [](std::uint64_t scheduled, std::uint64_t done) {
    return scheduled > done ? scheduled - done : 0;
  };
  for (std::size_t g = 0; g < s.roots.size(); ++g) {
    const groups::GroupStats& st = system.stats(g);
    failed += shortfall(s.subscribes[g], st.subscribes) +
              shortfall(s.unsubscribes[g], st.unsubscribes) +
              shortfall(s.publishes[g], st.publishes);
  }
  return failed;
}

/// The layer calls a traced repetition adds beyond the pipeline itself.
void standalone_layer_calls(const Instance& in, const overlay::OverlayGraph& graph,
                            groups::PubSubSystem& system, SpanLog& log, int parent,
                            Rep& rep) {
  rep.grid_knn_s = timed(&log, "overlay.grid_knn", parent, [&] {
    const auto knn = overlay::grid_knn(in.points, 16);
    if (knn.size() != in.points.size()) throw std::logic_error("grid_knn size");
  });

  const perfbench::Schedule& s = *in.schedule;
  Counts& c = rep.counts;
  timed(&log, "overlay.route_greedy", parent, [&] {
    for (const perfbench::Op& op : s.ops) {
      if (op.kind != OpKind::kSubscribe) continue;
      const auto route = overlay::route_greedy(graph, op.peer, s.roots[op.group]);
      ++c.routes;
      if (route.delivered) {
        c.route_hops += route.hops();
      } else {
        ++c.route_failures;
      }
    }
  });

  // One standalone build per group over its final membership.
  groups::GroupManager& manager = system.manager();
  std::vector<bool> alive(graph.size());
  for (overlay::PeerId p = 0; p < graph.size(); ++p) alive[p] = manager.alive(p);
  std::vector<std::pair<overlay::PeerId, std::vector<bool>>> groups;
  for (std::size_t g = 0; g < s.roots.size(); ++g) {
    std::vector<bool> subscribers(graph.size(), false);
    for (const overlay::PeerId p : manager.subscribers_of(g)) subscribers[p] = true;
    groups.emplace_back(manager.root_of(g), std::move(subscribers));
  }
  std::size_t reached = 0;
  const double build_s = timed(&log, "group_tree.build_group_tree", parent, [&] {
    for (const auto& [root, subscribers] : groups)
      reached += groups::build_group_tree(graph, root, subscribers,
                                          in.workload->config.groups.tree, alive)
                     .reached_subscribers;
  });
  if (reached == 0 && !groups.empty()) throw std::logic_error("standalone builds reached nobody");
  rep.build_ms = 1e3 * build_s / static_cast<double>(std::max<std::size_t>(groups.size(), 1));
}

/// One repetition of an instance's pipeline. `kernel` is null for the
/// warm-up, which is not timed against the reference.
Rep run_rep(Instance& in, ReferenceKernel* kernel, SpanLog* log) {
  Rep rep;
  Counts& c = rep.counts;
  const auto sample = [kernel] { return kernel != nullptr ? kernel->run() : 0.0; };
  rep.ref_start = kernel != nullptr ? kernel->last() : 0.0;
  rep.elasticity = in.workload->kernel_elasticity;
  const int top = log != nullptr ? log->begin("workload.rep", -1) : -1;
  overlay::OverlayGraph fresh;
  const overlay::OverlayGraph* built = &fresh;
  if (log == nullptr && in.graph) {
    built = &*in.graph;
  } else {
    rep.built_overlay = true;
    rep.overlay_s = timed(log, in.workload->knn_k > 0 ? "overlay.build_equilibrium_local"
                                                      : "overlay.build_equilibrium",
                          top, [&] { fresh = build_overlay(in); });
    if (log == nullptr && kernel != nullptr) built = &in.graph.emplace(std::move(fresh));
  }
  const overlay::OverlayGraph& graph = *built;
  if (!in.schedule) in.schedule = perfbench::make_schedule(*in.workload, graph, in.seed);
  const perfbench::Schedule& s = *in.schedule;

  groups::PubSubConfig config = in.workload->config;
  config.seed = in.seed;
  obs::TraceSink sink;
  std::optional<groups::PubSubSystem> system;
  rep.construct_s =
      timed(log, "pubsub.PubSubSystem", top, [&] { system.emplace(graph, config); });
  if (log != nullptr) system->set_trace_sink(&sink);
  std::vector<Delivery> deliveries;
  std::uint64_t publishes = 0;
  for (const std::uint64_t p : s.publishes) publishes += p;
  deliveries.reserve(publishes * in.workload->subscribers);
  system->set_delivery_probe(
      [&deliveries](overlay::PeerId peer, groups::GroupId group, std::uint64_t seq,
                    double time) { deliveries.push_back({peer, group, seq, time}); });

  rep.schedule_s = timed(log, "pubsub.schedule", top, [&] {
    for (const perfbench::Op& op : s.ops) {
      switch (op.kind) {
        case OpKind::kSubscribe: system->subscribe_at(op.time, op.peer, op.group); break;
        case OpKind::kUnsubscribe: system->unsubscribe_at(op.time, op.peer, op.group); break;
        case OpKind::kPublish: system->publish_at(op.time, op.peer, op.group); break;
        case OpKind::kDepart: system->depart_at(op.time, op.peer); break;
      }
    }
  });
  rep.ref_setup = sample();
  rep.run_s = timed(log, "pubsub.run", top, [&] { c.events = system->run(); });
  rep.ref_run = sample();
  system->set_delivery_probe(nullptr);

  c.stats = system->total_stats();
  c.hop = system->hop_stats();
  const sim::NetworkStats& net = system->simulator().stats();
  c.sent = net.sent;
  c.dropped = net.dropped;
  c.control_envelopes = net.control_envelopes;
  c.graft_hops = net.graft_hops;
  c.graft_aborts = net.graft_aborts;
  c.retained_peak = system->manager().retained_peak();
  c.ops_scheduled = s.control_ops();
  c.ops_failed = failed_ops(s, *system);
  if (!system->simulator().idle()) rep.violations.push_back("event queue not drained");
  check_deliveries(deliveries, config.reliability.qos == multicast::QoS::kEndToEnd, rep);
  if (log != nullptr) {
    c.trace_events = sink.recorded();
    c.trace_dropped = sink.dropped();
    standalone_layer_calls(in, graph, *system, *log, top, rep);
    log->end(top);
    rep.ref_layers = sample();
  }
  system->release_pools();
  return rep;
}

// ----------------------------------------------------------------- output ----

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ",";
    out += json_string(metrics[i].name) + ":{\"value\":" + json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

double n(std::uint64_t v) { return static_cast<double>(v); }

/// Simulated outcome, pooled over the instances — identical on every
/// repetition of a seed, traced or not.
std::vector<Metric> sim_end_to_end(const Counts& c) {
  const auto& t = c.stats;
  return {
      {"delivery_ratio", "ratio", t.delivery_ratio()},
      {"ops_failed_share", "ratio", ratio(n(c.ops_failed), n(c.ops_scheduled))},
      {"latency_p50_ms", "ms", 1e3 * t.delivery_latency.p50()},
      {"latency_p99_ms", "ms", 1e3 * t.delivery_latency.p99()},
      {"envelopes_per_delivery", "envelopes", ratio(n(c.sent), n(t.deliveries))},
      {"tree_msgs_per_join", "msgs",
       ratio(n(t.build_messages + t.graft_messages + t.repair_messages), n(t.subscribes))},
  };
}

std::vector<Metric> layer_counts(const Counts& c) {
  const auto& t = c.stats;
  return {
      {"group_tree.builds", "count", n(t.tree_builds)},
      {"group_tree.grafts", "count", n(t.grafts)},
      {"group_tree.graft_msgs", "count", n(t.graft_messages)},
      {"group_tree.prunes", "count", n(t.prunes)},
      {"group_tree.repairs", "count", n(t.repairs)},
      {"group_tree.graft_share", "ratio", ratio(n(t.grafts), n(t.subscribes))},
      {"group_tree.cache_hit_share", "ratio",
       ratio(n(t.cache_hits), n(t.cache_hits + t.tree_builds))},
      {"control.envelopes", "count", n(c.control_envelopes)},
      {"control.stranded", "count", n(t.stranded_messages)},
      {"control.graft_hops", "count", n(c.graft_hops)},
      {"control.graft_aborts", "count", n(c.graft_aborts)},
      {"sim.events", "count", n(c.events)},
      {"sim.envelopes_sent", "count", n(c.sent)},
      {"sim.dropped", "count", n(c.dropped)},
      {"hop.payload", "count", n(t.payload_messages)},
      {"hop.acks", "count", n(c.hop.ack_messages)},
      {"hop.retransmissions", "count", n(c.hop.retransmissions)},
      {"hop.abandoned", "count", n(c.hop.abandoned_hops)},
      {"hop.duplicates", "count", n(t.duplicate_deliveries)},
      {"hop.first_try_share", "ratio",
       ratio(n(c.hop.data_messages - c.hop.retransmissions), n(c.hop.data_messages))},
      {"window.gaps_detected", "count", n(t.gap_seqs_detected)},
      {"window.gaps_repaired", "count", n(t.gap_seqs_repaired)},
      {"window.gaps_abandoned", "count", n(t.gap_seqs_abandoned)},
      {"window.nacks", "count", n(t.nacks_sent)},
      {"window.repairs_served", "count", n(t.repairs_served)},
      {"window.repair_misses", "count", n(t.repair_misses)},
      {"window.repair_share", "ratio", ratio(n(t.gap_seqs_repaired), n(t.gap_seqs_detected))},
      {"window.retained_peak", "count", n(c.retained_peak)},
      {"batch.waves", "count", n(t.batch_flushes_window + t.batch_flushes_full)},
      {"batch.mean_occupancy", "publishes", t.mean_batch_occupancy()},
      {"replica.sync_envelopes", "count", n(t.replica_sync_envelopes)},
      {"replica.promotions", "count", n(t.warm_promotions)},
  };
}

/// Counts only traced repetitions produce.
std::vector<Metric> traced_counts(const Counts& c) {
  return {
      {"obs.trace_events", "count", n(c.trace_events)},
      {"obs.trace_dropped", "count", n(c.trace_dropped)},
      {"overlay.route_hops_mean", "hops", ratio(n(c.route_hops), n(c.routes - c.route_failures))},
      {"overlay.route_fail_share", "ratio", ratio(n(c.route_failures), n(c.routes))},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string source_id = "unknown";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (key != "--small") {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
      value = argv[++i];
    }
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--small") {
      a.small = true;
    } else if (key == "--source-id") {
      a.source_id = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run(const Args& args) {
#ifdef NDEBUG
  constexpr bool kAssertions = false;
#else
  constexpr bool kAssertions = true;
#endif
  const std::string build_type = GEOMCAST_BENCH_BUILD_TYPE;
  if (build_type != "Release" || kAssertions) {
    std::cerr << "perfbench: refusing to measure a " << build_type << " build"
              << (kAssertions ? " with assertions on" : "") << "\n";
    return 3;
  }

  // Freed memory stays in the process (up to glibc's largest mmap
  // threshold), so repetitions after the warm-up reuse pages already
  // faulted in. Otherwise sweep-100k's run() spends two thirds of its time
  // in the host's page-fault service, whose speed swings with the host.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const perfbench::Workload workload = perfbench::make_workload(args.workload, args.small);
  std::vector<Instance> instances(workload.instances);
  for (std::size_t i = 0; i < instances.size(); ++i) {
    instances[i].workload = &workload;
    instances[i].seed = args.seed * kSeedStride + i;
    instances[i].points = perfbench::make_points(workload, instances[i].seed);
  }

  // Warm-up: one untimed repetition of the first instance. The peak
  // resident memory is read after it, before the reference kernel allocates.
  const Rep warm_up = run_rep(instances[0], nullptr, nullptr);
  const double rss_mb = peak_rss_mb();

  // Instances take turns; a turn is one untraced repetition (then a traced
  // one with --trace 1). Every instance takes at least one turn; after that
  // a turn starts only if it is expected to end within --seconds (and
  // kBudgetSeconds), judged by that instance's previous turn.
  ReferenceKernel kernel;
  kernel.run();
  std::vector<std::vector<Rep>> plain(instances.size()), traced(instances.size());
  std::vector<double> turn_s(instances.size(), 0.0);
  SpanLog spans;
  const double budget = std::min(args.seconds, kBudgetSeconds);
  const auto start = Clock::now();
  std::size_t turns = 0;
  for (;; ++turns) {
    const std::size_t i = turns % instances.size();
    if (turns >= instances.size() && seconds_since(start) + turn_s[i] > budget) break;
    const auto t0 = Clock::now();
    plain[i].push_back(run_rep(instances[i], &kernel, nullptr));
    if (args.trace) traced[i].push_back(run_rep(instances[i], &kernel, &spans));
    turn_s[i] = seconds_since(t0);
  }
  if (args.trace && !args.trace_out.empty()) spans.write_chrome_trace(args.trace_out);

  // Every repetition of an instance must match its first: same delivered
  // digest (traced or not), same event count. The warm-up counts as a
  // repetition of instance 0.
  std::uint64_t attempted = 0, failed_reps = 0;
  std::vector<std::string> violations;
  std::vector<Rep> warm_ups{warm_up}, none;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Counts& ref = plain[i].front().counts;
    std::vector<Rep>* extra = i == 0 ? &warm_ups : &none;
    for (const auto* reps : {&plain[i], &traced[i], extra}) {
      for (const Rep& r : *reps) {
        std::vector<std::string> v = r.violations;
        if (r.counts.digest() != ref.digest())
          v.push_back("instance " + std::to_string(i) + ": delivered digest " +
                      r.counts.digest() + " differs from " + ref.digest());
        if (r.counts.events != ref.events)
          v.push_back("instance " + std::to_string(i) + ": event count differs");
        ++attempted;
        if (!v.empty()) ++failed_reps;
        violations.insert(violations.end(), v.begin(), v.end());
      }
    }
  }

  Counts pooled, pooled_traced;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    pooled += plain[i].front().counts;
    if (args.trace) pooled_traced += traced[i].front().counts;
  }
  // Host times: the median over every repetition of every instance, each
  // rescaled by the reference kernel runs around it.
  const auto median_of = [](const std::vector<std::vector<Rep>>& reps, auto field) {
    std::vector<double> v;
    for (const auto& instance_reps : reps)
      for (const Rep& r : instance_reps) v.push_back(field(r));
    return median(std::move(v));
  };
  const double run_s = median_of(plain, [](const Rep& r) { return r.in_run(r.run_s); });

  std::vector<Metric> deterministic = sim_end_to_end(pooled);
  std::vector<Metric> reported;
  if (!args.trace) {
    // Set-up: the median overlay build (each instance builds once, later
    // repetitions reuse it) plus the median construction and scheduling.
    std::vector<double> builds;
    for (const auto& instance_reps : plain)
      for (const Rep& r : instance_reps)
        if (r.built_overlay) builds.push_back(r.in_setup(r.overlay_s));
    const double setup_s =
        median(std::move(builds)) +
        median_of(plain, [](const Rep& r) { return r.in_setup(r.construct_s + r.schedule_s); });
    reported = {
        {"setup_s", "s", setup_s},
        {"run_s", "s", run_s},
        {"peak_rss_mb", "MB", rss_mb},
    };
    reported.insert(reported.end(), deterministic.begin(), deterministic.end());
    const auto counts = layer_counts(pooled);
    deterministic.insert(deterministic.end(), counts.begin(), counts.end());
  } else {
    auto counts = layer_counts(pooled_traced);
    const auto extra = traced_counts(pooled_traced);
    counts.insert(counts.end(), extra.begin(), extra.end());
    deterministic.insert(deterministic.end(), counts.begin(), counts.end());
    const auto at = [&](auto field) { return median_of(traced, field); };
    const double events_per_scenario = n(pooled.events) / n(instances.size());
    reported = {
        {"overlay.build_s", "s", at([](const Rep& r) { return r.in_setup(r.overlay_s); })},
        {"overlay.grid_knn_s", "s", at([](const Rep& r) { return r.in_layers(r.grid_knn_s); })},
        {"pubsub.construct_s", "s", at([](const Rep& r) { return r.in_setup(r.construct_s); })},
        {"pubsub.schedule_s", "s", at([](const Rep& r) { return r.in_setup(r.schedule_s); })},
        {"group_tree.build_ms", "ms", at([](const Rep& r) { return r.in_layers(r.build_ms); })},
        {"sim.ns_per_event", "ns", 1e9 * ratio(run_s, events_per_scenario)},
        {"sim.run_wall_s", "s", median_of(plain, [](const Rep& r) { return r.run_s; })},
        {"host.ref_kernel_ms", "ms",
         1e3 * median_of(plain, [](const Rep& r) { return r.ref_run; })},
        {"obs.trace_overhead_s", "s", at([](const Rep& r) { return r.in_run(r.run_s); }) - run_s},
    };
    reported.insert(reported.end(), counts.begin(), counts.end());
  }

  std::ostringstream detail;
  detail << "{\"workload\":" << json_string(workload.name) << ",\"seed\":" << args.seed
         << ",\"trace\":" << (args.trace ? 1 : 0)
         << ",\"small\":" << (args.small ? "true" : "false")
         << ",\"provenance\":{\"source\":" << json_string(args.source_id)
         << ",\"compiler\":" << json_string(GEOMCAST_BENCH_COMPILER)
         << ",\"build_type\":" << json_string(build_type)
         << ",\"assertions\":false,\"hardware_threads\":" << std::thread::hardware_concurrency()
         << "},\"digest\":" << json_string(pooled.digest())
         << ",\"instances\":" << instances.size() << ",\"turns\":" << turns
         << ",\"reference_s\":" << json_number(ReferenceKernel::kReferenceSeconds)
         << ",\"kernel_elasticity\":" << json_number(workload.kernel_elasticity);
  // Per instance and repetition: raw run() seconds with the kernel runs
  // before and after it, then raw set-up seconds with the kernel run before.
  detail << ",\"samples\":[";
  for (std::size_t i = 0; i < plain.size(); ++i) {
    detail << (i ? ",[" : "[");
    for (std::size_t c = 0; c < plain[i].size(); ++c) {
      const Rep& r = plain[i][c];
      detail << (c ? ",[" : "[") << json_number(r.run_s) << "," << json_number(r.ref_setup)
             << "," << json_number(r.ref_run) << "," << json_number(r.setup_s()) << ","
             << json_number(r.ref_start) << "]";
    }
    detail << "]";
  }
  detail << "],\"scheduled_ops\":" << pooled.ops_scheduled
         << ",\"failed_ops\":" << pooled.ops_failed
         << ",\"deliveries\":" << pooled.stats.deliveries
         << ",\"deterministic\":" << metrics_json(deterministic);
  if (args.trace && !args.trace_out.empty())
    detail << ",\"spans\":" << json_string(args.trace_out);
  detail << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i)
    detail << (i ? "," : "") << json_string(violations[i]);
  detail << "]}";
  std::cout << detail.str() << "\n";

  const bool correct = violations.empty();
  std::cout << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
            << ",\"failed\":" << failed_reps << ",\"metrics\":" << metrics_json(reported)
            << "}" << std::endl;
  for (const std::string& v : violations) std::cerr << "perfbench: check failed: " << v << "\n";
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
